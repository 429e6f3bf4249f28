"""Run one benchmark workload of the ebssc library and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source tree and imports the library from its
``src`` directory.  With ``--trace 0`` the last line of standard output is
a JSON object holding the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics instead, taken from ops that
alternate between traced and untraced so the tracing overhead is measured
in the same run.  Lines before it describe the environment and report the
workload's own figures by name.  ``--smoke`` runs the workload at a tiny
size through the same code path.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: on small shared hosts extra BLAS threads add more
# run-to-run spread than speed for these matrix sizes.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
MAX_NOTES = 10

class Ledger:
    """Ops attempted and the ids of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.notes = []

    def new_op(self):
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op_id, why):
        if op_id not in self.failed and len(self.notes) < MAX_NOTES:
            self.notes.append(f"op {op_id}: {why}")
        self.failed.add(op_id)


def environment(seed):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} "
                    f"{blas.get('version', '')}".strip(),
            "blas_threads": BLAS_THREADS,
            "seed": seed}


def run(name, seed, seconds, trace, smoke):
    from calibration import Calibration
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, CheckFailed, check_round_trip

    wl = WORKLOADS[name]
    size = wl.smoke if smoke else wl.full
    ledger = Ledger()
    clock = time.perf_counter
    origin = clock()
    scratch = os.path.join(HERE, "out", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        inputs = wl.inputs(seed, size, scratch, smoke)

        setup_tracer = Tracer() if trace else None
        cal = Calibration()
        setup_times = []
        for _ in range(size.setup_reps):
            if trace:
                setup_tracer.install()
            try:
                t0 = clock()
                state = wl.setup(inputs, size, scratch)
                setup_times.append(clock() - t0)
            finally:
                if trace:
                    setup_tracer.remove()
            cal.after_op(setup_times[-1])
            op_id = ledger.new_op()
            try:
                check_round_trip(*state.pop("round_trip"))
            except CheckFailed as exc:
                ledger.fail(op_id, str(exc))

        loop_tracer = Tracer() if trace else None
        plain, traced = [], []  # (seconds, items) of timed ops
        i = 0
        start = clock()
        while i < size.min_ops or clock() - start < seconds:
            on = trace and i >= size.warmup and (i - size.warmup) % 2 == 0
            op_id = ledger.new_op()
            if on:
                loop_tracer.install()
            try:
                t0 = clock()
                items, out = wl.op(state, i)
                elapsed = clock() - t0
            except Exception:  # an op that raises is a failed op
                ledger.fail(op_id, traceback.format_exc(limit=3))
                i += 1
                continue
            finally:
                if on:
                    loop_tracer.remove()
            if i >= size.warmup:
                (traced if on else plain).append((elapsed, items))
                cal.after_op(elapsed)
            try:
                wl.check(state, op_id, out)
            except CheckFailed as exc:
                ledger.fail(op_id, str(exc))
            except Exception:  # output too malformed to check
                ledger.fail(op_id, traceback.format_exc(limit=3))
            i += 1
        # Peak memory of set-up and the ops, before the untimed checks.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = wl.finish(state, ledger)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lat = sorted(t for t, _ in plain)
    items_per_s = (sum(n for _, n in plain) / sum(lat)) if lat else 0.0
    p50_ms = 1e3 * statistics.median(lat) if lat else 0.0
    scale = cal.scale()
    setup_s = statistics.median(setup_times)
    lines = [("setup_wall_s", setup_s, "s"),
             (wl.rate_name, items_per_s, "1/s"),
             ("latency_p50_ms", p50_ms, "ms")]
    if len(lat) >= 1000:
        lines.append(("latency_p99_ms",
                      1e3 * statistics.quantiles(lat, n=100)[98], "ms"))
    lines.append(("host_speed_scale", scale, "x"))
    lines += [(f"calibration_{k}_ms", 1e3 * v, "ms")
              for k, v in cal.medians().items()]
    lines += [("setup_s", setup_s * scale, "s"),
              ("norm_items_per_s", items_per_s / scale, "1/s"),
              ("norm_latency_p50_ms", p50_ms * scale, "ms"),
              ("timed_ops", len(lat), "count"),
              ("peak_rss_mb", peak_rss_mb, "MB"),
              ("failed_ops_share", len(ledger.failed) / ledger.attempted,
               "share")]
    lines += report

    if trace:
        traced_lat = [t for t, _ in traced]
        overhead = (statistics.median(traced_lat) / statistics.median(lat)
                    - 1.0) if traced_lat and lat else 0.0
        metrics = layer_metrics(setup_tracer, loop_tracer, len(traced),
                                overhead)
        spans = os.path.join(HERE, "out", f"spans-{name}-seed{seed}.jsonl")
        loop_tracer.spans[:0] = setup_tracer.spans
        loop_tracer.dump(spans, origin)
        lines.append(("spans_file", os.path.relpath(spans, ROOT), ""))
    else:
        metrics = {"setup_s": (setup_s * scale, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "norm_items_per_s": (items_per_s / scale, "1/s"),
                   "norm_latency_p50_ms": (p50_ms * scale, "ms")}
    return ledger, lines, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, same code path")
    ap.add_argument("--build-fixture", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "ebssc", "__init__.py")):
        print(f"error: no ebssc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ebssc
    if os.path.dirname(os.path.abspath(ebssc.__file__)) != os.path.join(
            SRC, "ebssc"):
        print(f"error: imported ebssc from {ebssc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS, build_fixture
    if args.build_fixture:
        build_fixture(args.smoke)
        return 0
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    env = environment(args.seed)
    print(json.dumps({"env": env}))
    ledger, lines, metrics = run(args.workload, args.seed, args.seconds,
                                 args.trace, args.smoke)
    for note in ledger.notes:
        print(f"FAILED {note}", file=sys.stderr)
    for key, value, unit in lines:
        print(f"{args.workload} {key} = {value} {unit}".rstrip())
    result = {"correct": not ledger.failed, "attempted": ledger.attempted,
              "failed": len(ledger.failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"result-{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "report": lines, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
