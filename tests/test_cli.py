"""The command-line surface, end to end on a miniature corpus.

Exit codes: 0 success, 1 usage, 2 unreadable data, 3 failed checks.
"""

import numpy as np
import pytest

from ebssc import cli, data, network
from ebssc.checkpoint import Checkpoint, load_checkpoint, \
    read_tensor_file, save_checkpoint, write_tensor_file
from ebssc.cli import main
from ebssc.config import variant_spec
from ebssc.data import Whitening
from ebssc.imaging import load_ppm
from ebssc.network import BlockSpec, NetworkSpec, build


CONFIG = """\
variant = digits_ssc_ebc2
beta = 0.05
learning_rate = 0.005
batch_size = 50
epochs = 1
subset = 100
seed = 0
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory, digits_dir):
    """One short training run shared by the read-only commands."""
    d = tmp_path_factory.mktemp("run")
    cfg = d / "run.cfg"
    cfg.write_text(CONFIG)
    out = d / "model"
    rc = main(["train", "--config", str(cfg), "--data", str(digits_dir),
               "--out", str(out)])
    assert rc == 0
    return out


class TestTrain:
    """The train subcommand's artifacts."""

    def test_writes_checkpoint_and_metrics(self, trained, digits_dir):
        """A checkpoint and a metrics CSV appear under --out."""
        metrics = trained.with_name(trained.name + ".metrics.csv")
        assert trained.exists() and metrics.exists()

        lines = metrics.read_text().strip().splitlines()
        assert lines[0] == "epoch,iter,split,loss,error_rate"
        assert lines[1].startswith("1,2,train,")
        assert lines[2].startswith("1,2,test,")

    def test_checkpoint_is_loadable_and_resumed_state_complete(self,
                                                               trained):
        """The snapshot carries params, optimizer, and RNG state."""
        ck = load_checkpoint(str(trained))
        assert ck.epoch == 1
        assert ck.opt_state is not None and ck.rng_state is not None
        assert ck.spec.blocks[0].kind == "ssc"

    def test_missing_config_is_a_data_error(self, tmp_path, digits_dir):
        """An unreadable config exits 2."""
        rc = main(["train", "--config", str(tmp_path / "none.cfg"),
                   "--data", str(digits_dir), "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_config_key_is_a_usage_error(self, tmp_path, digits_dir):
        """Config syntax errors exit 1."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rat = 1\n")
        rc = main(["train", "--config", str(cfg), "--data",
                   str(digits_dir), "--out", str(tmp_path)])
        assert rc == 1

    def test_rejected_config_value_is_a_usage_error(self, tmp_path,
                                                    digits_dir, capsys):
        """A value TrainConfig refuses exits 1 before any data loads."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("batch_size = 0\n")
        rc = main(["train", "--config", str(cfg), "--data",
                   str(tmp_path / "no-data"), "--out", str(tmp_path)])
        assert rc == 1
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("n_train, n_test", [(0, 10), (10, 0)],
                             ids=["empty_train", "empty_test"])
    def test_whitened_empty_split_exits_two(self, tmp_path, capsys,
                                            n_train, n_test):
        """With whitening on, an empty split is refused as a data error
        (statistics from no images, or an empty test split), not a numpy
        reshape traceback."""
        d = data.write_digits_idx(str(tmp_path / "d"), n_train=n_train,
                                  n_test=n_test, seed=7)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG + "whiten = true\n")
        rc = main(["train", "--config", str(cfg), "--data", d,
                   "--out", str(tmp_path / "model")])
        assert rc == 2
        assert "empty split" in capsys.readouterr().err


class TestEval:
    """The eval subcommand."""

    def test_reports_error_and_loss(self, trained, digits_dir, capsys):
        """Output carries machine-readable test_error/test_loss lines."""
        rc = main(["eval", "--ckpt", str(trained),
                   "--data", str(digits_dir)])
        assert rc == 0
        outp = capsys.readouterr().out
        fields = dict(line.split(" = ") for line in outp.strip()
                      .splitlines())
        assert 0.0 <= float(fields["test_error"]) <= 1.0
        assert float(fields["test_loss"]) > 0.0

    @pytest.mark.parametrize("depth", ["5", "-1"])
    def test_unroll_depth_out_of_range_is_usage_error(self, trained,
                                                      digits_dir, depth):
        """--unroll outside 0..4 exits 1."""
        rc = main(["eval", "--ckpt", str(trained), "--data",
                   str(digits_dir), "--unroll", depth])
        assert rc == 1

    def test_unroll_without_coding_segment_is_usage_error(
            self, tmp_path, digits_dir, capsys):
        """A model without two trailing coding blocks cannot unroll."""
        spec = NetworkSpec(blocks=(BlockSpec("relu", (2, 1, 5, 5)),),
                           classifier=("linear", 0), num_classes=10,
                           input_shape=(1, 28, 28))
        ckpt = tmp_path / "linear.ckpt"
        save_checkpoint(str(ckpt), Checkpoint(spec=spec,
                                              params=build(spec, seed=0)))
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(digits_dir),
                   "--unroll", "1"])
        assert rc == 1
        assert "coding blocks" in capsys.readouterr().err

    def test_empty_test_split_exits_two(self, trained, tmp_path, capsys):
        """A test split of valid IDX files holding no images is a data
        error, not a ZeroDivisionError traceback."""
        empty = data.write_digits_idx(str(tmp_path / "empty"), n_train=10,
                                      n_test=0, seed=7)
        rc = main(["eval", "--ckpt", str(trained), "--data", empty])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_whitened_empty_test_split_exits_two(self, tmp_path, capsys):
        """A checkpoint's whitening applied to an empty test split gives
        an empty split, refused as a data error."""
        spec = variant_spec("digits_ssc_ebc2")
        ckpt = tmp_path / "white.ckpt"
        save_checkpoint(str(ckpt), Checkpoint(
            spec=spec, params=build(spec, seed=0),
            whitening=Whitening(mean=np.zeros(784), matrix=np.eye(784))))
        empty = data.write_digits_idx(str(tmp_path / "empty"), n_train=10,
                                      n_test=0, seed=7)
        rc = main(["eval", "--ckpt", str(ckpt), "--data", empty])
        assert rc == 2
        assert "empty split" in capsys.readouterr().err

    def test_checkpoint_missing_a_parameter_exits_two(
            self, trained, tmp_path, digits_dir, capsys):
        """A checkpoint that lacks a parameter its network needs is a data
        error at load, not a KeyError out of the first forward pass."""
        text, tensors = read_tensor_file(str(trained))
        del tensors["param.block0.offset"]
        ckpt = tmp_path / "partial.ckpt"
        write_tensor_file(str(ckpt), tensors, text=text)
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(digits_dir)])
        assert rc == 2
        assert "block0.offset" in capsys.readouterr().err

    def test_missing_checkpoint_exits_two(self, tmp_path, digits_dir):
        """A nonexistent checkpoint is a data error."""
        rc = main(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
                   "--data", str(digits_dir)])
        assert rc == 2


class TestEncode:
    """Dumping codes and energies for one image."""

    def test_dumps_codes_and_energy(self, trained, digits_dir, tmp_path):
        """Per-class codes plus the energy breakdown land in one file."""
        out = tmp_path / "img.codes"
        rc = main(["encode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--index", "3", "--out", str(out)])
        assert rc == 0
        _, tensors = read_tensor_file(str(out))
        assert "code.block0" in tensors
        assert tensors["code.block0"].shape == (12, 28, 28)
        for y in range(10):
            assert f"code.block2.class{y}" in tensors
        assert tensors["energy.e_total"].shape == (10,)
        np.testing.assert_allclose(
            tensors["energy.e_total"],
            tensors["energy.e_code"] + tensors["energy.e_class"],
            atol=1e-4)

    def test_runs_one_forward_pass(self, trained, digits_dir, tmp_path,
                                   monkeypatch):
        """encode scores the image once, and the energies it writes are
        the breakdown's own."""
        seen = []

        def counting(params, spec, x, *args, **kwargs):
            seen.append((params, spec, x))
            return real(params, spec, x, *args, **kwargs)

        real = network.forward
        monkeypatch.setattr(network, "forward", counting)
        monkeypatch.setattr(cli, "forward", counting)
        out = tmp_path / "once.codes"
        rc = main(["encode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--index", "3", "--out", str(out)])
        assert rc == 0
        assert len(seen) == 1
        monkeypatch.undo()
        want = network.class_energy_breakdown(*seen[0])
        _, tensors = read_tensor_file(str(out))
        for name in ("e_code", "e_class", "e_total", "l1_of_code",
                     "recon_inner"):
            np.testing.assert_array_equal(tensors[f"energy.{name}"],
                                          getattr(want, name)[0])

    def test_unterminated_ppm_comment_exits_two(self, trained, tmp_path,
                                                capsys):
        """A PPM whose header comment runs to end of file is unreadable
        data: exit 2 with the byte offset, not a traceback."""
        img = tmp_path / "img.ppm"
        img.write_bytes(b"P6\n# no newline")
        rc = main(["encode", "--ckpt", str(trained), "--image", str(img),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "offset 3" in capsys.readouterr().err


class TestDecode:
    """Reconstruction, class-bias, and residual image grids."""

    def test_recon_grid_is_one_tile(self, trained, digits_dir, tmp_path):
        """Mode recon emits a single input-sized tile."""
        out = tmp_path / "recon.ppm"
        rc = main(["decode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--layer", "2", "--mode", "recon", "--out", str(out)])
        assert rc == 0
        img = load_ppm(str(out))
        assert img.shape == (3, 28 + 4, 28 + 4)

    @pytest.mark.parametrize("mode", ["bias", "residual"])
    def test_classwise_grids_have_ten_columns(self, trained, digits_dir,
                                              tmp_path, mode):
        """Modes bias/residual emit one tile per class."""
        out = tmp_path / f"{mode}.ppm"
        rc = main(["decode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--layer", "2", "--mode", mode, "--out", str(out)])
        assert rc == 0
        img = load_ppm(str(out))
        assert img.shape == (3, 28 + 4, 10 * 28 + 11 * 2)

    @pytest.mark.parametrize("mode,tiles", [("recon", 1), ("bias", 10),
                                            ("residual", 10)])
    def test_pool_above_the_class_axis(self, digits_dir, tmp_path, mode,
                                       tiles):
        """A pool between two ebssc blocks keeps switches per hypothesis;
        every mode decodes through one hypothesis's switches."""
        blocks = (BlockSpec("ebssc", (2, 1, 5, 5), pad=2, beta=0.05),
                  BlockSpec("maxpool", (2,), stride=2),
                  BlockSpec("ebssc", (3, 4, 3, 3), pad=1, beta=0.05))
        spec = NetworkSpec(blocks=blocks, classifier=("energy", 0),
                           num_classes=10, input_shape=(1, 28, 28))
        ckpt = tmp_path / "pooled.ckpt"
        save_checkpoint(str(ckpt), Checkpoint(spec=spec,
                                              params=build(spec, seed=0)))
        out = tmp_path / f"{mode}.ppm"
        rc = main(["decode", "--ckpt", str(ckpt),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--layer", "2", "--mode", mode, "--out", str(out)])
        assert rc == 0
        img = load_ppm(str(out))
        assert img.shape == (3, 28 + 4, tiles * 28 + (tiles + 1) * 2)

    def test_residual_mode_runs_one_forward_pass(self, trained, digits_dir,
                                                 tmp_path, monkeypatch):
        """Every class's residual tile comes from one forward pass, not
        one pass per hypothesis."""
        calls = []
        real = network.forward

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "forward", counted)
        monkeypatch.setattr(cli, "forward", counted)
        rc = main(["decode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--layer", "2", "--mode", "residual",
                   "--out", str(tmp_path / "residual.ppm")])
        assert rc == 0
        assert len(calls) == 1

    def test_pool_layer_is_usage_error(self, trained, digits_dir,
                                       tmp_path):
        """Decoding from a non-coding block exits 1."""
        rc = main(["decode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--layer", "1", "--mode", "recon",
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 1

    @pytest.mark.parametrize("mode", ["bias", "residual"])
    def test_class_bias_modes_need_energy_block(self, trained, digits_dir,
                                                tmp_path, mode):
        """Block 0 codes but carries no class bias: exit 1, no traceback."""
        rc = main(["decode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--layer", "0", "--mode", mode,
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 1

    def test_unknown_mode_is_usage_error(self, trained, digits_dir,
                                         tmp_path):
        """argparse choices funnel into exit code 1."""
        rc = main(["decode", "--ckpt", str(trained),
                   "--image",
                   str(digits_dir / "t10k-images-idx3-ubyte"),
                   "--layer", "2", "--mode", "spectrum",
                   "--out", str(tmp_path / "x.ppm")])
        assert rc == 1


class TestPoolSwitches:
    """Only decoding asks forward for pool switches."""

    @pytest.mark.parametrize("command, wanted", [
        ("eval", {False}), ("encode", {False}), ("decode", {True})])
    def test_requested_only_to_decode(self, trained, digits_dir, tmp_path,
                                      switch_requests, command, wanted):
        """Every max_pool call of a command asks for switches or none
        does: eval and encode score, decode routes through them."""
        image = ["--ckpt", str(trained), "--image",
                 str(digits_dir / "t10k-images-idx3-ubyte")]
        argv = {"eval": ["eval", "--ckpt", str(trained),
                         "--data", str(digits_dir)],
                "encode": ["encode", *image,
                           "--out", str(tmp_path / "x.codes")],
                "decode": ["decode", *image, "--layer", "2",
                           "--mode", "recon",
                           "--out", str(tmp_path / "x.ppm")]}[command]
        assert main(argv) == 0
        assert set(switch_requests) == wanted


class TestCheckAndUsage:
    """The self-check command and global argument handling."""

    def test_check_passes(self, capsys):
        """`ebssc check` exits 0 and prints a PASS table."""
        rc = main(["check"])
        assert rc == 0
        outp = capsys.readouterr().out
        assert "PASS" in outp and "FAIL" not in outp

    def test_unknown_flag_exits_one(self):
        """argparse errors are usage errors, not exit 2."""
        assert main(["eval", "--nope"]) == 1

    def test_missing_subcommand_exits_one(self):
        """Bare invocation prints usage and exits 1."""
        assert main([]) == 1
