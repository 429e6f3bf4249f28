"""Line-oriented `key = value` run configuration and the canonical text
form of a network architecture.

A run config covers the optimizer settings, the model variant and its
threshold level, and data handling (whitening, augmentation, subset
size); the dataset follows from the variant's input shape.  Unknown keys are rejected with the full list of valid ones, and
parse -> serialize -> parse is a fixed point (floats are written with
repr, which round-trips exactly).

The network text form is the architecture block embedded in checkpoints:
one line per block plus the input shape, class count, and classifier
placement.  It captures every field of NetworkSpec so a checkpoint is
self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .learn import TrainConfig
from .network import SPLIT_KINDS, BlockSpec, NetworkSpec

__all__ = ["RunConfig", "parse_config", "serialize_config",
           "parse_network", "serialize_network", "variant_spec",
           "VARIANTS"]

VARIANTS = ("relu_lc7", "crelu_lc7", "crelu_sn_lc7", "ssc_lc7",
            "ssc_ebc67", "digits_ssc_ebc2")

_BOOL = {"true": True, "false": False}


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """Everything a training run needs besides the data directory: the
    TrainConfig fields (validated the same way), then the model and data
    settings."""

    variant: str = "digits_ssc_ebc2"
    beta: float = 0.05
    dropout: float = 0.0
    augment: bool = False
    whiten: bool = False
    subset: int = 0

    def train_config(self):
        names = {f.name for f in fields(TrainConfig)}
        return TrainConfig(**{k: getattr(self, k) for k in names})

    def network_spec(self):
        return variant_spec(self.variant, beta=self.beta,
                            dropout=self.dropout)


def _coerce(key, raw, kind):
    try:
        if kind is bool:
            if raw not in _BOOL:
                raise ValueError
            return _BOOL[raw]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"value {raw!r} for key {key!r} is not a valid "
            f"{kind.__name__}") from None


def parse_config(text):
    """Parse `key = value` lines ('#' starts a comment) into a RunConfig."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    types = {"float": float, "int": int, "str": str, "bool": bool}
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in kinds:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(sorted(kinds)))
        values[key] = _coerce(key, raw, types[kinds[key]])
    try:
        out = RunConfig(**values)
        out.network_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if out.subset < 0:
        raise ConfigError(f"subset must be 0 (all images) or a positive "
                          f"count, got {out.subset}")
    return out


def serialize_config(cfg):
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


# --- canonical network text -------------------------------------------------

def serialize_network(spec):
    """Render a NetworkSpec as canonical text (embedded in checkpoints)."""
    c, h, w = spec.input_shape
    kind, at = spec.classifier
    lines = [f"num_classes = {spec.num_classes}",
             f"input = {c}x{h}x{w}",
             f"classifier = {kind}:{at}"]
    for i, b in enumerate(spec.blocks):
        kern = "x".join(str(d) for d in b.kernel)
        parts = [f"block{i} = {b.kind}", f"kernel={kern}",
                 f"pad={b.pad}", f"stride={b.stride}"]
        if b.dropout_rate:
            parts.append(f"dropout={b.dropout_rate!r}")
        if b.beta:
            parts.append(f"beta={b.beta!r}")
        if b.bias_maps:
            parts.append("bias_maps=true")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_network(text):
    """Inverse of serialize_network; malformed text raises ConfigError."""
    header = {}
    blocks = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        key, _, rest = line.partition("=")
        key, rest = key.strip(), rest.strip()
        if not key.startswith("block"):
            header[key] = rest
            continue
        if key != f"block{len(blocks)}":
            raise ConfigError(f"line {lineno}: expected block{len(blocks)}, "
                              f"got {key!r}")
        toks = rest.split()
        if not toks:
            raise ConfigError(f"line {lineno}: {key} names no block kind")
        kwargs = {"kind": toks[0]}
        for tok in toks[1:]:
            name, _, val = tok.partition("=")
            try:
                if name == "kernel":
                    kwargs["kernel"] = tuple(int(d) for d in val.split("x"))
                elif name in ("pad", "stride"):
                    kwargs[name] = int(val)
                elif name in ("dropout", "beta"):
                    kwargs["dropout_rate" if name == "dropout"
                           else "beta"] = float(val)
                elif name == "bias_maps":
                    kwargs["bias_maps"] = _BOOL[val]
                else:
                    raise KeyError
            except (ValueError, KeyError):
                raise ConfigError(
                    f"line {lineno}: bad block field {tok!r}") from None
        blocks.append(kwargs)
    try:
        num_classes = int(header.pop("num_classes"))
        input_shape = tuple(int(d) for d in header.pop("input").split("x"))
        ckind, _, cat = header.pop("classifier").partition(":")
        classifier = (ckind, int(cat))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad or missing network header field: {exc}") \
            from None
    if header:
        raise ConfigError("unknown network header keys: "
                          + ", ".join(sorted(header)))
    try:
        return NetworkSpec(blocks=tuple(BlockSpec(**kw) for kw in blocks),
                           classifier=classifier, num_classes=num_classes,
                           input_shape=input_shape)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid network description: {exc}") from None


# --- model variants ----------------------------------------------------------

def _seven_block(conv_kind, tail_kind, classifier, beta, dropout,
                 bias_maps=False):
    """The seven-convolution CIFAR-10 tower.

    Channel widths double after splitting nonlinearities, so the input
    side of each kernel depends on whether the preceding block splits.
    Dropout precedes every convolution except the first.
    """
    grow = 2 if conv_kind in SPLIT_KINDS else 1

    def conv(kind, k_out, c_in, size, pad, drop):
        kw = dict(pad=pad, dropout_rate=drop)
        if kind in ("ssc", "ebssc"):
            kw["beta"] = beta
        if kind == "ebssc" and bias_maps:
            kw["bias_maps"] = True
        return BlockSpec(kind, (k_out, c_in, size, size), **kw)

    blocks = (
        conv(conv_kind, 96, 3, 3, 1, 0.0),
        conv(conv_kind, 96, 96 * grow, 3, 1, dropout),
        BlockSpec("maxpool", (3,), pad=1, stride=2),
        conv(conv_kind, 192, 96 * grow, 3, 1, dropout),
        conv(conv_kind, 192, 192 * grow, 3, 1, dropout),
        conv(conv_kind, 192, 192 * grow, 3, 1, dropout),
        BlockSpec("maxpool", (3,), pad=1, stride=2),
        conv(tail_kind, 192, 192 * grow, 3, 1, dropout),
        conv(tail_kind, 192, 192 * grow, 1, 0, dropout),
    )
    return NetworkSpec(blocks=blocks, classifier=classifier,
                       num_classes=10, input_shape=(3, 32, 32))


def variant_spec(variant, beta=0.05, dropout=0.0):
    """Build the NetworkSpec for a named model variant."""
    if variant == "relu_lc7":
        return _seven_block("relu", "relu", ("linear", 8), beta, dropout)
    if variant == "crelu_lc7":
        return _seven_block("crelu", "crelu", ("linear", 8), beta, dropout)
    if variant == "crelu_sn_lc7":
        return _seven_block("crelu_sn", "crelu_sn", ("linear", 8), beta,
                            dropout)
    if variant == "ssc_lc7":
        return _seven_block("ssc", "ssc", ("linear", 8), beta, dropout)
    if variant == "ssc_ebc67":
        return _seven_block("ssc", "ebssc", ("energy", 7), beta, dropout,
                            bias_maps=True)
    if variant == "digits_ssc_ebc2":
        blocks = (BlockSpec("ssc", (12, 1, 5, 5), pad=2, beta=beta),
                  BlockSpec("maxpool", (3,), pad=1, stride=2),
                  BlockSpec("ebssc", (24, 24, 3, 3), pad=1, beta=beta,
                            bias_maps=True))
        return NetworkSpec(blocks=blocks, classifier=("energy", 2),
                           num_classes=10, input_shape=(1, 28, 28))
    raise ConfigError(f"unknown variant {variant!r}; choose from "
                      + ", ".join(VARIANTS))
