"""Binary checkpoint container.

Layout (all integers little-endian):

    magic "EBSC" | u32 version=1 | u32 text length | network text (UTF-8)
    | u32 tensor count | tensors... | u32 CRC32 of everything before it

Each tensor is: u32 name length, name bytes, u8 dtype tag, u8 rank,
rank x u64 dims, raw data.  The same container (with an empty text
section) doubles as the dump format for code tensors and energy
breakdowns, so one reader handles both.

Loading is total: any malformed byte stream raises CheckpointError with
the offending byte offset; the checksum is verified before any parsing
so corruption is reported as such rather than as a spurious format
error.  Parameters must fit the embedded network: the names and shapes
of ``network.param_shapes``, each a finite floating array; optimizer
moments must be finite floating arrays of their parameters' shapes.  A
tensor name that is none of a checkpoint's is refused too.

Files are written tensor by tensor and read through a view of the file's
bytes, so neither direction holds a second copy of the whole file; every
loaded array owns its data.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import parse_network, serialize_network
from .data import Whitening
from .errors import CheckpointError, ConfigError
from .learn import OptimizerState
from .network import param_shapes

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint",
           "write_tensor_file", "read_tensor_file"]

MAGIC = b"EBSC"
VERSION = 1

_TAG_OF_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
                 np.dtype(np.int64): 2, np.dtype(np.uint64): 3,
                 np.dtype(np.int32): 4, np.dtype(np.uint8): 5}
_DTYPE_OF_TAG = {v: k for k, v in _TAG_OF_DTYPE.items()}


@dataclass
class Checkpoint:
    """Model parameters plus everything needed to resume training."""

    spec: object
    params: dict
    opt_state: OptimizerState | None = None
    epoch: int = 0
    step: int = 0
    rng_state: dict | None = None
    whitening: Whitening | None = None


def _pack_tensors(tensors):
    """The tensor table as a list of byte chunks: headers as bytes, data
    as little-endian byte views of the arrays themselves.  Every dtype is
    checked before anything is written."""
    out = [struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], order="C")
        if arr.dtype not in _TAG_OF_DTYPE:
            raise CheckpointError(
                f"tensor {name!r} has unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        out.append(struct.pack("<I", len(nb)) + nb
                   + struct.pack("<BB", _TAG_OF_DTYPE[arr.dtype], arr.ndim)
                   + struct.pack(f"<{arr.ndim}Q", *arr.shape))
        if arr.dtype.itemsize > 1:
            arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        out.append(arr.reshape(-1).view(np.uint8))
    return out


class _Cursor:
    """Reads ``buf`` (a memoryview) front to back; ``take`` returns views,
    not copies."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n, what):
        if n < 0 or self.pos + n > len(self.buf):
            raise CheckpointError(
                f"truncated while reading {what} at byte offset {self.pos}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def _unpack_tensors(cur):
    count = cur.u32("tensor count")
    tensors = {}
    for _ in range(count):
        nlen = cur.u32("tensor name length")
        try:
            name = str(cur.take(nlen, "tensor name"), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"tensor name is not UTF-8 at byte offset {cur.pos - nlen}") \
                from None
        tag, rank = struct.unpack("<BB", cur.take(2, f"{name} header"))
        if tag not in _DTYPE_OF_TAG:
            raise CheckpointError(
                f"tensor {name!r}: unknown dtype tag {tag} at byte offset "
                f"{cur.pos - 2}")
        dims = struct.unpack(f"<{rank}Q", cur.take(8 * rank, f"{name} dims"))
        dtype = _DTYPE_OF_TAG[tag]
        n = 1
        for d in dims:
            n *= int(d)  # python ints: crafted dims cannot wrap silently
        raw = cur.take(n * dtype.itemsize, f"{name} data")
        arr = np.frombuffer(raw, dtype=dtype.newbyteorder("<"))
        tensors[name] = arr.reshape(dims).astype(dtype)  # owns its data
    return tensors


def write_tensor_file(path, tensors, text=""):
    """Write the container with an arbitrary tensor table."""
    tb = text.encode("utf-8")
    chunks = [MAGIC + struct.pack("<II", VERSION, len(tb)) + tb]
    chunks += _pack_tensors(tensors)
    crc = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))


def read_tensor_file(path):
    """Read the container back as (text, tensors)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise CheckpointError("file shorter than its checksum")
    payload = memoryview(blob)[:-4]
    crc = struct.unpack_from("<I", blob, len(payload))[0]
    if zlib.crc32(payload) != crc:
        raise CheckpointError("checksum mismatch: file is corrupted")
    cur = _Cursor(payload)
    if cur.take(4, "magic") != MAGIC:
        raise CheckpointError("bad magic at byte offset 0")
    version = cur.u32("version")
    if version != VERSION:
        raise CheckpointError(
            f"unsupported version {version} (reader supports {VERSION})")
    tlen = cur.u32("text length")
    try:
        text = str(cur.take(tlen, "network text"), "utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(
            f"network text is not UTF-8 at byte offset {cur.pos - tlen}") \
            from None
    tensors = _unpack_tensors(cur)
    if cur.pos != len(payload):
        raise CheckpointError(
            f"trailing bytes after tensor table at byte offset {cur.pos}")
    return text, tensors


def _pack_rng(state):
    s = state["state"]
    mask = (1 << 64) - 1
    words = [s["state"] & mask, s["state"] >> 64,
             s["inc"] & mask, s["inc"] >> 64,
             state["has_uint32"], state["uinteger"]]
    return np.array(words, dtype=np.uint64)


def _unpack_rng(words):
    if words.shape != (6,):
        raise CheckpointError("rng state must hold 6 words")
    w = [int(x) for x in words]
    return {"bit_generator": "PCG64",
            "state": {"state": w[0] | (w[1] << 64),
                      "inc": w[2] | (w[3] << 64)},
            "has_uint32": w[4], "uinteger": w[5]}


def _unpack_count(name, arr):
    if arr.size != 1 or arr.dtype.kind not in "iu":
        raise CheckpointError(f"{name} must hold one integer, got "
                              f"{arr.dtype} of shape {arr.shape}")
    return int(arr.item())


def _check_array(what, arr, shape):
    """Refuse ``arr`` unless it is a finite floating array of ``shape``:
    one NaN parameter makes every score NaN."""
    if arr.shape != shape or arr.dtype.kind != "f":
        raise CheckpointError(f"{what} is {arr.dtype} {arr.shape}; it must "
                              f"be a floating array of shape {shape}")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{what} holds non-finite values")


def _check_params(spec, params):
    """Refuse parameters that are not finite floating arrays with the
    names and shapes of ``param_shapes(spec)``."""
    want = param_shapes(spec)
    if set(params) != set(want):
        raise CheckpointError(f"parameters missing or unknown to the "
                              f"network: {sorted(set(params) ^ set(want))}")
    for name, arr in sorted(params.items()):
        _check_array(f"parameter {name}", arr, want[name])


def save_checkpoint(path, ckpt):
    tensors = {f"param.{k}": v for k, v in ckpt.params.items()}
    if ckpt.opt_state is not None:
        tensors.update({f"adam.m.{k}": v
                        for k, v in ckpt.opt_state.m.items()})
        tensors.update({f"adam.v.{k}": v
                        for k, v in ckpt.opt_state.v.items()})
        tensors["meta.adam_step"] = np.int64(ckpt.opt_state.step)
    tensors["meta.epoch"] = np.int64(ckpt.epoch)
    tensors["meta.step"] = np.int64(ckpt.step)
    if ckpt.rng_state is not None:
        tensors["meta.rng"] = _pack_rng(ckpt.rng_state)
    if ckpt.whitening is not None:
        tensors["whiten.mean"] = ckpt.whitening.mean
        tensors["whiten.matrix"] = ckpt.whitening.matrix
    write_tensor_file(path, tensors, serialize_network(ckpt.spec))


def load_checkpoint(path):
    text, tensors = read_tensor_file(path)
    try:
        spec = parse_network(text)
    except ConfigError as exc:
        raise CheckpointError(f"embedded network text invalid: {exc}") \
            from None
    params, m, v = {}, {}, {}
    meta = {"epoch": 0, "step": 0, "adam_step": 0}
    rng_state = None
    wmean = wmat = None
    for name, arr in tensors.items():
        if name.startswith("param."):
            params[name[len("param."):]] = arr
        elif name.startswith("adam.m."):
            m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            v[name[len("adam.v."):]] = arr
        elif name in ("meta.epoch", "meta.step", "meta.adam_step"):
            meta[name[len("meta."):]] = _unpack_count(name, arr)
        elif name == "meta.rng":
            rng_state = _unpack_rng(arr)
        elif name == "whiten.mean":
            wmean = arr
        elif name == "whiten.matrix":
            wmat = arr
        else:
            raise CheckpointError(
                f"tensor {name!r} is not part of a checkpoint")
    _check_params(spec, params)
    opt_state = None
    if m or v:
        if set(m) != set(params) or set(v) != set(params):
            raise CheckpointError("optimizer tensors do not match "
                                  "parameter names")
        for name in sorted(params):
            for arr in (m[name], v[name]):
                _check_array(f"optimizer moment for {name}", arr,
                             params[name].shape)
        opt_state = OptimizerState(m=m, v=v, step=meta["adam_step"])
    whitening = None
    if wmean is not None or wmat is not None:
        if wmean is None or wmat is None:
            raise CheckpointError("whitening needs both mean and matrix")
        d = int(np.prod(spec.input_shape))
        _check_array("whitening mean", wmean, (d,))
        _check_array("whitening matrix", wmat, (d, d))
        whitening = Whitening(mean=wmean, matrix=wmat)
    return Checkpoint(spec=spec, params=params, opt_state=opt_state,
                      epoch=meta["epoch"], step=meta["step"],
                      rng_state=rng_state, whitening=whitening)
