"""Checkpoint container: bitwise round trips, resumable optimizer and
RNG state, and hard rejection of corrupted bytes."""

import struct
import zlib

import numpy as np
import pytest

from ebssc import CheckpointError
from ebssc.checkpoint import Checkpoint, load_checkpoint, read_tensor_file, \
    save_checkpoint, write_tensor_file
from ebssc.config import variant_spec
from ebssc.data import Whitening
from ebssc.learn import OptimizerState, TrainConfig, adam_step
from ebssc.network import BlockSpec, NetworkSpec, build


def _tiny_spec():
    blocks = (BlockSpec("ssc", (3, 1, 3, 3), pad=1, beta=0.1),
              BlockSpec("ebssc", (4, 6, 3, 3), pad=1, beta=0.1))
    return NetworkSpec(blocks=blocks, classifier=("energy", 1),
                       num_classes=2, input_shape=(1, 6, 6))


class TestTensorFile:
    """The length-prefixed tensor table with its trailing checksum."""

    def test_bitwise_round_trip(self, tmp_path):
        """Every supported dtype survives save/load unchanged."""
        rng = np.random.default_rng(42)
        tensors = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(7),
            "c": rng.integers(-5, 5, (2, 2)).astype(np.int64),
            "d": np.asarray([1, 2], dtype=np.uint64),
            "e": np.asarray([[3]], dtype=np.int32),
            "f": np.arange(6, dtype=np.uint8),
        }
        path = tmp_path / "t.ckpt"
        write_tensor_file(str(path), tensors, text="hello\n")
        text, out = read_tensor_file(str(path))
        assert text == "hello\n"
        assert out.keys() == tensors.keys()
        for k in tensors:
            assert out[k].dtype == tensors[k].dtype
            np.testing.assert_array_equal(out[k], tensors[k])

    def test_scalar_and_empty_tensors(self, tmp_path):
        """Rank-0 and zero-length arrays are legal entries."""
        path = tmp_path / "t.ckpt"
        write_tensor_file(str(path), {"s": np.float64(3.5),
                                      "z": np.zeros(0, dtype=np.float32)})
        _, out = read_tensor_file(str(path))
        assert out["s"].shape == () and float(out["s"]) == 3.5
        assert out["z"].shape == (0,)

    def test_unsupported_dtype_rejected_on_write(self, tmp_path):
        """complex tensors have no tag and fail fast."""
        with pytest.raises(CheckpointError):
            write_tensor_file(str(tmp_path / "t"),
                              {"c": np.zeros(2, dtype=np.complex128)})

    def test_checksum_guards_every_byte(self, tmp_path):
        """Flipping any single byte fails the CRC before parsing."""
        path = tmp_path / "t.ckpt"
        write_tensor_file(str(path), {"a": np.arange(4.0)}, text="x")
        raw = bytearray(path.read_bytes())
        for pos in range(0, len(raw), max(1, len(raw) // 13)):
            bad = bytearray(raw)
            bad[pos] ^= 0xFF
            path.write_bytes(bytes(bad))
            with pytest.raises(CheckpointError):
                read_tensor_file(str(path))

    def test_truncation_at_any_prefix(self, tmp_path):
        """Every proper prefix of a valid file is rejected cleanly."""
        path = tmp_path / "t.ckpt"
        write_tensor_file(str(path), {"a": np.arange(5.0)})
        raw = path.read_bytes()
        for cut in range(0, len(raw), 7):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                read_tensor_file(str(path))

    def test_wrong_magic_and_version(self, tmp_path):
        """Foreign magics and future versions are named in the error."""
        path = tmp_path / "t.ckpt"
        write_tensor_file(str(path), {"a": np.arange(3.0)})
        raw = bytearray(path.read_bytes())

        bad = b"NOPE" + bytes(raw[4:-4])
        bad += struct.pack("<I", zlib.crc32(bad))
        path.write_bytes(bad)
        with pytest.raises(CheckpointError, match="magic"):
            read_tensor_file(str(path))

        bad = bytes(raw[:4]) + struct.pack("<I", 99) + bytes(raw[8:-4])
        bad += struct.pack("<I", zlib.crc32(bad))
        path.write_bytes(bad)
        with pytest.raises(CheckpointError, match="version"):
            read_tensor_file(str(path))

    def test_oversized_dims_cannot_wrap(self, tmp_path):
        """Dim products are exact integers, so 2^32 x 2^32 overflows
        the byte budget instead of wrapping to something small."""
        body = struct.pack("<I", 1)                      # one tensor
        name = b"a"
        body += struct.pack("<I", len(name)) + name
        body += struct.pack("<BB", 0, 2)                 # f32 tag, rank 2
        body += struct.pack("<QQ", 2 ** 32, 2 ** 32)     # crafted dims
        head = b"EBSC" + struct.pack("<I", 1) + struct.pack("<I", 0)
        raw = head + body
        raw += struct.pack("<I", zlib.crc32(raw))
        path = tmp_path / "evil.ckpt"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            read_tensor_file(str(path))

    def test_random_garbage_never_crashes(self, tmp_path):
        """Arbitrary bytes raise CheckpointError, not IndexError."""
        rng = np.random.default_rng(42)
        path = tmp_path / "fuzz.ckpt"
        for n in (0, 1, 4, 8, 40, 200):
            for _ in range(20):
                path.write_bytes(rng.integers(0, 256, n, dtype=np.uint8)
                                 .tobytes())
                with pytest.raises(CheckpointError):
                    read_tensor_file(str(path))


class TestCheckpoint:
    """The full training snapshot."""

    def _snapshot(self):
        spec = _tiny_spec()
        params = build(spec, seed=1)
        state = OptimizerState.init_like(params)
        grads = {k: np.ones_like(v) for k, v in params.items()}
        params, state = adam_step(params, grads, state,
                                  TrainConfig(learning_rate=0.01))
        rng = np.random.default_rng(123)
        rng.random(10)
        return Checkpoint(spec=spec, params=params, opt_state=state,
                          epoch=4, step=17, rng_state=rng.bit_generator.state,
                          whitening=Whitening(mean=np.arange(36.0),
                                              matrix=np.eye(36)))

    def test_full_round_trip(self, tmp_path):
        """Params, optimizer moments, counters, and whitening survive."""
        ck = self._snapshot()
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), ck)
        back = load_checkpoint(str(path))
        assert back.spec == ck.spec
        assert back.epoch == 4 and back.step == 17
        for k in ck.params:
            np.testing.assert_array_equal(back.params[k], ck.params[k])
            np.testing.assert_array_equal(back.opt_state.m[k],
                                          ck.opt_state.m[k])
            np.testing.assert_array_equal(back.opt_state.v[k],
                                          ck.opt_state.v[k])
        assert back.opt_state.step == ck.opt_state.step
        np.testing.assert_array_equal(back.whitening.mean,
                                      ck.whitening.mean)

    def test_rng_resumes_identically(self, tmp_path):
        """A restored generator continues the original stream."""
        ck = self._snapshot()
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), ck)
        back = load_checkpoint(str(path))

        a = np.random.default_rng()
        a.bit_generator.state = ck.rng_state
        b = np.random.default_rng()
        b.bit_generator.state = back.rng_state
        np.testing.assert_array_equal(a.random(100), b.random(100))

    def test_optional_parts_may_be_absent(self, tmp_path):
        """Optimizer, RNG, and whitening are all optional."""
        spec = _tiny_spec()
        ck = Checkpoint(spec=spec, params=build(spec, seed=0))
        path = tmp_path / "bare.ckpt"
        save_checkpoint(str(path), ck)
        back = load_checkpoint(str(path))
        assert back.opt_state is None
        assert back.rng_state is None
        assert back.whitening is None

    def test_embedded_network_text_is_validated(self, tmp_path):
        """A checkpoint with mangled network text is a CheckpointError."""
        ck = self._snapshot()
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), ck)
        text, tensors = read_tensor_file(str(path))
        write_tensor_file(str(path), tensors,
                          text=text.replace("ebssc", "wavelet"))
        with pytest.raises(CheckpointError, match="network"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [np.arange(2, dtype=np.int64),
                                     np.float64(4.0)],
                             ids=["two_integers", "float"])
    def test_meta_counter_must_be_one_integer(self, tmp_path, bad):
        """A counter that is not a single integer is a CheckpointError."""
        ck = self._snapshot()
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), ck)
        text, tensors = read_tensor_file(str(path))
        tensors["meta.epoch"] = bad
        write_tensor_file(str(path), tensors, text=text)
        with pytest.raises(CheckpointError, match="meta.epoch"):
            load_checkpoint(str(path))

    def test_double_save_is_bitwise_stable(self, tmp_path):
        """Saving a loaded checkpoint reproduces the same file."""
        ck = self._snapshot()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), ck)
        save_checkpoint(str(p2), load_checkpoint(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()
