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


def _one_nan(shape):
    arr = np.zeros(shape, np.float32)
    arr.flat[arr.size // 2] = np.nan
    return arr


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

    @pytest.mark.parametrize("old, new", [
        ("block2 = ebssc kernel=4x6x3x3 pad=1 stride=1 beta=0.1", "block2 ="),
        ("kernel=4x6x3x3", "kernel=0x6x3x3"),
        ("kernel=3x1x3x3 pad=1", "kernel=3x1x3x3 pad=-1"),
        ("maxpool kernel=2", "maxpool kernel=0"),
        ("maxpool kernel=2 pad=0", "maxpool kernel=2 pad=2"),
        ("num_classes = 2", "num_classes = 0"),
        ("input = 1x6x6", "input = 0x6x6"),
        ("= ssc kernel=3x1x3x3", "= ebssc kernel=3x1x3x3")],
        ids=["empty_block", "zero_kernel", "negative_conv_pad",
             "zero_pool_window", "pool_pad_beyond_window", "zero_classes",
             "zero_input", "ebssc_below_energy_head"])
    def test_unusable_network_text_is_refused(self, tmp_path, old, new):
        """Network text that parses but describes no runnable network
        (an empty block line, a kernel dimension or class count below 1,
        negative conv padding, pool padding outside [0, window), an empty
        input, an ebssc block below the energy head's index) is a
        CheckpointError at load, not a numpy failure at the first forward
        pass or a score that counts blocks the head leaves out."""
        spec = NetworkSpec(
            blocks=(BlockSpec("ssc", (3, 1, 3, 3), pad=1, beta=0.1),
                    BlockSpec("maxpool", (2,), stride=2),
                    BlockSpec("ebssc", (4, 6, 3, 3), pad=1, beta=0.1)),
            classifier=("energy", 2), num_classes=2, input_shape=(1, 6, 6))
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), Checkpoint(spec=spec,
                                              params=build(spec, seed=0)))
        text, tensors = read_tensor_file(str(path))
        assert old in text
        write_tensor_file(str(path), tensors, text=text.replace(old, new))
        with pytest.raises(CheckpointError, match="network"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name, arr", [
        ("param.block0.offset", None),
        ("param.block2.w_plus", np.full((1, 24, 14, 14), 0.01, np.float32)),
        ("param.block3.bank", np.zeros((2, 24, 1, 1), np.float32)),
        ("param.block0.bank", np.zeros((12, 1, 5, 5), np.int64)),
        ("param.block0.bank", _one_nan((12, 1, 5, 5)))],
        ids=["missing_offset", "one_class_arms", "unknown_name",
             "integer_bank", "nan_bank"])
    def test_parameters_must_fit_the_network(self, tmp_path, name, arr):
        """Parameters that are not the finite floating arrays, with the
        names and shapes, that ``build`` gives the embedded network are
        refused at load: a missing offset would fail the first forward
        pass with a KeyError, one class's arms would broadcast over every
        class and score as if the model had ten, and one NaN in a bank
        makes every score NaN, which evaluation reads as class 0."""
        spec = variant_spec("digits_ssc_ebc2")
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), Checkpoint(spec=spec,
                                              params=build(spec, seed=0)))
        text, tensors = read_tensor_file(str(path))
        if arr is None:
            del tensors[name]
        else:
            tensors[name] = arr
        write_tensor_file(str(path), tensors, text=text)
        with pytest.raises(CheckpointError, match="parameter"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name, arr", [
        ("adam.m.block2.w_plus", np.zeros((1, 24, 14, 14), np.float32)),
        ("adam.v.block0.bank", np.zeros((12, 1, 5, 5), np.int64)),
        ("adam.m.block0.bank", _one_nan((12, 1, 5, 5))),
        ("adam.v.block2.offset", np.full(24, np.inf, np.float32))],
        ids=["one_class_moment", "integer_moment", "nan_moment",
             "inf_moment"])
    def test_optimizer_moments_must_fit_their_parameters(self, tmp_path,
                                                         name, arr):
        """An optimizer moment whose shape is not its parameter's, whose
        dtype is not floating, or that holds a non-finite value is refused
        at load: ``adam_step`` would broadcast one class's moment over
        every class, and a NaN moment turns its parameter NaN at the next
        step."""
        spec = variant_spec("digits_ssc_ebc2")
        params = build(spec, seed=0)
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), Checkpoint(
            spec=spec, params=params,
            opt_state=OptimizerState.init_like(params)))
        text, tensors = read_tensor_file(str(path))
        tensors[name] = arr
        write_tensor_file(str(path), tensors, text=text)
        with pytest.raises(CheckpointError, match="optimizer moment"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name, arr", [
        ("whiten.mean", np.full(3, np.nan)),
        ("whiten.matrix", np.zeros((2, 5))),
        ("whiten.mean", _one_nan((36,))),
        ("whiten.matrix", np.eye(36, dtype=np.int64))],
        ids=["short_mean", "misshapen_matrix", "nan_mean",
             "integer_matrix"])
    def test_whitening_must_fit_the_input(self, tmp_path, name, arr):
        """A whitening mean that is not a finite floating (D,) array, or a
        matrix that is not (D, D), with D = C*H*W of the network input, is
        refused at load: whitening an image with it would raise a numpy
        broadcast error, or blame the input for the checkpoint's NaN."""
        ck = self._snapshot()
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), ck)
        text, tensors = read_tensor_file(str(path))
        tensors[name] = arr
        write_tensor_file(str(path), tensors, text=text)
        with pytest.raises(CheckpointError, match="whitening"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("old, new", [
        ("param.block0.bank", "parm.block0.bank"), (None, "notes")],
        ids=["misspelled_prefix", "extra_tensor"])
    def test_unknown_tensor_is_refused(self, tmp_path, old, new):
        """A tensor name that is no part of a checkpoint is refused at
        load, by name, rather than dropped."""
        ck = self._snapshot()
        path = tmp_path / "run.ckpt"
        save_checkpoint(str(path), ck)
        text, tensors = read_tensor_file(str(path))
        tensors[new] = tensors.pop(old) if old else np.zeros(3)
        write_tensor_file(str(path), tensors, text=text)
        with pytest.raises(CheckpointError, match=repr(new)):
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
