"""Checkpoint format tests: round trips, determinism, corruption handling."""

import contextlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

from cascadeprune.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def sample_state():
    rng = np.random.default_rng(0)
    tensors = {
        "shared.conv1.w": rng.normal(size=(3, 3, 2, 4)).astype(np.float32),
        "slot0.scores.0": rng.normal(size=6),
        "slot0.mask.0": np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8),
        "counter": np.array(42, dtype=np.int64),
    }
    meta = {"epoch": 3, "stage": "joint", "keep_ratios": [0.3, 0.72, 1.0],
            "arch": "toy"}
    return tensors, meta


class TestRoundTrip:
    def test_bitwise_equality(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        tensors, meta = sample_state()
        save_checkpoint(path, tensors, meta)
        got_t, got_m = load_checkpoint(path)
        assert set(got_t) == set(tensors)
        for name, arr in tensors.items():
            assert got_t[name].dtype == arr.dtype, name
            assert got_t[name].shape == arr.shape, name
            assert np.array_equal(got_t[name], arr), name
        assert got_m == meta

    def test_empty_table(self, tmp_path):
        path = str(tmp_path / "empty.ckpt")
        save_checkpoint(path, {}, {"note": "nothing"})
        tensors, meta = load_checkpoint(path)
        assert tensors == {} and meta == {"note": "nothing"}

    def test_scalar_rank_zero(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        save_checkpoint(path, {"x": np.float64(2.5)}, {})
        got, _ = load_checkpoint(path)
        assert got["x"].shape == () and got["x"] == 2.5

    def test_deterministic_bytes_regardless_of_insert_order(self, tmp_path):
        tensors, meta = sample_state()
        reordered = dict(reversed(list(tensors.items())))
        save_checkpoint(str(tmp_path / "a.ckpt"), tensors, meta)
        save_checkpoint(str(tmp_path / "b.ckpt"), reordered,
                        dict(reversed(list(meta.items()))))
        assert (tmp_path / "a.ckpt").read_bytes() \
            == (tmp_path / "b.ckpt").read_bytes()

    def test_overwrite_and_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        save_checkpoint(path, {"x": np.zeros(2, np.float32)}, {"v": 1})
        save_checkpoint(path, {"x": np.ones(2, np.float32)}, {"v": 2})
        got, meta = load_checkpoint(path)
        assert got["x"].tolist() == [1.0, 1.0] and meta == {"v": 2}
        assert os.listdir(tmp_path) == ["state.ckpt"]

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        save_checkpoint(path, {"x": np.arange(3, dtype=np.float64)}, {})
        got, _ = load_checkpoint(path)
        got["x"][0] = 99.0
        assert got["x"][0] == 99.0


MiB = 1 << 20


@contextlib.contextmanager
def traced_peak():
    """A list that holds, once the block exits, the peak of the memory
    traced in it."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


class TestStreaming:
    """A save writes each tensor from its own array and a load reads each
    into its own: neither holds the file or a second copy of a tensor."""

    @staticmethod
    def saved(tmp_path):
        rng = np.random.default_rng(1)
        tensors = {f"t{i}": rng.random(MiB // 4).astype(np.float32)
                   for i in range(8)}
        path = str(tmp_path / "big.ckpt")
        with traced_peak() as peak:
            save_checkpoint(path, tensors, {"n": 8})
        return tensors, path, peak[0]

    def test_save_holds_no_copy_of_the_table(self, tmp_path):
        _, path, peak = self.saved(tmp_path)
        assert os.path.getsize(path) > 8 * MiB
        assert peak < 3 * MiB

    def test_load_holds_each_tensor_once(self, tmp_path):
        tensors, path, _ = self.saved(tmp_path)
        with traced_peak() as peak:
            got, meta = load_checkpoint(path)
        assert peak[0] < 1.25 * os.path.getsize(path)
        assert meta == {"n": 8}
        for name, arr in tensors.items():
            assert got[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("shape", [(1 << 20, 1 << 10), (1 << 31, 1 << 31, 4)])
    def test_extents_past_the_end_are_truncation_before_any_allocation(
            self, tmp_path, shape):
        """A header promising more values than the file holds, 4 GiB or
        2**66 bytes (whose extents' int64 product wraps to 0), fails as
        truncated without allocating them."""
        path = tmp_path / "huge.ckpt"
        path.write_bytes(MAGIC + struct.pack("<III", VERSION, 1, 1) + b"x"
                         + struct.pack(f"<BB{len(shape)}I", 0, len(shape), *shape)
                         + bytes(64))
        with traced_peak() as peak, pytest.raises(
                CheckpointError, match="truncated while reading x: values"):
            load_checkpoint(str(path))
        assert peak[0] < MiB


class TestHeaderBytes:
    def test_magic_and_version_prefix(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(str(path), {}, {})
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        assert int.from_bytes(raw[8:12], "little") == VERSION

    def test_values_little_endian(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(str(path), {"x": np.array([1.0], dtype=np.float32)}, {})
        raw = path.read_bytes()
        # count(4) at 12, name_len(4)+name(1), tag+rank(2), one extent(4)
        assert raw[12:16] == (1).to_bytes(4, "little")
        assert raw[23:27] == (1).to_bytes(4, "little")
        assert raw[27:31] == np.float32(1.0).tobytes()  # 0x0000803f


class TestCorruption:
    def _saved(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        save_checkpoint(path, *sample_state())
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(open(path, "rb").read())
        raw[8] = 99
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError,
                           match=f"version 99, this build reads version "
                                 f"{VERSION}"):
            load_checkpoint(path)

    def test_truncated_values(self, tmp_path):
        path = self._saved(tmp_path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = self._saved(tmp_path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_oversized_name_length_is_clean_error(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        save_checkpoint(path, {"x": np.zeros(1, np.float32)}, {})
        raw = bytearray(open(path, "rb").read())
        raw[16:20] = (2 ** 31).to_bytes(4, "little")  # first entry name length
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(path)

    def test_unsupported_dtype_on_save(self, tmp_path):
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            save_checkpoint(str(tmp_path / "s.ckpt"),
                            {"m": np.zeros(2, dtype=bool)}, {})
