"""Tests for the durable sketch-file format."""

import pickle

import pytest

from repro.io import (
    SketchFileError,
    decode_frames,
    encode_sketch,
    inspect_sketch_file,
    load_sketch,
    save_sketch,
)
from repro.persistent import AttpChainMisraGries, AttpSampleHeavyHitter


def build_sketch():
    sketch = AttpChainMisraGries(eps=0.01)
    for index in range(2_000):
        sketch.update(index % 17, float(index))
    return sketch


class TestSaveLoad:
    def test_roundtrip_preserves_queries(self, tmp_path):
        sketch = build_sketch()
        path = tmp_path / "cmg.sketch"
        written = save_sketch(sketch, path)
        assert written == path.stat().st_size
        loaded = load_sketch(path)
        for t in (100.0, 1_000.0, 1_999.0):
            assert sketch.heavy_hitters_at(t, 0.05) == loaded.heavy_hitters_at(t, 0.05)

    def test_expected_class_accepts_match(self, tmp_path):
        path = tmp_path / "cmg.sketch"
        save_sketch(build_sketch(), path)
        loaded = load_sketch(path, expected_class=AttpChainMisraGries)
        assert loaded.estimate_now(0) > 0

    def test_expected_class_rejects_mismatch(self, tmp_path):
        path = tmp_path / "cmg.sketch"
        save_sketch(build_sketch(), path)
        with pytest.raises(SketchFileError, match="expected"):
            load_sketch(path, expected_class=AttpSampleHeavyHitter)

    def test_expected_class_as_string(self, tmp_path):
        path = tmp_path / "cmg.sketch"
        save_sketch(build_sketch(), path)
        loaded = load_sketch(
            path, expected_class="repro.persistent.heavy_hitters.AttpChainMisraGries"
        )
        assert loaded.count == 2_000

    def test_inspect_without_unpickle(self, tmp_path):
        path = tmp_path / "cmg.sketch"
        save_sketch(build_sketch(), path)
        meta = inspect_sketch_file(path)
        assert meta["class"].endswith("AttpChainMisraGries")
        assert meta["payload_bytes"] > 0


class TestCorruptionDetection:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sketch"
        path.write_bytes(b"NOTASKETCHFILE" + b"\x00" * 100)
        with pytest.raises(SketchFileError, match="magic"):
            load_sketch(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cmg.sketch"
        save_sketch(build_sketch(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SketchFileError):
            load_sketch(path)

    def test_flipped_payload_byte_rejected(self, tmp_path):
        path = tmp_path / "cmg.sketch"
        save_sketch(build_sketch(), path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SketchFileError, match="digest"):
            load_sketch(path)

    def test_raw_pickle_rejected(self, tmp_path):
        path = tmp_path / "raw.pkl"
        path.write_bytes(pickle.dumps(build_sketch()))
        with pytest.raises(SketchFileError):
            load_sketch(path)

    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "tiny"
        path.write_bytes(b"xy")
        with pytest.raises(SketchFileError, match="too short"):
            load_sketch(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "cmg.sketch"
        save_sketch(build_sketch(), path)
        assert not (tmp_path / "cmg.sketch.tmp").exists()


class TestFrameLog:
    """Back-to-back frames, as the durable store's sealed.log holds them."""

    def test_frames_decode_in_order(self):
        log = b"".join(encode_sketch([index, "x" * index]) for index in range(5))
        assert decode_frames(log) == [[index, "x" * index] for index in range(5)]
        assert decode_frames(b"") == []

    def test_damaged_frame_named_by_offset(self):
        first = encode_sketch([1])
        data = bytearray(first + encode_sketch([2, 3]))
        data[-1] ^= 0xFF
        with pytest.raises(SketchFileError, match=f"@{len(first)}.*digest"):
            decode_frames(bytes(data))

    def test_cut_frame_rejected(self):
        data = encode_sketch([1]) + encode_sketch([2])
        with pytest.raises(SketchFileError, match="length mismatch"):
            decode_frames(data[:-3])

    def test_class_pin_applies_to_every_frame(self):
        data = encode_sketch([1]) + encode_sketch((2,))
        with pytest.raises(SketchFileError, match="builtins.tuple"):
            decode_frames(data, expected_class=list)
