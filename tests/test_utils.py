"""Tests for repro.utils: seeding and validation."""

import json

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import check_finite, check_fraction, check_positive, check_shape


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(7).random(5)
        b = as_generator(7).random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(as_generator(1).random(5), as_generator(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_spawn_count(self):
        assert len(spawn_generators(0, 4)) == 4

    def test_spawn_zero(self):
        assert spawn_generators(0, 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_children_are_independent(self):
        a, b = spawn_generators(0, 2)
        assert not np.allclose(a.random(10), b.random(10))

    def test_spawn_is_deterministic(self):
        a = spawn_generators(3, 2)[0].random(4)
        b = spawn_generators(3, 2)[0].random(4)
        assert np.allclose(a, b)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive(1.5, "x") == 1.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0.0, "x")

    def test_check_positive_nonstrict_accepts_zero(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_check_fraction_bounds(self):
        assert check_fraction(0.0, "f") == 0.0
        assert check_fraction(1.0, "f") == 1.0
        with pytest.raises(ValueError):
            check_fraction(1.01, "f")
        with pytest.raises(ValueError):
            check_fraction(-0.01, "f")

    def test_check_shape_wildcard(self):
        arr = np.zeros((3, 4))
        check_shape(arr, (None, 4), "a")
        with pytest.raises(ValueError):
            check_shape(arr, (None, 5), "a")
        with pytest.raises(ValueError):
            check_shape(arr, (3, 4, 1), "a")

    def test_check_finite(self):
        check_finite(np.ones(3), "a")
        with pytest.raises(ValueError):
            check_finite(np.array([1.0, np.nan]), "a")
        with pytest.raises(ValueError):
            check_finite(np.array([np.inf]), "a")


class TestCodecRegistry:
    def test_reregistering_the_same_class_is_idempotent(self):
        from repro.core.types import StreamItem
        from repro.utils.codec import register_result_type

        assert register_result_type(StreamItem) is StreamItem

    def test_name_collision_with_a_different_class_is_rejected(self):
        from dataclasses import dataclass

        from repro.utils.codec import register_result_type

        @dataclass
        class StreamItem:  # collides with the registered core type
            y: int = 0

        with pytest.raises(ValueError, match="StreamItem"):
            register_result_type(StreamItem)


class TestCodecArrays:
    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (0, 0), (2, 0, 4)])
    def test_empty_array_round_trips_with_its_shape(self, shape):
        from repro.utils.codec import from_jsonable, to_jsonable

        for dtype in (np.float64, np.int64, bool):
            array = np.zeros(shape, dtype=dtype)
            back = from_jsonable(json.loads(json.dumps(to_jsonable(array))))
            assert back.shape == shape and back.dtype == array.dtype

    def test_shape_is_written_only_when_tolist_cannot_imply_it(self):
        from repro.utils.codec import to_jsonable

        for array in (np.zeros(0), np.array(1.5), np.zeros((2, 3)), np.ones((1, 1, 1))):
            assert "shape" not in to_jsonable(array)["__ndarray__"], array.shape
        for array in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((2, 0, 4))):
            assert to_jsonable(array)["__ndarray__"]["shape"] == list(array.shape)


class TestAtomicWriteJson:
    def test_rename_target_is_always_complete_json(self, tmp_path):
        import json

        from repro.utils.io import atomic_write_json

        path = str(tmp_path / "out.json")
        atomic_write_json({"a": 1}, path)
        assert json.load(open(path)) == {"a": 1}
        # overwrite: a crash mid-write must never leave a torn file at
        # `path` — the new content lands via rename only
        atomic_write_json({"b": [1, 2, 3]}, path)
        assert json.load(open(path)) == {"b": [1, 2, 3]}
        assert list(tmp_path.iterdir()) == [tmp_path / "out.json"]  # no tmp debris

    def test_data_is_fsynced_before_rename(self, tmp_path, monkeypatch):
        """Satellite fix: flush + fsync the temp file, then fsync the
        directory after the rename — a crash right after return cannot
        lose the write."""
        import os

        from repro.utils import io as io_mod

        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace", lambda a, b: (events.append("replace"), real_replace(a, b))[1]
        )
        io_mod.atomic_write_json({"x": 1}, str(tmp_path / "out.json"))
        # file fsync strictly before the rename; directory fsync after
        assert events[:2] == ["fsync", "replace"]
        if os.name == "posix":
            assert events == ["fsync", "replace", "fsync"]

    def test_failed_write_leaves_existing_file_intact(self, tmp_path):
        import json

        from repro.utils.io import atomic_write_json

        path = str(tmp_path / "out.json")
        atomic_write_json({"keep": True}, path)
        with pytest.raises(TypeError):
            atomic_write_json({"bad": object()}, path)  # not JSON-serializable
        assert json.load(open(path)) == {"keep": True}  # old content survives
        assert list(tmp_path.iterdir()) == [tmp_path / "out.json"]  # tmp removed


class TestFraming:
    def test_registered_dataclasses_round_trip_bit_exact(self):
        from repro.core.types import AssertionRecord
        from repro.utils.codec import from_jsonable
        from repro.utils.framing import decode_frame, encode_frame

        record = AssertionRecord("a", 3, 0.1 + 0.2, context="s1")
        line = encode_frame({"op": "x", "record": record})
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        doc = decode_frame(line)
        # decode is json-only: the codec tag survives for the caller
        restored = from_jsonable(doc["record"])
        assert restored == record
        assert restored.severity == 0.1 + 0.2  # floats bit-exact

    def test_already_encoded_payloads_pass_through_unchanged(self):
        from repro.utils.framing import decode_frame, encode_frame

        # e.g. a service snapshot travelling inside a frame: stored in
        # codec-encoded form, must round-trip untouched
        payload = {"__dataclass__": "Whatever", "fields": {"x": 1}}
        assert decode_frame(encode_frame({"snapshot": payload}))["snapshot"] == payload

    def test_oversize_and_malformed_frames_raise_frame_error(self):
        from repro.utils.framing import FrameError, decode_frame, encode_frame

        with pytest.raises(FrameError, match="exceeds"):
            decode_frame(b'"' + b"x" * 64 + b'"', max_bytes=32)
        with pytest.raises(FrameError, match="not a JSON frame"):
            decode_frame(b"{truncated")
        with pytest.raises(FrameError, match="not a JSON frame"):
            decode_frame(b"\xff\xfe")
        with pytest.raises(FrameError, match="not codec-encodable"):
            encode_frame({"x": object()})
