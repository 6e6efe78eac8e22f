"""Domain types, file round-trips and the package's exported names."""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadlidar
import roadlidar.evaluate
import roadlidar.pipeline
from roadlidar.core import (
    DataError,
    Frame,
    LabelClass,
    LabelSource,
    ObjectLabel,
    SensorMeta,
    load_frame_sequence,
    normalize_yaw_half,
    read_frame_file,
    read_label_file,
    read_labels,
    write_frame_file,
    write_label_file,
    write_labels,
)

META = SensorMeta(4, 2)


def _write_bin(path, n_points, rng):
    pts = rng.uniform(-5, 5, (n_points, 3))
    write_frame_file(path, pts)
    return pts


class TestFrameLoading:
    def test_three_files_give_three_frames(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("a", "b", "c"):
            _write_bin(tmp_path / f"{name}.bin", 8, rng)
        seq = load_frame_sequence(tmp_path, META)
        assert len(seq) == 3
        assert [f.timestamp_index for f in seq.frames] == [1, 2, 3]

    def test_32_bytes_is_two_points(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(b"\x00" * 32)
        seq = load_frame_sequence(tmp_path, SensorMeta(2, 1))
        assert seq.frames[0].n_points == 2

    def test_padding_treats_negative_zero_as_zero(self, tmp_path):
        rec = np.array([
            [0.0, 0.0, 0.0, 1.0],
            [-0.0, 0.0, -0.0, 0.0],
            [-0.0, -0.0, -0.0, 5.0],
            [-0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [1.0, 2.0, 3.0, 0.0],
        ], dtype="<f4")
        (tmp_path / "f.bin").write_bytes(rec.tobytes())
        xyz, padding = read_frame_file(tmp_path / "f.bin", 6)
        assert xyz.dtype == np.float64
        np.testing.assert_array_equal(xyz, rec[:, :3])
        np.testing.assert_array_equal(padding, np.all(xyz == 0.0, axis=1))
        assert padding.tolist() == [True, True, True, False, False, False]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39], ids=["nan", "inf", "beyond-float32"])
    def test_non_finite_record_is_not_written(self, tmp_path, value):
        path = tmp_path / "f.bin"
        with pytest.raises(DataError, match="f.bin"):
            write_frame_file(path, np.array([[1.0, value, 0.0]]))
        assert not path.exists()

    def test_misaligned_file_is_rejected(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(b"\x00" * 33)
        with pytest.raises(DataError, match="malformed frame file"):
            load_frame_sequence(tmp_path, META)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_frame_sequence(tmp_path / "nope", META)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataError, match="empty sequence"):
            load_frame_sequence(tmp_path, META)

    def test_filename_order_not_creation_order(self, tmp_path):
        rng = np.random.default_rng(1)
        second = _write_bin(tmp_path / "b.bin", 4, rng)
        first = _write_bin(tmp_path / "a.bin", 4, rng)
        seq = load_frame_sequence(tmp_path, SensorMeta(2, 2))
        np.testing.assert_allclose(seq.frames[0].xyz, first, atol=1e-6)
        np.testing.assert_allclose(seq.frames[1].xyz, second, atol=1e-6)
        assert seq.stems == ["a", "b"]

    def test_zero_rows_load_as_padding(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        write_frame_file(tmp_path / "f.bin", pts)
        seq = load_frame_sequence(tmp_path, SensorMeta(3, 1))
        assert list(seq.frames[0].padding) == [False, True, False]

    def test_intensity_discarded(self, tmp_path):
        rec = np.array([[1, 2, 3, 99.5]], dtype="<f4")
        (tmp_path / "f.bin").write_bytes(rec.tobytes())
        seq = load_frame_sequence(tmp_path, SensorMeta(1, 1))
        np.testing.assert_allclose(seq.frames[0].xyz, [[1, 2, 3]])


class TestFrameInvariants:
    """Checked once, where a frame file is read; the stages keep them true."""

    def test_padding_must_be_zero(self, tmp_path):
        rec = np.array([[1.0, 2.0, 3.0, 0.0], [0.0, -0.0, 0.0, 4.0], [5.0, 6.0, 7.0, 0.0]], dtype="<f4")
        (tmp_path / "f.bin").write_bytes(rec.tobytes())
        frame = Frame(1, *read_frame_file(tmp_path / "f.bin", 3))
        dropped = frame.without(np.array([True, False, False]))
        assert dropped.padding.tolist() == [True, True, False]
        np.testing.assert_array_equal(dropped.xyz[dropped.padding], 0.0)

    def test_nan_rejected(self, tmp_path):
        rec = np.ones((2, 4), dtype="<f4")
        rec[1, 0] = np.nan
        (tmp_path / "f.bin").write_bytes(rec.tobytes())
        with pytest.raises(DataError, match="f.bin"):
            load_frame_sequence(tmp_path, SensorMeta(2, 1))


def _random_label(rng) -> ObjectLabel:
    width = rng.uniform(0.1, 3.0)
    length = width + rng.uniform(0.0, 4.0)
    return ObjectLabel(
        center_x=rng.uniform(-80, 80),
        center_y=rng.uniform(-80, 80),
        center_z=rng.uniform(-3, 3),
        length=length,
        width=width,
        height=rng.uniform(0.1, 4.0),
        yaw=rng.uniform(-math.pi, math.pi - 1e-6),
        label_class=LabelClass.VEHICLE if rng.random() < 0.5 else LabelClass.PEDESTRIAN,
        score=rng.uniform(0, 1),
    )


class TestLabelIO:
    def test_empty_list_creates_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        write_label_file([], path)
        assert path.exists()
        assert path.read_bytes() == b""

    def test_vehicle_line_prefix(self, tmp_path):
        path = tmp_path / "f.txt"
        write_label_file(
            [ObjectLabel(1, 2, 0.5, 4, 2, 1.5, 0.0, LabelClass.VEHICLE, 1.0)], path
        )
        assert path.read_text().startswith("Vehicle ")

    def test_round_trip_100_random_labels(self, tmp_path):
        rng = np.random.default_rng(42)
        labels = [_random_label(rng) for _ in range(100)]
        path = tmp_path / "f.txt"
        write_label_file(labels, path)
        back = read_label_file(path)
        assert len(back) == 100
        for a, b in zip(labels, back):
            assert b.label_class is a.label_class
            for name in ("center_x", "center_y", "center_z", "length", "width", "height", "yaw", "score"):
                assert abs(getattr(a, name) - getattr(b, name)) <= 5e-7, name

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        labels = [_random_label(rng) for _ in range(20)]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_label_file(labels, p1)
        write_label_file(read_label_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_class(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("Car 0 0 0 1 1 1 0 1\n")
        with pytest.raises(DataError, match="unknown class 'Car'"):
            read_label_file(path)

    def test_wrong_token_count_names_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("Vehicle 0 0 0 1 1 1 0 1\nVehicle 0 0 0 1 1 1 0\n")
        with pytest.raises(DataError, match=r"f\.txt:2"):
            read_label_file(path)

    def test_unparsable_number_names_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("Vehicle 0 0 zero 1 1 1 0 1\n")
        with pytest.raises(DataError, match=r"f\.txt:1"):
            read_label_file(path)

    def test_directory_round_trip_and_source(self, tmp_path):
        rng = np.random.default_rng(3)
        by_stem = {"000001": [_random_label(rng)], "000002": []}
        write_labels(by_stem, tmp_path / "labels")
        teacher = read_labels(tmp_path / "labels")
        external = read_labels(tmp_path / "labels", source=LabelSource.EXTERNAL)
        assert set(teacher) == {"000001", "000002"}
        assert teacher["000001"][0].source is LabelSource.TEACHER
        assert external["000001"][0].source is LabelSource.EXTERNAL

    @given(
        yaw=st.floats(-math.pi, math.pi - 1e-9),
        size=st.floats(0.05, 10),
        score=st.floats(0, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_single_label_field_round_trip(self, tmp_path_factory, yaw, size, score):
        label = ObjectLabel(0.0, 0.0, 0.0, size + 1.0, size, size, yaw, LabelClass.PEDESTRIAN, score)
        path = tmp_path_factory.mktemp("lbl") / "f.txt"
        write_label_file([label], path)
        (back,) = read_label_file(path)
        assert abs(back.yaw - yaw) <= 5e-7
        assert abs(back.score - score) <= 5e-7


class TestLabelValidation:
    def test_length_width_order_enforced(self):
        with pytest.raises(DataError, match="length"):
            ObjectLabel(0, 0, 0, 1.0, 2.0, 1.0, 0.0, LabelClass.VEHICLE, 1.0)

    def test_score_range(self):
        with pytest.raises(DataError, match="score"):
            ObjectLabel(0, 0, 0, 2.0, 1.0, 1.0, 0.0, LabelClass.VEHICLE, 1.5)

    def test_positive_dims(self):
        with pytest.raises(DataError):
            ObjectLabel(0, 0, 0, 2.0, -1.0, 1.0, 0.0, LabelClass.VEHICLE, 1.0)


class TestYawNormalization:
    @given(st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_half_interval(self, yaw):
        n = normalize_yaw_half(yaw)
        assert -math.pi / 2 <= n < math.pi / 2
        # equivalent heading mod pi: sin vanishes at every multiple of pi
        assert abs(math.sin(n - yaw)) < 1e-9


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        assert len(set(roadlidar.__all__)) == len(roadlidar.__all__)
        assert [name for name in roadlidar.__all__ if not hasattr(roadlidar, name)] == []

    def test_deleted_names_stay_deleted(self):
        evaluate, pipeline = roadlidar.evaluate, roadlidar.pipeline
        for module, name in [
            (roadlidar, "Matching"), (roadlidar, "match_detections"), (roadlidar, "TeacherRunResult"),
            (evaluate, "Matching"), (evaluate, "match_detections"), (pipeline, "TeacherRunResult"),
            (evaluate.EvalReport, "record"), (roadlidar.FittedBox, "base_length"),
        ]:
            assert not hasattr(module, name), name
            assert name not in roadlidar.__all__, name
        assert "ap_defined" not in {f.name for f in dataclasses.fields(evaluate.MetricRecord)}

    def test_evaluate_names_the_submodule(self):
        import roadlidar.evaluate as ev

        assert isinstance(ev, types.ModuleType)
        assert callable(ev.evaluate_labels) and callable(ev.evaluate)
        assert "evaluate" not in roadlidar.__all__
