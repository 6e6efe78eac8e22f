"""Domain types, file round-trips and the package's exported names."""

import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_format_label_line, naive_read_label_file

import roadlidar
import roadlidar.evaluate
import roadlidar.pipeline
import roadlidar.simulate
from roadlidar.core import (
    LABEL_CLASSES,
    DataError,
    Frame,
    FrameBuffers,
    FrameSequence,
    LabelClass,
    LabelSet,
    LabelSource,
    ObjectLabel,
    SensorMeta,
    json_int,
    label_values,
    list_frame_files,
    load_frame_sequence,
    normalize_yaw_half,
    publish,
    read_labels,
    write_labels,
)

META = SensorMeta(4, 2)


def _write_bin(path, n_points, rng):
    pts = rng.uniform(-5, 5, (n_points, 3))
    FrameBuffers(n_points).write(path, pts)
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
        xyz, padding = FrameBuffers(6).read(tmp_path / "f.bin")
        assert xyz.dtype == np.float64
        np.testing.assert_array_equal(xyz, rec[:, :3])
        np.testing.assert_array_equal(padding, np.all(xyz == 0.0, axis=1))
        assert padding.tolist() == [True, True, True, False, False, False]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39], ids=["nan", "inf", "beyond-float32"])
    def test_non_finite_record_is_not_written(self, tmp_path, value):
        path = tmp_path / "f.bin"
        with pytest.raises(DataError, match="f.bin"):
            FrameBuffers(1).write(path, np.array([[1.0, value, 0.0]]))
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

    def test_listing_matches_sorted_glob(self, tmp_path):
        # dot-names, a bare ".bin", a directory and a broken link all match
        # "*.bin"; the match is case-sensitive and the suffix must end the name
        for name in ("b.bin", "a.bin", ".hidden.bin", ".bin", "B.bin", "c.BIN", "d.bin.bak", "ebin"):
            (tmp_path / name).write_bytes(b"")
        (tmp_path / "m.bin").mkdir()
        (tmp_path / "k.bin").symlink_to("missing")
        files = list_frame_files(tmp_path)
        assert files == sorted(tmp_path.glob("*.bin"))
        assert [file.name for file in files] == [".bin", ".hidden.bin", "B.bin", "a.bin", "b.bin", "k.bin", "m.bin"]
        for file in files:
            file.unlink() if not file.is_dir() else file.rmdir()
        with pytest.raises(DataError, match=f"^empty sequence: no .bin files in {re.escape(str(tmp_path))}$"):
            list_frame_files(tmp_path)

    def test_zero_rows_load_as_padding(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        FrameBuffers(3).write(tmp_path / "f.bin", pts)
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
        frame = Frame(1, *FrameBuffers(3).read(tmp_path / "f.bin"))
        dropped = frame.without(np.array([True, False, False]))
        assert dropped.padding.tolist() == [True, True, False]
        np.testing.assert_array_equal(dropped.xyz[dropped.padding], 0.0)

    def test_nan_rejected(self, tmp_path):
        rec = np.ones((2, 4), dtype="<f4")
        rec[1, 0] = np.nan
        (tmp_path / "f.bin").write_bytes(rec.tobytes())
        with pytest.raises(DataError, match="f.bin"):
            load_frame_sequence(tmp_path, SensorMeta(2, 1))

    def test_stem_count_must_match_frame_count(self):
        frame = Frame(1, np.ones((2, 3)), np.zeros(2, dtype=bool))
        with pytest.raises(DataError, match="stem count must match frame count"):
            FrameSequence([frame], SensorMeta(2, 1), ["a", "b"])



class TestFrameBuffers:
    """One codec reused across frames: no call sees what an earlier one left."""

    @staticmethod
    def _records(rng, n):
        rec = np.zeros((n, 4), dtype="<f4")
        rec[:, :3] = rng.uniform(-50, 50, (n, 3))
        rec[:, 3] = rng.uniform(0, 255, n)  # intensity, which is never written back
        rec[::4, :3] = 0.0
        return rec

    def test_reads_and_writes_match_the_fresh_functions(self, tmp_path):
        rng = np.random.default_rng(3)
        buffers = FrameBuffers(12)
        for k in range(3):
            src, out = tmp_path / f"{k}.bin", tmp_path / f"{k}.out"
            self._records(rng, 12).tofile(src)
            xyz, padding = buffers.read(src)
            fresh_xyz, fresh_padding = FrameBuffers(12).read(src)
            np.testing.assert_array_equal(xyz, fresh_xyz)
            np.testing.assert_array_equal(padding, fresh_padding)
            assert xyz.flags.f_contiguous
            buffers.write(out, xyz)
            FrameBuffers(12).write(tmp_path / "fresh.bin", fresh_xyz)
            assert out.read_bytes() == (tmp_path / "fresh.bin").read_bytes()
            rec = np.fromfile(out, dtype="<f4").reshape(-1, 4)
            assert not rec[:, 3].any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("failure", ["nan-read", "short-read", "inf-write", "beyond-float32-write"])
    def test_no_stale_contents_after_a_failed_call(self, tmp_path, failure):
        rng = np.random.default_rng(4)
        buffers = FrameBuffers(8)
        first, second = self._records(rng, 8), self._records(rng, 8)
        first.tofile(tmp_path / "first.bin")
        second.tofile(tmp_path / "second.bin")
        buffers.read(tmp_path / "first.bin")
        bad = tmp_path / "bad.bin"
        if failure.endswith("read"):
            rec = self._records(rng, 8)
            if failure == "nan-read":
                rec[5, 2] = np.nan
            else:
                rec = rec[:-1]
            rec.tofile(bad)
            with pytest.raises(DataError, match="bad.bin"):
                buffers.read(bad)
        else:
            xyz = first[:, :3].astype(np.float64)
            xyz[6, 2] = np.inf if failure == "inf-write" else 1e39  # the last column checked
            with pytest.raises(DataError, match="bad.bin"):
                buffers.write(bad, xyz)
            assert not bad.exists()
        xyz, padding = buffers.read(tmp_path / "second.bin")
        np.testing.assert_array_equal(xyz, second[:, :3])
        np.testing.assert_array_equal(padding, np.all(second[:, :3] == 0.0, axis=1))
        buffers.write(tmp_path / "out.bin", xyz)
        expected = second.copy()
        expected[:, 3] = 0.0
        assert (tmp_path / "out.bin").read_bytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [8 * 16 - 16, 8 * 16 + 1, 0])
    def test_wrong_length_names_both_byte_counts(self, tmp_path, size):
        (tmp_path / "f.bin").write_bytes(b"\x00" * size)
        with pytest.raises(DataError) as excinfo:
            FrameBuffers(8).read(tmp_path / "f.bin")
        assert str(excinfo.value) == (
            f"malformed frame file {tmp_path / 'f.bin'}: {size} bytes, but the sensor's "
            "8 beams take 128 (16 bytes each)"
        )



class TestJsonInt:
    @pytest.mark.parametrize("value", [3, 3.0, -2, 0, 10**30])
    def test_integral_numbers_are_ints(self, value):
        assert json_int(value, "n") == int(value)
        assert type(json_int(value, "n")) is int

    @pytest.mark.parametrize(
        "value", [True, False, 2.5, "3", float("nan"), float("inf"), None, [3]],
        ids=["true", "false", "fraction", "string", "nan", "inf", "null", "list"],
    )
    def test_anything_else_names_the_field(self, value):
        with pytest.raises(ValueError, match=re.escape(f"duration must be an integer, got {value!r}")):
            json_int(value, "duration")


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


def _read_label_file(path):
    """The labels of one file, read with the rest of its directory."""
    return read_labels(path.parent)[path.stem]


def _write_label_file(labels, path):
    """Write one file's labels, through the directory writer."""
    write_labels({path.stem: labels}, path.parent)


class TestLabelIO:
    def test_empty_list_creates_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        _write_label_file([], path)
        assert path.exists()
        assert path.read_bytes() == b""

    def test_vehicle_line_prefix(self, tmp_path):
        path = tmp_path / "f.txt"
        _write_label_file(
            [ObjectLabel(1, 2, 0.5, 4, 2, 1.5, 0.0, LabelClass.VEHICLE, 1.0)], path
        )
        assert path.read_text().startswith("Vehicle ")

    def test_round_trip_100_random_labels(self, tmp_path):
        rng = np.random.default_rng(42)
        labels = [_random_label(rng) for _ in range(100)]
        path = tmp_path / "f.txt"
        _write_label_file(labels, path)
        back = _read_label_file(path)
        assert len(back) == 100
        for a, b in zip(labels, back):
            assert b.label_class is a.label_class
            for name in ("center_x", "center_y", "center_z", "length", "width", "height", "yaw", "score"):
                assert abs(getattr(a, name) - getattr(b, name)) <= 5e-7, name

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        labels = [_random_label(rng) for _ in range(20)]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        _write_label_file(labels, p1)
        _write_label_file(_read_label_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_class(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("Car 0 0 0 1 1 1 0 1\n")
        with pytest.raises(DataError, match="unknown class 'Car'"):
            _read_label_file(path)

    def test_wrong_token_count_names_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("Vehicle 0 0 0 1 1 1 0 1\nVehicle 0 0 0 1 1 1 0\n")
        with pytest.raises(DataError, match=r"f\.txt:2"):
            _read_label_file(path)

    def test_unparsable_number_names_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("Vehicle 0 0 zero 1 1 1 0 1\n")
        with pytest.raises(DataError, match=r"f\.txt:1"):
            _read_label_file(path)

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
        _write_label_file([label], path)
        (back,) = _read_label_file(path)
        assert abs(back.yaw - yaw) <= 5e-7
        assert abs(back.score - score) <= 5e-7


# Spellings that ``float`` reads, with the value each reads as.
_SPELLED = (("-0.0", -0.0), ("0", 0.0), ("1", 1.0), ("1.0", 1.0), ("1_0", 10.0), ("1_000.5", 1000.5),
            ("1e300", 1e300), ("+2.5", 2.5), (".5", 0.5), ("5.", 5.0), ("1_0e-1", 1.0), ("1E2", 100.0),
            ("\u0661\u0662", 12.0))
_PARSE_FAULTS = {
    "fields": lambda rng, tokens: tokens[:-1] if rng.random() < 0.5 else tokens + ["0"],
    "class": lambda rng, tokens: [str(rng.choice(["Car", "vehicle", "PEDESTRIAN", "Vehicle,"]))] + tokens[1:],
    "number": lambda rng, tokens: _replace(rng, tokens, range(1, 9), ["zero", "1..0", "1__0", "0x10", "--1", "1e"]),
}
_VALUE_FAULTS = {
    "not finite": lambda rng, tokens: _replace(rng, tokens, range(1, 9), ["nan", "inf", "-Infinity", "1e999"]),
    "dimension": lambda rng, tokens: _replace(rng, tokens, range(4, 7), ["0", "-0.0", "-1.5"]),
    "order": lambda rng, tokens: tokens[:4] + ["0.5", "0.75"] + tokens[6:],
    "score": lambda rng, tokens: tokens[:8] + [str(rng.choice(["1.0000001", "-0.5", "2"]))],
}
_LINE_ENDS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028")
_BLANK_LINES = ("", " ", "\t ", "\x0c")


def _replace(rng, tokens, columns, spellings):
    tokens = list(tokens)
    tokens[int(rng.choice(list(columns)))] = str(rng.choice(spellings))
    return tokens


def _number(rng, low, high):
    """A spelling of a number in about [low, high], and its value."""
    pool = [(spelled, value) for spelled, value in _SPELLED if low <= value <= high]
    if pool and rng.random() < 0.3:
        return pool[int(rng.integers(len(pool)))]
    value = float(rng.uniform(low, min(high, low + 50.0)))
    spelled = repr(value) if rng.random() < 0.5 else f"{value:.6f}"
    return spelled, float(spelled)


def _label_tokens(rng):
    """The tokens of a label line that is most likely valid."""
    width, w = _number(rng, 0.01, 1e300)
    length = (width, w) if rng.random() < 0.3 else _number(rng, w, 1e300)
    return ([str(rng.choice(["Vehicle", "Pedestrian"]))]
            + [_number(rng, -1e300, 1e300)[0] for _ in range(3)]
            + [length[0], width, _number(rng, 0.01, 1e300)[0], _number(rng, -4.0, 4.0)[0], _number(rng, 0.0, 1.0)[0]])


def _label_directory(rng, directory):
    """Label files of a few lines each, a fault planted now and then.

    Returns each planted fault as (filename, line, kind), kind "parse",
    "value" or "unreadable" (line 0).
    """
    directory.mkdir()
    planted = []
    stems = ["000001", "000002", "a", "a-b", "a.b", "b", "B", "_c"]
    for stem in rng.choice(stems, size=int(rng.integers(1, 6)), replace=False).tolist():
        name = f"{stem}.txt"
        if rng.random() < 0.06:
            planted.append((name, 0, "unreadable"))
            if rng.random() < 0.5:
                (directory / name).mkdir()
            else:
                (directory / name).write_bytes(b"Vehicle 0 0 0 2 1 1 0 \xff1\n")
            continue
        lines = []
        for lineno in range(1, int(rng.integers(0, 9)) + 1):
            if rng.random() < 0.15:
                lines.append(str(rng.choice(_BLANK_LINES)))
                continue
            tokens = _label_tokens(rng)
            if rng.random() < 0.06:
                kind = str(rng.choice(list(_PARSE_FAULTS)))
                tokens = _PARSE_FAULTS[kind](rng, tokens)
                planted.append((name, lineno, "parse"))
            elif rng.random() < 0.06:
                kind = str(rng.choice(list(_VALUE_FAULTS)))
                tokens = _VALUE_FAULTS[kind](rng, tokens)
                planted.append((name, lineno, "value"))
            lines.append(" ".join(tokens))
        text = "".join(line + str(rng.choice(_LINE_ENDS)) for line in lines)
        (directory / name).write_bytes(text.encode("utf-8"))
    return sorted(planted)


class TestLabelSet:
    def test_matches_naive_reader(self, tmp_path):
        """Values bit for bit on valid files, and the first error in (file,
        line) order, whether it is a parse, a value or a read error."""
        rng = np.random.default_rng(25)
        seen = dict.fromkeys(("valid", "parse", "value", "unreadable", "value_before_parse",
                              "line_before_unreadable", "stems_not_in_file_order"), 0)
        for k in range(400):
            directory = tmp_path / f"d{k}"
            planted = _label_directory(rng, directory)
            files = sorted(directory.glob("*.txt"))
            try:
                expected = {file.stem: naive_read_label_file(file) for file in files}
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    LabelSet.read(directory)
                assert str(got.value) == str(exc)
                with pytest.raises(DataError) as got:
                    read_labels(directory)
                assert str(got.value) == str(exc)
                name, line, kind = planted[0]
                where = f"{directory / name}:{line}:" if line else f"cannot read label file {directory / name}:"
                if str(exc).startswith(where):
                    seen[kind] += 1
                    later = {later_kind for _, _, later_kind in planted[1:]}
                    seen["value_before_parse"] += kind == "value" and "parse" in later
                    seen["line_before_unreadable"] += kind != "unreadable" and "unreadable" in later
                continue
            seen["valid"] += 1
            stems = sorted(expected)
            seen["stems_not_in_file_order"] += [file.stem for file in files] != stems
            labels = [label for stem in stems for label in expected[stem]]
            table = LabelSet.read(directory)
            assert table.stems == tuple(stems)
            assert table.counts.tolist() == [len(expected[stem]) for stem in stems]
            assert [LABEL_CLASSES[code] for code in table.classes.tolist()] == [lb.label_class for lb in labels]
            assert table.values.tobytes() == label_values(labels).tobytes()
            read = read_labels(directory)
            assert list(read) == stems
            assert label_values([lb for stem in stems for lb in read[stem]]).tobytes() == table.values.tobytes()
            assert [lb.label_class for stem in stems for lb in read[stem]] == [lb.label_class for lb in labels]
        assert all(count >= 10 for count in seen.values()), repr(seen)

    def test_listing_matches_sorted_glob(self, tmp_path):
        for name in ("b.txt", "a.txt", ".hidden.txt", ".txt", "B.txt", "c.TXT", "d.txt.bak", "etxt"):
            (tmp_path / name).write_text("Vehicle 1 2 3 4 1 1 0 0.5\n", encoding="utf-8")
        files = sorted(tmp_path.glob("*.txt"))
        table = LabelSet.read(tmp_path)
        assert table.stems == tuple(file.stem for file in files) == (".hidden", ".txt", "B", "a", "b")
        assert table.counts.tolist() == [1] * 5
        # the first entry that cannot be read, in glob order, is the error
        (tmp_path / "m.txt").mkdir()
        (tmp_path / "k.txt").symlink_to("missing")
        with pytest.raises(DataError) as want:
            for file in sorted(tmp_path.glob("*.txt")):
                naive_read_label_file(file)
        with pytest.raises(DataError) as got:
            LabelSet.read(tmp_path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"cannot read label file {tmp_path / 'k.txt'}: ")
        (tmp_path / "k.txt").unlink()
        with pytest.raises(DataError) as got:
            LabelSet.read(tmp_path)
        assert str(got.value).startswith(f"cannot read label file {tmp_path / 'm.txt'}: ")

    @pytest.mark.parametrize("raw", [
        b"Vehicle 1 2 3 4 2 1 0 0.5\r\nPedestrian 1 2 3 1 1 2 0 0.5\r\n",
        b"Vehicle 1 2 3 4 2 1 0 0.5\r\n\r\nVehicle 1 2 3 4\r\n",
        b"Vehicle 1 2 3 4 2 1 0 0.5\rBus 1 2 3 4 2 1 0 0.5\r",
        b"\r\r\nVehicle 1 2 3 4 2 1 0 0.5\n\rVehicle 1 2 3 -4 2 1 0 0.5",
        b"Vehicle 1 2 3 4 2 1 0 0.5\r\nVehicle 1 2 3 4 2 1 0 \xff0.5\r\n",
        b"Vehicle 1 2 3 4 2 1 0 0.5\nVehicle 1 2 3 4 2 1 0 0.5\xe2\x80",
        b"\xef\xbb\xbfVehicle 1 2 3 4 2 1 0 0.5\n",
    ], ids=["crlf", "crlf-short-line", "lone-cr", "mixed-ends", "bad-utf8", "cut-utf8", "bom"])
    def test_line_ends_and_bad_utf8_read_as_text_mode_reads_them(self, tmp_path, raw):
        (tmp_path / "000001.txt").write_bytes(raw)
        try:
            want = naive_read_label_file(tmp_path / "000001.txt")  # text mode, universal newlines
        except DataError as exc:
            with pytest.raises(DataError) as got:
                LabelSet.read(tmp_path)
            assert str(got.value) == str(exc)
            return
        table = LabelSet.read(tmp_path)
        assert table.values.tobytes() == label_values(want).tobytes()
        assert table.counts.tolist() == [len(want)] == [2]

    def test_write_matches_naive_writer(self, tmp_path):
        rng = np.random.default_rng(26)
        by_stem = {f"{k:06d}": [_random_label(rng) for _ in range(rng.integers(0, 4))] for k in range(1, 30)}
        by_stem["000000"] = [  # a negative zero, a huge and a tiny value, and ints
            ObjectLabel(-0.0, 1e300, -1e-7, 2, 1, 1, -0.0, LabelClass.PEDESTRIAN, 0),
        ]
        write_labels(by_stem, tmp_path)
        assert sorted(path.stem for path in tmp_path.iterdir()) == sorted(by_stem)
        for stem, labels in by_stem.items():
            expected = "".join(naive_format_label_line(lb) + "\n" for lb in labels)
            assert (tmp_path / f"{stem}.txt").read_bytes() == expected.encode("utf-8")


def _paths(directory):
    """Every path under ``directory``, directories included, relative to it."""
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*"))


class TestPublish:
    def test_failed_block_removes_the_directories_it_created(self, tmp_path):
        (tmp_path / "kept").mkdir()
        targets = tmp_path / "fresh" / "nested" / "out.txt", tmp_path / "kept" / "new" / "labels"
        with pytest.raises(RuntimeError, match="block failed"), publish(*targets) as (text, labels):
            assert (tmp_path / "fresh" / "nested").is_dir()
            text.write_text("partial\n")
            labels.mkdir()
            (labels / "000000.txt").write_text("")
            raise RuntimeError("block failed")
        assert _paths(tmp_path) == ["kept"]

    def test_a_created_directory_that_another_output_filled_stays(self, tmp_path):
        with pytest.raises(RuntimeError), publish(tmp_path / "root" / "a" / "labels") as (labels,):
            labels.mkdir()
            (tmp_path / "root" / "b").mkdir()
            (tmp_path / "root" / "b" / "stats.json").write_text("{}\n")
            raise RuntimeError("block failed")
        assert _paths(tmp_path) == ["root", "root/b", "root/b/stats.json"]


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
            (evaluate.EvalReport, "record"), (roadlidar, "FittedBox"), (roadlidar.annotate, "FittedBox"),
            (roadlidar, "validate_bbox"), (roadlidar.annotate, "validate_bbox"),
            (roadlidar, "classify"), (roadlidar.annotate, "classify"),
            (roadlidar, "InternalError"), (roadlidar.core, "InternalError"),
            (roadlidar.core, "read_frame_file"), (roadlidar.core, "write_frame_file"),
            (roadlidar.core, "read_label_file"), (roadlidar.core, "format_label_line"),
            (roadlidar.core, "write_label_file"), (roadlidar.preprocess, "transform_label"),
            (roadlidar, "fit_bbox"), (roadlidar.annotate, "fit_bbox"), (roadlidar, "iou_3d"),
            (evaluate, "iou_3d"), (roadlidar.background, "background_mask"), (roadlidar.simulate, "read_mask"),
        ]:
            assert not hasattr(module, name), name
            assert name not in roadlidar.__all__, name
        assert "ap_defined" not in {f.name for f in dataclasses.fields(evaluate.MetricRecord)}
        assert not {"n_bin", "bin_width"} & {f.name for f in dataclasses.fields(roadlidar.DistanceHistogram)}

    def test_evaluate_names_the_submodule(self):
        import roadlidar.evaluate as ev

        assert isinstance(ev, types.ModuleType)
        assert callable(ev.evaluate_labels) and callable(ev.evaluate)
        assert "evaluate" not in roadlidar.__all__
