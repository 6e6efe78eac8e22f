"""Teacher orchestration, superset merging, the iteration loop and the CLI."""

import dataclasses
import json
import logging
import multiprocessing
import os
import re
import shutil
import tracemalloc
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from oracles import naive_format_label_line, naive_merge_frames, naive_transform_label

from roadlidar import cli, pipeline
from roadlidar.annotate import annotate_frame
from roadlidar.background import (
    BackgroundModel,
    build_histogram,
    extract_query_frames,
    filter_frame,
    load_background_model,
    save_background_model,
    select_background,
)
from roadlidar.cli import build_parser, main
from roadlidar.clustering import dbscan
from roadlidar.core import (
    ConfigError,
    CropBounds,
    FrameSequence,
    LabelClass,
    LabelSource,
    ObjectLabel,
    SensorMeta,
    TeacherConfig,
    load_frame_sequence,
    read_labels,
    write_labels,
)
from roadlidar.pipeline import (
    DatasetEntry,
    MergeInput,
    PipelineConfig,
    iterate,
    merge_supersets,
    parse_pipeline_config,
    run_annotate,
    run_teacher,
)
from roadlidar.preprocess import UnificationTransform, crop_frame, unify_units
from roadlidar.simulate import (
    Actor,
    BoxObstacle,
    GroundPlane,
    SceneSpec,
    SensorModel,
    scene_from_dict,
    write_scene_outputs,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _mini_scene(seed=11, duration=30):
    sensor = SensorModel(
        origin=(0, 0, 3.0), azimuth_deg=(-24, 24), azimuth_count=120,
        elevation_deg=(-22, -3), elevation_count=80,
        range_noise_sigma=0.01, max_range=60.0,
    )
    return SceneSpec(
        sensor=sensor,
        static=[GroundPlane(0.0), BoxObstacle((28.0, 0.0, 3.0), (1.0, 36.0, 6.0))],
        actors=[
            Actor(
                shape="cuboid", dims=(3.8, 1.7, 1.5), speed=2.0, start_time=1.2,
                waypoints=((14.0, -3.5), (14.0, 4.0)),
            )
        ],
        duration=duration,
        seed=seed,
    )


_run_teacher = pipeline.run_teacher


def _kill_worker_on_b(entry, output_root):
    """``run_teacher``, except that the process given dataset ``b`` dies at once."""
    if entry.name == "b":
        os._exit(1)
    return _run_teacher(entry, output_root)


def _teacher_cfg(n_total, d_threshold=0.2, n_query=10):
    return TeacherConfig(
        n_total=n_total, n_query=n_query, n_bin=10, n_tall=3, d_threshold=d_threshold,
        epsilon=0.7, min_pts=5, l_min=0.3, h_min=0.5, beta_min=0.2,
        crop=CropBounds(0, 40, -25, 25, -1, 8),
    )


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    spec = _mini_scene()
    write_scene_outputs(spec, out)
    return out, spec


def _entry(scene, name="site_a", d_threshold=0.2):
    out, spec = scene
    meta = SensorMeta(spec.sensor.azimuth_count, spec.sensor.elevation_count)
    return DatasetEntry(
        name=name,
        frames_dir=out / "frames",
        meta=meta,
        teacher=_teacher_cfg(spec.sensor.beam_count, d_threshold),
    )


def _composed_teacher(entry, out_dir):
    """The teacher as the public stages compose it, with the whole sequence in
    memory: the reference the streamed ``run_teacher`` matches byte for byte.
    Writes the same four outputs under ``out_dir``."""
    cfg = entry.teacher
    seq = unify_units(load_frame_sequence(entry.frames_dir, entry.meta))
    seq = FrameSequence([crop_frame(f, cfg.crop) for f in seq.frames], seq.meta, seq.stems)
    if entry.background_model_in is not None:
        model = load_background_model(entry.background_model_in)
    else:
        hist = build_histogram(extract_query_frames(seq, cfg.n_query), cfg.n_bin)
        model = select_background(hist, cfg.n_tall)
    rejects, labels = [], {}
    points_data = points_removed = clusters_found = noise_points = 0
    for frame, stem in zip(seq.frames, seq.stems):
        filtered = filter_frame(frame, model, cfg.d_threshold)
        clusters, noise = dbscan(filtered, cfg.epsilon, cfg.min_pts)
        labels[stem] = annotate_frame(filtered, clusters, cfg, reject_sink=rejects.append)
        points_data += frame.n_data_points
        points_removed += frame.n_data_points - filtered.n_data_points
        clusters_found += len(clusters)
        noise_points += len(noise)
    stats = {
        "dataset": entry.name, "frames": len(seq), "points_data": points_data,
        "points_removed": points_removed,
        "points_removed_pct": round(100.0 * points_removed / points_data, 4),
        "clusters_found": clusters_found, "noise_points": noise_points,
        "boxes_rejected": len(rejects), "labels_written": sum(map(len, labels.values())),
    }
    write_labels(labels, out_dir / "labels")
    (out_dir / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    (out_dir / "rejects.log").write_text("".join(r.format_line() + "\n" for r in rejects))
    save_background_model(model, out_dir / "background.model")



class TestRunTeacher:
    def test_labels_stats_and_artifacts(self, scene_dir, tmp_path):
        stats = run_teacher(_entry(scene_dir), tmp_path)
        out, spec = scene_dir
        labels = read_labels(tmp_path / "site_a" / "labels")
        assert len(labels) == spec.duration  # one file per frame
        assert stats == json.loads((tmp_path / "site_a" / "stats.json").read_text())
        assert stats["frames"] == spec.duration
        assert stats["points_removed_pct"] > 50
        assert stats["labels_written"] > 0
        assert (tmp_path / "site_a" / "background.model").exists()
        assert (tmp_path / "site_a" / "stats.json").exists()
        assert (tmp_path / "site_a" / "rejects.log").exists()
        # vehicle-shaped actor comes out as Vehicle in the moving frames
        tagged = [lb for labs in labels.values() for lb in labs]
        assert tagged
        assert all(lb.label_class is LabelClass.VEHICLE for lb in tagged)

    @staticmethod
    def _tall_h_min(scene_dir):
        """An entry whose h_min rejects the 1.5 m tall vehicle: other labels and rejects."""
        entry = _entry(scene_dir)
        return dataclasses.replace(entry, teacher=dataclasses.replace(entry.teacher, h_min=2.0))

    def test_interrupted_stats_write_keeps_previous_stats(self, scene_dir, tmp_path, monkeypatch):
        run_teacher(_entry(scene_dir), tmp_path)
        before = _tree_bytes(tmp_path / "site_a")
        _cut_short_writes(monkeypatch, "stats")
        with pytest.raises(KeyboardInterrupt):
            run_teacher(self._tall_h_min(scene_dir), tmp_path)
        assert _tree_bytes(tmp_path / "site_a") == before
        assert not list(tmp_path.rglob("*.partial"))

    def test_interrupted_rejects_write_keeps_previous_rejects(self, scene_dir, tmp_path, monkeypatch):
        run_teacher(self._tall_h_min(scene_dir), tmp_path)
        before = _tree_bytes(tmp_path / "site_a")
        assert before["rejects.log"]  # the 1.5 m tall vehicle is rejected as height<h_min
        _cut_short_writes(monkeypatch, "rejects")
        with pytest.raises(KeyboardInterrupt):
            run_teacher(_entry(scene_dir), tmp_path)
        assert _tree_bytes(tmp_path / "site_a") == before
        assert not list(tmp_path.rglob("*.partial"))

    def test_failure_in_frame_loop_keeps_previous_outputs(self, scene_dir, tmp_path, monkeypatch):
        run_teacher(_entry(scene_dir), tmp_path)
        before = _tree_bytes(tmp_path / "site_a")
        entry = _entry(scene_dir)
        # a shorter query window, so a run that went through would write another model
        entry = dataclasses.replace(entry, teacher=dataclasses.replace(entry.teacher, n_query=5))

        def fail(*args, **kwargs):
            raise RuntimeError("clustering failed")

        monkeypatch.setattr(pipeline, "dbscan", fail)
        with pytest.raises(RuntimeError, match="clustering failed"):
            run_teacher(entry, tmp_path)
        assert _tree_bytes(tmp_path / "site_a") == before

    def test_peak_memory_below_two_copies_of_the_frames(self, tmp_path):
        spec = _mini_scene(duration=40)
        write_scene_outputs(spec, tmp_path / "scene")
        entry = _entry((tmp_path / "scene", spec))
        # The wall at x = 28 m lies outside this crop, so every frame loses points.
        crop = CropBounds(0, 25, -25, 25, -1, 8)
        entry = dataclasses.replace(entry, teacher=dataclasses.replace(entry.teacher, crop=crop))
        seq = load_frame_sequence(entry.frames_dir, entry.meta)
        assert all((~crop.contains(f.xyz) & ~f.padding).any() for f in seq.frames)
        frames_bytes = sum(f.xyz.nbytes + f.padding.nbytes for f in seq.frames)
        del seq
        run_teacher(entry, tmp_path / "warm")  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            run_teacher(entry, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every frame alive next to its cropped copy would take twice the frames' bytes.
        assert peak < 1.75 * frames_bytes

    def test_query_window_holds_ranges_not_points(self, tmp_path):
        spec = _mini_scene(duration=40)
        write_scene_outputs(spec, tmp_path / "scene")
        entry = _entry((tmp_path / "scene", spec))
        # every frame in the window, and few bins, so the window dominates; the
        # crop drops the ground, so fewer than half the beams hold data
        n_total, n_query, n_bin = spec.sensor.beam_count, 40, 4
        entry = dataclasses.replace(entry, teacher=dataclasses.replace(
            entry.teacher, n_query=n_query, n_bin=n_bin, crop=CropBounds(0, 40, -25, 25, 0.5, 8),
        ))
        run_teacher(entry, tmp_path / "warm")  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            stats = run_teacher(entry, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data_beams = stats["points_data"]  # over the window, which is every frame
        assert data_beams < 0.5 * n_query * n_total
        # Each query frame kept as the ranges of its data beams (float64) and a
        # packed mask is 8 bytes a data beam plus 1/8 byte a beam.  Kept as
        # every beam's range and a bool mask it would be 9 bytes a beam, and as
        # (n, 3) float64 points and padding 25.
        window = 8 * data_beams + n_query * n_total / 8
        histogram = n_total * n_bin * 24  # bin sums and counts, and the select's copy of the counts
        frame = n_total * 25
        assert peak < window + histogram + 6 * frame

    def test_peak_memory_flat_in_frame_count(self, tmp_path):
        spec = _mini_scene(duration=120)
        write_scene_outputs(spec, tmp_path / "long")
        short = tmp_path / "short" / "frames"
        short.mkdir(parents=True)
        for src in sorted((tmp_path / "long" / "frames").glob("*.bin"))[:40]:
            shutil.copy(src, short / src.name)
        peaks = {}
        for name in ("short", "long"):
            entry = _entry((tmp_path / name, spec))
            run_teacher(entry, tmp_path / "warm")  # lazy imports happen outside the trace
            tracemalloc.start()
            try:
                run_teacher(entry, tmp_path / "out")
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Holding every frame, 120 frames take three times the bytes of 40.
        assert peaks["long"] < 1.2 * peaks["short"]

    @pytest.mark.parametrize(
        "unit_scale, variant",
        [(scale, variant) for variant in ("query_model", "model_in", "tight_crop") for scale in (1.0, 0.01)],
        ids=["1.0", "0.01", "1.0-model_in", "0.01-model_in", "1.0-tight_crop", "0.01-tight_crop"],
    )
    def test_same_bytes_as_the_composed_stages(self, scene_dir, tmp_path, unit_scale, variant):
        out, spec = scene_dir
        frames = tmp_path / "frames"
        frames.mkdir()
        for src in sorted((out / "frames").glob("*.bin")):
            # frames written in the source unit: centimetres at unit_scale 0.01
            (np.fromfile(src, dtype="<f4") / np.float32(unit_scale)).astype("<f4").tofile(frames / src.name)
        entry = _entry(scene_dir)
        # a smaller epsilon splits the vehicle: labels, rejects and noise all non-empty
        entry = dataclasses.replace(
            entry, frames_dir=frames, meta=dataclasses.replace(entry.meta, unit_scale=unit_scale),
            teacher=dataclasses.replace(entry.teacher, epsilon=0.4),
        )
        if variant == "model_in":
            # a model from a shorter query window than the run's own would be
            source = dataclasses.replace(entry, teacher=dataclasses.replace(entry.teacher, n_query=4))
            (tmp_path / "model").mkdir()
            _composed_teacher(source, tmp_path / "model")
            entry = dataclasses.replace(entry, background_model_in=tmp_path / "model" / "background.model")
        elif variant == "tight_crop":
            # the wall at x = 28 m lies outside this crop, so every frame loses points
            crop = CropBounds(0, 25, -25, 25, -1, 8)
            entry = dataclasses.replace(entry, teacher=dataclasses.replace(entry.teacher, crop=crop))
        stats = run_teacher(entry, tmp_path / "streamed")
        assert stats["labels_written"] and stats["boxes_rejected"] and stats["noise_points"]
        _composed_teacher(entry, tmp_path / "composed")
        assert _tree_bytes(tmp_path / "streamed" / "site_a") == _tree_bytes(tmp_path / "composed")

    def test_empty_frame_directory(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        entry = DatasetEntry(
            name="empty", frames_dir=frames,
            meta=SensorMeta(2, 2), teacher=_teacher_cfg(4),
        )
        with pytest.raises(Exception, match="empty sequence"):
            run_teacher(entry, tmp_path / "out")

    def test_two_thresholds_differ_but_both_valid(self, scene_dir, tmp_path):
        tight = run_teacher(_entry(scene_dir, "tight", d_threshold=0.05), tmp_path)
        loose = run_teacher(_entry(scene_dir, "loose", d_threshold=0.6), tmp_path)
        assert tight["points_removed"] < loose["points_removed"]
        for name in ("tight", "loose"):
            for labs in read_labels(tmp_path / name / "labels").values():
                for lb in labs:
                    assert lb.length >= lb.width > 0

    def test_reused_background_model(self, scene_dir, tmp_path):
        run_teacher(_entry(scene_dir), tmp_path / "a")
        entry = _entry(scene_dir)
        entry2 = DatasetEntry(
            name=entry.name, frames_dir=entry.frames_dir, meta=entry.meta,
            teacher=entry.teacher,
            background_model_in=tmp_path / "a" / "site_a" / "background.model",
        )
        run_teacher(entry2, tmp_path / "b")
        a = sorted((tmp_path / "a" / "site_a" / "labels").glob("*.txt"))
        b = sorted((tmp_path / "b" / "site_a" / "labels").glob("*.txt"))
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_dataset_isolation(self, scene_dir, tmp_path, parallelism):
        bad_frames = tmp_path / "bad_frames"
        bad_frames.mkdir()
        (bad_frames / "x.bin").write_bytes(b"\x00" * 13)  # misaligned
        good = _entry(scene_dir, "good")
        bad = DatasetEntry(
            name="bad", frames_dir=bad_frames,
            meta=SensorMeta(2, 2), teacher=_teacher_cfg(4),
        )
        config = PipelineConfig(
            datasets=[bad, good], output_root=tmp_path / "out", parallelism=parallelism
        )
        results, failures = run_annotate(config)
        assert [stats["dataset"] for stats in results] == ["good"]
        assert set(failures) == {"bad"}
        assert (tmp_path / "out" / "good" / "labels").is_dir()

    def test_determinism_byte_identical(self, scene_dir, tmp_path):
        run_teacher(_entry(scene_dir), tmp_path / "run1")
        run_teacher(_entry(scene_dir), tmp_path / "run2")
        files1 = sorted((tmp_path / "run1" / "site_a" / "labels").glob("*.txt"))
        files2 = sorted((tmp_path / "run2" / "site_a" / "labels").glob("*.txt"))
        assert [f.name for f in files1] == [f.name for f in files2]
        for a, b in zip(files1, files2):
            assert a.read_bytes() == b.read_bytes()
        s1 = (tmp_path / "run1" / "site_a" / "stats.json").read_bytes()
        s2 = (tmp_path / "run2" / "site_a" / "stats.json").read_bytes()
        assert s1 == s2

    def test_rerun_after_frames_removed_leaves_no_stale_labels(self, scene_dir, tmp_path):
        out, spec = scene_dir
        frames = tmp_path / "frames"
        frames.mkdir()
        for src in sorted((out / "frames").glob("*.bin"))[:12]:
            shutil.copy(src, frames / src.name)
        entry = DatasetEntry(
            name="site_a", frames_dir=frames, meta=_entry(scene_dir).meta,
            teacher=_teacher_cfg(spec.sensor.beam_count, n_query=5),
        )
        labels_dir = tmp_path / "out" / "site_a" / "labels"
        run_teacher(entry, tmp_path / "out")
        assert len(list(labels_dir.glob("*.txt"))) == 12
        for f in sorted(frames.glob("*.bin"))[2::3]:
            f.unlink()
        stats = run_teacher(entry, tmp_path / "out")
        stems = sorted(f.stem for f in frames.glob("*.bin"))
        assert len(stems) == 8
        assert sorted(f.stem for f in labels_dir.glob("*.txt")) == stems
        assert sorted(p.name for p in (tmp_path / "out" / "site_a").iterdir()) == [
            "background.model", "labels", "rejects.log", "stats.json",
        ]
        assert stats["frames"] == 8

    def test_partials_left_by_a_killed_run_are_replaced(self, scene_dir, tmp_path):
        site = tmp_path / "out" / "site_a"
        (site / ".labels.partial").mkdir(parents=True)
        (site / ".labels.partial" / "junk.txt").write_text("junk\n")
        (site / ".stats.json.partial").write_text("{\"frames\": -1}\n")
        stats = run_teacher(_entry(scene_dir), tmp_path / "out")
        assert not (site / "labels" / "junk.txt").exists()
        assert json.loads((site / "stats.json").read_text()) == stats
        assert sorted(p.name for p in site.iterdir()) == [
            "background.model", "labels", "rejects.log", "stats.json",
        ]
        assert not list(tmp_path.rglob("*.partial"))


class TestMergeSupersets:
    def _six_frame_input(self, scene_dir, tmp_path):
        out, _ = scene_dir
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        for src in sorted((out / "frames").glob("*.bin"))[:6]:
            shutil.copy(src, frames / src.name)
        write_labels({f.stem: [] for f in frames.glob("*.bin")}, labels)
        transform = UnificationTransform((5.0, 0.0, 0.0))
        return MergeInput("site_a", frames, labels, _entry(scene_dir).meta, transform)

    def test_rerun_after_frames_removed_leaves_no_stale_files(self, scene_dir, tmp_path):
        item = self._six_frame_input(scene_dir, tmp_path)
        merge_supersets([item], tmp_path / "merged")
        for f in sorted(item.frames_dir.glob("*.bin"))[::3]:
            f.unlink()
            (item.labels_dir / f"{f.stem}.txt").unlink()
        index = merge_supersets([item], tmp_path / "merged")
        stems = sorted(f.stem for f in item.frames_dir.glob("*.bin"))
        assert len(stems) == 4
        assert len(index.read_text().splitlines()) == 4
        ds_dir = tmp_path / "merged" / "site_a"
        assert sorted(f.stem for f in (ds_dir / "frames").iterdir()) == stems
        assert sorted(f.stem for f in (ds_dir / "labels").iterdir()) == stems
        assert not list((tmp_path / "merged").rglob("*.partial"))

    def test_interrupted_index_write_keeps_previous_output(self, scene_dir, tmp_path, monkeypatch):
        item = self._six_frame_input(scene_dir, tmp_path)
        merge_supersets([item], tmp_path / "merged")
        before = _tree_bytes(tmp_path / "merged")
        first = sorted(item.frames_dir.glob("*.bin"))[0]
        first.unlink()
        (item.labels_dir / f"{first.stem}.txt").unlink()
        _cut_short_writes(monkeypatch, "index")
        with pytest.raises(KeyboardInterrupt):
            merge_supersets([item], tmp_path / "merged")
        assert _tree_bytes(tmp_path / "merged") == before
        assert not list((tmp_path / "merged").rglob("*.partial"))

    def test_duplicate_input_names_rejected(self, scene_dir, tmp_path):
        item = self._six_frame_input(scene_dir, tmp_path)
        with pytest.raises(ConfigError, match="distinct"):
            merge_supersets([item, item], tmp_path / "merged")

    def test_single_identity_dataset(self, scene_dir, tmp_path):
        run_teacher(_entry(scene_dir), tmp_path / "t")
        labels_dir = tmp_path / "t" / "site_a" / "labels"
        out, spec = scene_dir
        meta = SensorMeta(spec.sensor.azimuth_count, spec.sensor.elevation_count)
        index = merge_supersets(
            [MergeInput("site_a", out / "frames", labels_dir, meta, UnificationTransform())],
            tmp_path / "merged",
        )
        lines = index.read_text().splitlines()
        assert len(lines) == spec.duration
        assert all(line.startswith("site_a ") for line in lines)
        merged_labels = read_labels(tmp_path / "merged" / "site_a" / "labels")
        original = read_labels(labels_dir)
        assert {k: len(v) for k, v in merged_labels.items()} == {
            k: len(v) for k, v in original.items()
        }

    def test_two_datasets_with_provenance(self, scene_dir, tmp_path):
        run_teacher(_entry(scene_dir), tmp_path / "t")
        labels_dir = tmp_path / "t" / "site_a" / "labels"
        out, spec = scene_dir
        meta = SensorMeta(spec.sensor.azimuth_count, spec.sensor.elevation_count)
        inputs = [
            MergeInput("a", out / "frames", labels_dir, meta, UnificationTransform()),
            MergeInput(
                "b", out / "frames", labels_dir, meta,
                UnificationTransform(translation=(100.0, 0.0, 0.0)),
            ),
        ]
        index = merge_supersets(inputs, tmp_path / "merged")
        lines = index.read_text().splitlines()
        assert len(lines) == 2 * spec.duration
        tags = {line.split()[0] for line in lines}
        assert tags == {"a", "b"}

    @pytest.mark.parametrize(
        "unit_scale, transform",
        [
            (1.0, UnificationTransform((120.0, 0.0, 0.0), 1.1)),
            (0.01, UnificationTransform(scale=2.5)),
            (1.0, UnificationTransform()),
        ],
        ids=["translate-scale", "unit-scale", "identity"],
    )
    def test_frames_match_naive_merge(self, scene_dir, tmp_path, unit_scale, transform):
        out, spec = scene_dir
        labels = tmp_path / "labels"
        write_labels({f.stem: [] for f in (out / "frames").glob("*.bin")}, labels)
        meta = SensorMeta(spec.sensor.azimuth_count, spec.sensor.elevation_count, unit_scale)
        merge_supersets([MergeInput("s", out / "frames", labels, meta, transform)], tmp_path / "merged")
        naive_merge_frames(out / "frames", unit_scale, transform, tmp_path / "naive")
        assert _tree_bytes(tmp_path / "merged" / "s" / "frames") == _tree_bytes(tmp_path / "naive")

    @pytest.mark.parametrize(
        "unit_scale, transform",
        [
            (1.0, UnificationTransform((120.0, 0.0, 0.0), 1.1)),
            (0.01, UnificationTransform((0.0, -3.0, 0.5), 2.5)),
            (1.0, UnificationTransform()),
        ],
        ids=["translate-scale", "unit-scale", "identity"],
    )
    def test_negative_zero_and_short_frames_match_naive_merge(self, tmp_path, unit_scale, transform):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        signed_zero = np.array([
            [1.5, -2.0, 0.25, 7.0],
            [-0.0, 0.0, -0.0, 0.0],  # padding spelled with negative zeros
            [-0.0, -0.0, -0.0, 3.0],
            [0.0, 0.0, 0.0, 0.0],
            [-0.0, 3.5, 1.25, 1.0],  # a data row with a negative-zero coordinate
            [4.0, 0.0, -0.0, 0.0],
        ], dtype="<f4")
        signed_zero.tofile(frames / "000000.bin")
        short = signed_zero.copy()
        short[3:] = -0.0  # fewer returns: the beams that missed are zero rows
        short.tofile(frames / "000001.bin")
        full = signed_zero.copy()
        full[1:4, :3] = [[2.0, -0.0, 0.5], [-1.0, 0.0, 0.0], [0.0, -0.0, -3.0]]  # no padding row
        full.tofile(frames / "000002.bin")
        write_labels({"000000": [], "000001": [], "000002": []}, labels)
        merge_supersets(
            [MergeInput("s", frames, labels, SensorMeta(2, 3, unit_scale), transform)],
            tmp_path / "merged",
        )
        naive_merge_frames(frames, unit_scale, transform, tmp_path / "naive")
        merged = tmp_path / "merged" / "s" / "frames"
        assert _tree_bytes(merged) == _tree_bytes(tmp_path / "naive")
        rec = np.fromfile(merged / "000000.bin", dtype="<f4").reshape(-1, 4)
        assert np.signbit(rec[1:3, :3]).tolist() == np.signbit(signed_zero[1:3, :3]).tolist()

    def test_inputs_of_different_beam_counts_match_naive_merge(self, scene_dir, tmp_path):
        out, spec = scene_dir
        small = tmp_path / "small"
        small.mkdir()
        rng = np.random.default_rng(8)
        for k in range(4):
            rec = np.zeros((6, 4), dtype="<f4")
            rec[:, :3] = rng.uniform(-20.0, 20.0, (6, 3))
            rec[2] = -0.0
            rec.tofile(small / f"{k:06d}.bin")
        inputs = [
            ("wide", out / "frames", SensorMeta(spec.sensor.azimuth_count, spec.sensor.elevation_count),
             UnificationTransform((120.0, 0.0, 0.0), 1.1)),
            ("small", small, SensorMeta(3, 2, 0.5), UnificationTransform((0.0, -3.0, 0.5), 2.5)),
        ]
        items = []
        for name, frames, meta, transform in inputs:
            labels = tmp_path / f"labels_{name}"
            write_labels({f.stem: [] for f in frames.glob("*.bin")}, labels)
            items.append(MergeInput(name, frames, labels, meta, transform))
        merge_supersets(items, tmp_path / "merged")
        for name, frames, meta, transform in inputs:
            naive_merge_frames(frames, meta.unit_scale, transform, tmp_path / "naive" / name)
            assert _tree_bytes(tmp_path / "merged" / name / "frames") == _tree_bytes(tmp_path / "naive" / name)

    def test_scale_transform_matches_independent_label_transform(self, scene_dir, tmp_path):
        run_teacher(_entry(scene_dir), tmp_path / "t")
        labels_dir = tmp_path / "t" / "site_a" / "labels"
        out, spec = scene_dir
        meta = SensorMeta(spec.sensor.azimuth_count, spec.sensor.elevation_count)
        tf = UnificationTransform(translation=(5.0, -2.0, 0.0), scale=2.0)
        merge_supersets(
            [MergeInput("s", out / "frames", labels_dir, meta, tf)], tmp_path / "merged"
        )
        merged = tmp_path / "merged" / "s" / "labels"
        original = read_labels(labels_dir)
        assert sorted(path.stem for path in merged.iterdir()) == sorted(original)
        assert any(original.values())
        for stem, labels in original.items():
            expected = "".join(naive_format_label_line(naive_transform_label(lb, tf)) + "\n" for lb in labels)
            assert (merged / f"{stem}.txt").read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "transform", [UnificationTransform(), UnificationTransform(scale=2.0)], ids=["identity", "scale-2"]
    )
    def test_negative_zero_labels_merge_as_the_naive_transform_writes_them(self, tmp_path, transform):
        # The identity writes every label byte as it was read, a "-0.000000"
        # included; "v * 1.0 + 0.0" would turn that into "0.000000".
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        labels.mkdir()
        np.zeros((6, 4), dtype="<f4").tofile(frames / "000000.bin")
        text = ("Vehicle -0.000000 -0.000000 0.750000 4.000000 2.000000 1.500000 -0.000000 1.000000\n"
                "Pedestrian 3.250000 -0.000000 -0.000000 0.500000 0.500000 1.700000 0.000000 0.500000\n")
        (labels / "000000.txt").write_text(text)
        merge_supersets([MergeInput("s", frames, labels, SensorMeta(2, 3), transform)], tmp_path / "merged")
        merged = (tmp_path / "merged" / "s" / "labels" / "000000.txt").read_bytes()
        expected = "".join(
            naive_format_label_line(naive_transform_label(lb, transform)) + "\n"
            for lb in read_labels(labels)["000000"]
        )
        assert merged == expected.encode("utf-8")
        assert (merged == text.encode("utf-8")) == transform.is_identity


def _cut_short_writes(monkeypatch, name):
    """Make a text write to a file whose name contains ``name`` stop halfway,
    as a run killed mid-write would."""
    write_text = Path.write_text

    def cut_short(path, text, *args, **kwargs):
        if name in path.name:
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", cut_short)


def _set(rec, index, value):
    rec[index] = value
    return rec


# Ways a frame file of a 16-beam sensor can be wrong, applied to its records.
_CORRUPTIONS = {
    "one-record-short": lambda rec: rec[:-1],
    "one-record-extra": lambda rec: np.vstack([rec, rec[:1]]),
    "returns-only": lambda rec: rec[(rec[:, :3] != 0.0).any(axis=1)],
    "nan-x": lambda rec: _set(rec, (5, 0), np.nan),
    "inf-y": lambda rec: _set(rec, (5, 1), np.inf),
    "minus-inf-z": lambda rec: _set(rec, (5, 2), -np.inf),
}


def _tree_bytes(directory):
    """Every file under ``directory`` by relative path, with its bytes."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(Path(directory).rglob("*")) if p.is_file()
    }


def _prediction_labels(rng, n_frames=4, score=lambda r: float(r.uniform(0, 1))):
    by_stem = {}
    for k in range(n_frames):
        labs = []
        for _ in range(int(rng.integers(0, 4))):
            w = rng.uniform(0.3, 2.0)
            labs.append(
                ObjectLabel(
                    float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)), 0.8,
                    w + rng.uniform(0, 2), w, float(rng.uniform(0.5, 2.0)), 0.0,
                    LabelClass.PEDESTRIAN, score(rng), LabelSource.EXTERNAL,
                )
            )
        by_stem[f"{k:06d}"] = labs
    return by_stem


class TestIterate:
    def test_fixed_point(self, tmp_path):
        rng = np.random.default_rng(50)
        preds = _prediction_labels(rng, score=lambda r: 1.0)
        pred_dir = tmp_path / "preds"
        write_labels(preds, pred_dir)
        round_dir = iterate(pred_dir, tmp_path / "ws")
        pred_files = sorted(pred_dir.glob("*.txt"))
        round_files = sorted(round_dir.glob("*.txt"))
        assert [f.name for f in pred_files] == [f.name for f in round_files]
        for a, b in zip(pred_files, round_files):
            assert a.read_bytes() == b.read_bytes()

    def test_all_below_threshold_gives_empty_labels(self, tmp_path, caplog):
        rng = np.random.default_rng(51)
        preds = _prediction_labels(rng, score=lambda r: 0.1)
        pred_dir = tmp_path / "preds"
        write_labels(preds, pred_dir)
        with caplog.at_level("WARNING"):
            round_dir = iterate(pred_dir, tmp_path / "ws", score_threshold=0.5)
        assert any("below score threshold" in r.message for r in caplog.records)
        for f in round_dir.glob("*.txt"):
            assert f.read_bytes() == b""

    def test_three_rounds_tracked_in_manifest(self, tmp_path):
        rng = np.random.default_rng(52)
        preds = _prediction_labels(rng, score=lambda r: 1.0)
        pred_dir = tmp_path / "preds"
        write_labels(preds, pred_dir)
        ws = tmp_path / "ws"
        dirs = [iterate(pred_dir, ws) for _ in range(3)]
        assert [d.name for d in dirs] == ["round_001", "round_002", "round_003"]
        manifest = json.loads((ws / "manifest.json").read_text())
        assert [r["round"] for r in manifest["rounds"]] == [1, 2, 3]
        assert len({r["directory"] for r in manifest["rounds"]}) == 3

    def test_rerun_replaces_round_left_without_manifest(self, tmp_path):
        rng = np.random.default_rng(56)
        pred_dir = tmp_path / "preds"
        write_labels(_prediction_labels(rng, n_frames=5, score=lambda r: 1.0), pred_dir)
        stale = tmp_path / "ws" / "round_001"
        stale.mkdir(parents=True)
        (stale / "999999.txt").write_text("")
        round_dir = iterate(pred_dir, tmp_path / "ws")
        assert round_dir == stale
        assert sorted(f.name for f in round_dir.iterdir()) == sorted(
            f.name for f in pred_dir.iterdir()
        )
        assert not list((tmp_path / "ws").glob("*.partial"))

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, True, "0.5"])
    def test_score_threshold_range_checked(self, tmp_path, threshold):
        rng = np.random.default_rng(57)
        pred_dir = tmp_path / "preds"
        write_labels(_prediction_labels(rng), pred_dir)
        with pytest.raises(ValueError, match="score_threshold"):
            iterate(pred_dir, tmp_path / "ws", score_threshold=threshold)
        assert not (tmp_path / "ws").exists()

    def test_interrupted_manifest_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(58)
        pred_dir = tmp_path / "preds"
        write_labels(_prediction_labels(rng, score=lambda r: 1.0), pred_dir)
        ws = tmp_path / "ws"
        iterate(pred_dir, ws)
        before = (ws / "manifest.json").read_bytes()
        _cut_short_writes(monkeypatch, "manifest")
        with pytest.raises(KeyboardInterrupt):
            iterate(pred_dir, ws)
        monkeypatch.undo()
        assert (ws / "manifest.json").read_bytes() == before
        assert not list(ws.glob("*.partial"))
        assert not (ws / "round_002").exists()
        assert iterate(pred_dir, ws).name == "round_002"

    def test_labels_retagged_external(self, tmp_path):
        rng = np.random.default_rng(53)
        preds = _prediction_labels(rng, score=lambda r: 1.0)
        pred_dir = tmp_path / "preds"
        write_labels(preds, pred_dir)
        round_dir = iterate(pred_dir, tmp_path / "ws")
        loaded = read_labels(round_dir, source=LabelSource.EXTERNAL)
        for labs in loaded.values():
            assert all(lb.source is LabelSource.EXTERNAL for lb in labs)


def _warnings(caplog) -> list[str]:
    return [record.getMessage() for record in caplog.records if record.levelno == logging.WARNING]


_README_CONFIG_READERS = {
    "datasets": pipeline._pipeline_config,
    "inputs": pipeline._merge_config,
    "pred_dir": cli._evaluate_config,
    "predictions": cli._iterate_config,
}


class TestConfigParsing:
    def test_readme_configs_log_no_warning(self, caplog):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.DOTALL)]
        kinds = []
        for config in configs:
            (kind,) = (key for key in _README_CONFIG_READERS if key in config)
            _README_CONFIG_READERS[kind](config)
            kinds.append(kind)
        assert sorted(kinds) == sorted(_README_CONFIG_READERS)
        assert _warnings(caplog) == []

    def test_scene_with_every_kind_logs_no_warning(self, caplog):
        scene = {
            "sensor": {"origin": [0, 0, 3], "azimuth_deg": [-30, 30], "azimuth_count": 20,
                       "elevation_deg": [-20, -2], "elevation_count": 10, "frequency_hz": 10.0,
                       "range_noise_sigma": 0.01, "max_range": 80.0},
            "static": [
                {"type": "ground", "z": 0.0, "jitter_sigma": 0.01},
                {"type": "box", "center": [30, 0, 3], "dims": [1, 20, 6], "yaw": 0.1, "jitter_sigma": 0.0},
                {"type": "cylinder", "center": [20, 5], "radius": 0.2, "z_low": 0.0, "z_high": 5.0,
                 "jitter_sigma": 0.0},
            ],
            "actors": [
                {"shape": "cuboid", "length": 4.0, "width": 1.8, "height": 1.5,
                 "waypoints": [[10, -5], [10, 5]], "speed": 2.0, "start_time": 0.1},
                {"shape": "cylinder", "radius": 0.3, "height": 1.7,
                 "waypoints": [[12, 0]], "speed": 1.0, "start_time": 0.0},
            ],
            "duration": 3, "seed": 1, "min_truth_points": 5,
        }
        spec = scene_from_dict(scene)
        assert [type(p).__name__ for p in spec.static] == ["GroundPlane", "BoxObstacle", "CylinderObstacle"]
        assert [a.shape for a in spec.actors] == ["cuboid", "cylinder"]
        assert _warnings(caplog) == []
        # a misspelled key of a primitive or an actor is named with its entry
        scene["static"][1]["jiter_sigma"] = scene["static"][1].pop("jitter_sigma")
        scene["actors"][1]["lenght"] = 2.0
        scene_from_dict(scene)
        assert _warnings(caplog) == [
            "static[1]: ignoring unknown key 'jiter_sigma'",
            "actors[1]: ignoring unknown key 'lenght'",
        ]

    def _config_dict(self, scene_dir, tmp_path):
        out, spec = scene_dir
        return {
            "output_root": str(tmp_path / "out"),
            "parallelism": 1,
            "datasets": [
                {
                    "name": "site_a",
                    "frames": str(out / "frames"),
                    "sensor": {
                        "name": "mini",
                        "rays_horizontal": spec.sensor.azimuth_count,
                        "rays_vertical": spec.sensor.elevation_count,
                        "frequency_hz": 10.0,
                    },
                    "teacher": {
                        "n_query": 10, "n_bin": 10,
                        "n_tall": 3, "d_threshold": 0.2, "epsilon": 0.7, "min_pts": 5,
                        "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
                        "crop": {"x_min": 0, "x_max": 40, "y_min": -25, "y_max": 25,
                                 "z_min": -1, "z_max": 8},
                    },
                }
            ],
        }

    def test_valid_config_parses(self, scene_dir, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._config_dict(scene_dir, tmp_path)))
        config = parse_pipeline_config(path)
        assert config.datasets[0].name == "site_a"

    def test_n_total_is_the_sensor_beam_count(self, scene_dir, tmp_path, caplog):
        data = self._config_dict(scene_dir, tmp_path)
        data["datasets"][0]["teacher"]["n_total"] = 4  # a leftover key is ignored
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        (entry,) = parse_pipeline_config(path).datasets
        assert entry.teacher.n_total == entry.meta.beam_count
        # so are the sensor's name and frequency_hz
        sensor = data["datasets"][0]["sensor"]
        assert {"name", "frequency_hz"} <= sensor.keys()
        assert entry.meta == SensorMeta(sensor["rays_horizontal"], sensor["rays_vertical"])
        # each with a warning, in its section's key order
        assert _warnings(caplog) == [
            "sensor: ignoring unknown key 'name'",
            "sensor: ignoring unknown key 'frequency_hz'",
            "teacher: ignoring unknown key 'n_total'",
        ]
        with pytest.raises(ConfigError, match="beam count"):
            dataclasses.replace(entry, teacher=dataclasses.replace(entry.teacher, n_total=4))

    @pytest.mark.parametrize("field", ["d_threshold", "epsilon", "l_min", "h_min", "beta_min"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_teacher_thresholds_must_be_finite_and_positive(self, field, value):
        cfg = _teacher_cfg(100)
        with pytest.raises(ConfigError, match=f"{field} must be finite and positive"):
            dataclasses.replace(cfg, **{field: value})

    def test_duplicate_names_rejected(self, scene_dir, tmp_path):
        data = self._config_dict(scene_dir, tmp_path)
        data["datasets"].append(data["datasets"][0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(Exception, match="distinct"):
            parse_pipeline_config(path)


NAN = float("nan")


def _actor(**fields):
    """A scene config's actor: a walking pedestrian, with ``fields`` changed."""
    return {"shape": "cylinder", "radius": 0.3, "height": 1.7, "waypoints": [[10, 0], [12, 0]],
            "speed": 1.0, **fields}


class TestCli:
    def test_misspelled_merge_key_is_ignored_with_a_warning(self, tmp_path, caplog):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        np.array([[1.0, 1.0, 1.0, 0.0]], dtype="<f4").tofile(frames / "000000.bin")
        write_labels({"000000": []}, labels)
        path = tmp_path / "merge.json"
        path.write_text(json.dumps({
            "output_root": str(tmp_path / "merged"),
            "inputs": [{
                "name": "site_a", "frames": str(frames), "labels": str(labels),
                "sensor": {"rays_horizontal": 1, "rays_vertical": 1},
                "transfrom": {"translation": [100, 0, 0]},
            }],
        }))
        assert main(["merge", "--config", str(path)]) == 0
        assert _warnings(caplog) == ["inputs[0]: ignoring unknown key 'transfrom'"]
        # the frame is merged untransformed
        rec = np.fromfile(tmp_path / "merged" / "site_a" / "frames" / "000000.bin", dtype="<f4")
        assert rec.tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_annotate_and_evaluate_exit_codes(self, scene_dir, tmp_path):
        out, spec = scene_dir
        cfg = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        cfg_path = tmp_path / "annotate.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["annotate", "--config", str(cfg_path)]) == 0

        eval_cfg = {
            "pred_dir": str(tmp_path / "out" / "site_a" / "labels"),
            "truth_dir": str(out / "truth"),
            "thresholds": [0.25, 0.5],
            "report": str(tmp_path / "report.txt"),
        }
        eval_path = tmp_path / "evaluate.json"
        eval_path.write_text(json.dumps(eval_cfg))
        assert main(["evaluate", "--config", str(eval_path)]) == 0
        assert (tmp_path / "report.txt").exists()

    def test_interrupted_report_write_keeps_previous_report(self, scene_dir, tmp_path, monkeypatch):
        out, _ = scene_dir
        report = tmp_path / "report.txt"

        def evaluate_cli(pred_dir):
            path = tmp_path / "evaluate.json"
            path.write_text(json.dumps({
                "pred_dir": str(pred_dir), "truth_dir": str(out / "truth"), "report": str(report),
            }))
            return main(["evaluate", "--config", str(path)])

        assert evaluate_cli(out / "truth") == 0
        before = report.read_bytes()
        (tmp_path / "no_preds").mkdir()  # a report that went through would differ
        _cut_short_writes(monkeypatch, "report")
        with pytest.raises(KeyboardInterrupt):
            evaluate_cli(tmp_path / "no_preds")
        assert report.read_bytes() == before
        assert not list(tmp_path.glob("*.partial"))

    def test_report_over_a_directory_is_data_error(self, scene_dir, tmp_path, caplog):
        out, _ = scene_dir
        keep = tmp_path / "keep"
        keep.mkdir()
        (keep / "file.txt").write_text("kept\n")
        path = tmp_path / "evaluate.json"
        path.write_text(json.dumps({
            "pred_dir": str(out / "truth"), "truth_dir": str(out / "truth"), "report": str(keep),
        }))
        assert main(["evaluate", "--config", str(path)]) == 2
        assert f"cannot replace the directory {keep} with a file" in caplog.text
        assert _tree_bytes(keep) == {"file.txt": b"kept\n"}
        assert not list(tmp_path.rglob("*.partial"))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched run_teacher reaches the workers only through fork")
    def test_killed_worker_fails_only_its_dataset_and_keeps_its_outputs(
        self, scene_dir, tmp_path, monkeypatch, caplog
    ):
        cfg = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        site = cfg["datasets"][0]
        cfg["datasets"] = [{**site, "name": "a"}, {**site, "name": "b"}]
        cfg["parallelism"] = 2
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(cfg))
        assert main(["annotate", "--config", str(path)]) == 0
        before = _tree_bytes(tmp_path / "out")
        # Outputs that differ from a's rerun show that a was written again.
        for name in ("a", "b"):
            (tmp_path / "out" / name / "stats.json").write_text("stale\n")
        stale = _tree_bytes(tmp_path / "out")
        monkeypatch.setattr(pipeline, "run_teacher", _kill_worker_on_b)
        caplog.clear()
        assert main(["annotate", "--config", str(path)]) == 2
        # The pool breaks as a whole, but a reruns alone and succeeds;
        # b kills its fresh pool too and fails with the pool's message.
        assert "dataset a failed" not in caplog.text
        assert re.search("dataset b failed: .*terminated abruptly", caplog.text)
        after = _tree_bytes(tmp_path / "out")
        assert {k: v for k, v in after.items() if k.startswith("a/")} == {
            k: v for k, v in before.items() if k.startswith("a/")
        }
        assert {k: v for k, v in after.items() if k.startswith("b/")} == {
            k: v for k, v in stale.items() if k.startswith("b/")
        }
        assert not list(tmp_path.rglob("*.partial"))

    def _annotate_with_model(self, scene_dir, tmp_path, model):
        """Annotate once, then again from the sidecar ``model``; return the second exit code."""
        cfg = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(cfg))
        assert main(["annotate", "--config", str(path)]) == 0
        before = _tree_bytes(tmp_path / "out")
        sidecar = tmp_path / "model.bin"
        save_background_model(model, sidecar)
        cfg["datasets"][0]["background_model_in"] = str(sidecar)
        path.write_text(json.dumps(cfg))
        code = main(["annotate", "--config", str(path)])
        assert _tree_bytes(tmp_path / "out") == before
        return code, sidecar

    def test_sidecar_without_tall_bins_is_data_error(self, scene_dir, tmp_path, caplog):
        n_total = scene_dir[1].sensor.beam_count
        code, sidecar = self._annotate_with_model(
            scene_dir, tmp_path, BackgroundModel(np.zeros((n_total, 0)))
        )
        assert code == 2
        assert f"{sidecar} has no tall bins" in caplog.text

    def test_sidecar_arity_mismatch_names_the_file(self, scene_dir, tmp_path, caplog):
        code, sidecar = self._annotate_with_model(scene_dir, tmp_path, BackgroundModel(np.zeros((4, 3))))
        assert code == 2
        assert f"background model {sidecar} has arity 4" in caplog.text

    def test_pool_capped_at_dataset_count(self, tmp_path, monkeypatch):
        workers = []

        class RecordingPool:
            """Runs each task in this process and records the worker count asked for."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:  # noqa: BLE001 - delivered through the future
                    future.set_exception(exc)
                return future

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
        entries = [
            DatasetEntry(name, tmp_path / name, SensorMeta(2, 2), _teacher_cfg(4)) for name in ("a", "b")
        ]
        results, failures = run_annotate(PipelineConfig(entries, tmp_path / "out", parallelism=64))
        assert workers == [2]
        assert not results and set(failures) == {"a", "b"}

    def test_merge_cli(self, scene_dir, tmp_path):
        out, spec = scene_dir
        run_teacher(_entry(scene_dir), tmp_path / "t")
        labels_dir = tmp_path / "t" / "site_a" / "labels"
        merge_cfg = {
            "output_root": str(tmp_path / "merged"),
            "inputs": [
                {
                    "name": "site_a",
                    "frames": str(out / "frames"),
                    "labels": str(labels_dir),
                    "sensor": {
                        "name": "mini",
                        "rays_horizontal": spec.sensor.azimuth_count,
                        "rays_vertical": spec.sensor.elevation_count,
                    },
                    "transform": {"translation": [50.0, 0.0, 0.0], "scale": 1.0},
                }
            ],
        }
        path = tmp_path / "merge.json"
        path.write_text(json.dumps(merge_cfg))
        assert main(["merge", "--config", str(path)]) == 0
        assert (tmp_path / "merged" / "index.txt").exists()
        merged = read_labels(tmp_path / "merged" / "site_a" / "labels")
        original = read_labels(labels_dir)
        total_merged = sum(len(v) for v in merged.values())
        total_original = sum(len(v) for v in original.values())
        assert total_merged == total_original  # merging never creates or drops labels

    @staticmethod
    def _merge_config(tmp_path, frames, labels, transform):
        path = tmp_path / "merge.json"
        path.write_text(json.dumps({
            "output_root": str(tmp_path / "merged"),
            "inputs": [{
                "name": "site_a", "frames": str(frames), "labels": str(labels),
                "sensor": {"rays_horizontal": 2, "rays_vertical": 2},
                "transform": transform,
            }],
        }))
        return path

    @pytest.mark.parametrize("command", ["annotate", "merge"])
    def test_unreadable_frame_file_is_data_error(self, tmp_path, caplog, command):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        for k in range(2):
            np.full((4, 4), k + 1.0, dtype="<f4").tofile(frames / f"00000{k}.bin")
        (frames / "000002.bin").mkdir()
        write_labels({f"00000{k}": [] for k in range(3)}, labels)
        path = self._merge_config(tmp_path, frames, labels, {})
        if command == "annotate":
            path.write_text(json.dumps({
                "output_root": str(tmp_path / "out"),
                "datasets": [{
                    "name": "site_a", "frames": str(frames),
                    "sensor": {"rays_horizontal": 2, "rays_vertical": 2},
                    "teacher": {
                        "n_query": 2, "n_bin": 2, "n_tall": 1, "d_threshold": 0.2,
                        "epsilon": 0.7, "min_pts": 2, "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
                        "crop": {"x_min": -9, "x_max": 9, "y_min": -9, "y_max": 9, "z_min": -9, "z_max": 9},
                    },
                }],
            }))
        assert main([command, "--config", str(path)]) == 2
        assert f"cannot read frame file {frames / '000002.bin'}" in caplog.text

    @pytest.mark.parametrize("command", ["annotate", "merge"])
    def test_beam_count_too_large_to_allocate_is_data_error(self, tmp_path, caplog, command):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        np.full((4, 4), 1.0, dtype="<f4").tofile(frames / "000000.bin")
        write_labels({"000000": []}, labels)
        sensor = {"rays_horizontal": 10**6, "rays_vertical": 10**6}  # 16 TB a frame
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({
            "annotate": {"output_root": str(tmp_path / "out"), "datasets": [{
                "name": "site_a", "frames": str(frames), "sensor": sensor,
                "teacher": {"n_query": 1, "n_bin": 2, "n_tall": 1, "d_threshold": 0.2,
                            "epsilon": 0.7, "min_pts": 2, "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
                            "crop": {"x_min": -9, "x_max": 9, "y_min": -9, "y_max": 9,
                                     "z_min": -9, "z_max": 9}},
            }]},
            "merge": {"output_root": str(tmp_path / "out"), "inputs": [{
                "name": "site_a", "frames": str(frames), "labels": str(labels), "sensor": sensor,
            }]},
        }[command]))
        assert main([command, "--config", str(path)]) == 2
        assert f"malformed frame file {frames / '000000.bin'}: 64 bytes" in caplog.text
        assert _tree_bytes(tmp_path / "out") == {}

    def test_merge_failure_keeps_previous_output(self, tmp_path, caplog):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        for k in range(3):
            np.full((4, 4), k + 1.0, dtype="<f4").tofile(frames / f"00000{k}.bin")
        write_labels({f"00000{k}": [] for k in range(3)}, labels)
        path = self._merge_config(tmp_path, frames, labels, {"translation": [5.0, 0.0, 0.0]})
        assert main(["merge", "--config", str(path)]) == 0
        merged = tmp_path / "merged" / "site_a"
        before = _tree_bytes(merged)
        bad = np.full((4, 4), 2.0, dtype="<f4")
        bad[1, 1] = np.nan
        bad.tofile(frames / "000001.bin")
        # a new frame, so that a rerun that went through would change both trees
        (frames / "000003.bin").write_bytes((frames / "000000.bin").read_bytes())
        write_labels({"000003": []}, labels)
        assert main(["merge", "--config", str(path)]) == 2
        assert str(frames / "000001.bin") in caplog.text
        assert _tree_bytes(merged) == before
        assert not list((tmp_path / "merged").rglob("*.partial"))

    def test_merge_failure_on_later_input_publishes_nothing(self, tmp_path, caplog):
        inputs = []
        for name in ("a", "b"):
            frames, labels = tmp_path / name / "frames", tmp_path / name / "labels"
            frames.mkdir(parents=True)
            for k in range(3):
                np.full((4, 4), k + 1.0, dtype="<f4").tofile(frames / f"00000{k}.bin")
            write_labels({f"00000{k}": [] for k in range(3)}, labels)
            inputs.append({
                "name": name, "frames": str(frames), "labels": str(labels),
                "sensor": {"rays_horizontal": 2, "rays_vertical": 2},
                "transform": {"translation": [5.0, 0.0, 0.0]},
            })
        path = tmp_path / "merge.json"
        path.write_text(json.dumps({"output_root": str(tmp_path / "merged"), "inputs": inputs}))
        assert main(["merge", "--config", str(path)]) == 0
        before = _tree_bytes(tmp_path / "merged")
        assert "index.txt" in before
        (tmp_path / "a" / "frames" / "000001.bin").unlink()
        (tmp_path / "a" / "labels" / "000001.txt").unlink()
        bad = np.full((4, 4), 2.0, dtype="<f4")
        bad[1, 1] = np.nan
        bad.tofile(tmp_path / "b" / "frames" / "000001.bin")
        assert main(["merge", "--config", str(path)]) == 2
        assert str(tmp_path / "b" / "frames" / "000001.bin") in caplog.text
        assert _tree_bytes(tmp_path / "merged") == before

    @pytest.mark.parametrize("resize", [1, -16], ids=["one-byte-long", "one-record-short"])
    def test_merge_wrong_length_frame_keeps_previous_output(self, tmp_path, caplog, resize):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        for k in range(3):
            np.full((4, 4), k + 1.0, dtype="<f4").tofile(frames / f"00000{k}.bin")
        write_labels({f"00000{k}": [] for k in range(3)}, labels)
        path = self._merge_config(tmp_path, frames, labels, {"translation": [5.0, 0.0, 0.0]})
        assert main(["merge", "--config", str(path)]) == 0
        before = _tree_bytes(tmp_path / "merged")
        bad = frames / "000001.bin"
        data = bad.read_bytes()
        bad.write_bytes(data + b"\x00" if resize > 0 else data[:resize])
        # a new frame, so that a rerun that went through would change the tree
        (frames / "000003.bin").write_bytes((frames / "000000.bin").read_bytes())
        write_labels({"000003": []}, labels)
        caplog.clear()
        assert main(["merge", "--config", str(path)]) == 2
        assert (
            f"dataset 'site_a': malformed frame file {bad}: {64 + resize} bytes, "
            "but the sensor's 4 beams take 64 (16 bytes each)"
        ) in caplog.text
        assert _tree_bytes(tmp_path / "merged") == before
        assert not list((tmp_path / "merged").rglob("*.partial"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "point, label_x, scale, blamed",
        [(10.0, None, 1e38, "frames"), (1e30, None, 1e300, "frames"), (0.0, 1e308, 10.0, "labels")],
        ids=["float32-overflow", "float64-overflow", "label-overflow"],
    )
    def test_merge_overflow_is_data_error(self, tmp_path, caplog, point, label_x, scale, blamed):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        np.array([[point, 0.0, 0.0, 0.0]] * 4, dtype="<f4").tofile(frames / "000000.bin")
        write_labels({"000000": [] if label_x is None else [
            ObjectLabel(label_x, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0, LabelClass.VEHICLE, 1.0),
        ]}, labels)
        path = self._merge_config(tmp_path, frames, labels, {"scale": scale})
        assert main(["merge", "--config", str(path)]) == 2
        blamed_file = frames / "000000.bin" if blamed == "frames" else labels / "000000.txt"
        assert f"dataset 'site_a': cannot merge {blamed_file}: " in caplog.text
        if blamed == "labels":
            assert "label field center_x must be finite" in caplog.text
        assert not (tmp_path / "merged" / "site_a" / "frames").exists()
        assert not list((tmp_path / "merged").rglob("*.partial"))

    def test_parallel_annotate_matches_sequential(self, scene_dir, tmp_path):
        entries = [_entry(scene_dir, "a"), _entry(scene_dir, "b", d_threshold=0.3)]
        seq_cfg = PipelineConfig(datasets=entries, output_root=tmp_path / "seq", parallelism=1)
        par_cfg = PipelineConfig(datasets=entries, output_root=tmp_path / "par", parallelism=2)
        seq_results, seq_fail = run_annotate(seq_cfg)
        par_results, par_fail = run_annotate(par_cfg)
        assert not seq_fail and not par_fail
        assert seq_results == par_results
        for name in ("a", "b"):
            s = sorted((tmp_path / "seq" / name / "labels").glob("*.txt"))
            p = sorted((tmp_path / "par" / name / "labels").glob("*.txt"))
            assert [f.read_bytes() for f in s] == [f.read_bytes() for f in p]

    def test_flags_only_where_honoured(self):
        parser = build_parser()
        args = parser.parse_args(["annotate", "--config", "c.json", "--jobs", "2"])
        assert args.jobs == 2
        assert parser.parse_args(["simulate", "--seed", "7"]).seed == 7
        for argv in (
            ["annotate", "--seed", "1"], ["simulate", "--jobs", "2"],
            ["merge", "--seed", "1"], ["merge", "--jobs", "2"],
            ["evaluate", "--seed", "1"], ["evaluate", "--jobs", "2"],
            ["iterate", "--seed", "1"], ["iterate", "--jobs", "2"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [[], ["nope"], ["annotate", "--jobs", "x"], ["annotate", "--bogus"]],
        ids=["no-command", "unknown-command", "jobs-not-int", "unknown-flag"],
    )
    def test_usage_error_is_exit_1(self, argv):
        assert main(argv) == 1

    def test_help_is_exit_0(self, capsys):
        assert main(["annotate", "--help"]) == 0
        assert "--jobs" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["annotate", "merge"])
    @pytest.mark.parametrize("corrupt", list(_CORRUPTIONS), ids=list(_CORRUPTIONS))
    def test_bad_frame_file_is_data_error(self, tmp_path, caplog, command, corrupt):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        rng = np.random.default_rng(70)
        for k in range(8):
            rec = np.zeros((16, 4), dtype="<f4")
            rec[:, :3] = rng.uniform((1.0, -10.0, 0.0), (20.0, 10.0, 5.0), (16, 3))
            rec[[3, 9]] = 0.0  # beams without a return
            rec.tofile(frames / f"{k:06d}.bin")
        write_labels({f"{k:06d}": [] for k in range(8)}, labels)
        sensor = {"rays_horizontal": 4, "rays_vertical": 4}
        config = {
            "annotate": {"output_root": str(tmp_path / "out"), "datasets": [{
                "name": "site_a", "frames": str(frames), "sensor": sensor,
                "teacher": {"n_query": 4, "n_bin": 10, "n_tall": 3, "d_threshold": 0.2,
                            "epsilon": 0.7, "min_pts": 5, "l_min": 0.3, "h_min": 0.5,
                            "beta_min": 0.2,
                            "crop": {"x_min": 0, "x_max": 40, "y_min": -25, "y_max": 25,
                                     "z_min": -1, "z_max": 8}},
            }]},
            "merge": {"output_root": str(tmp_path / "out"), "inputs": [{
                "name": "site_a", "frames": str(frames), "labels": str(labels), "sensor": sensor,
                "transform": {"translation": [5.0, 0.0, 0.0]},
            }]},
        }[command]
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 0
        before = _tree_bytes(tmp_path / "out")
        bad = frames / "000005.bin"
        rec = np.fromfile(bad, dtype="<f4").reshape(-1, 4)
        _CORRUPTIONS[corrupt](rec).tofile(bad)
        caplog.clear()
        assert main([command, "--config", str(path)]) == 2
        assert caplog.text.count(str(bad)) == 1  # named, and logged once
        assert _tree_bytes(tmp_path / "out") == before

    @pytest.mark.parametrize("unit_scale, message", [
        (1e140, "a point's range overflows float64 at unit_scale 1e+140"),
        (1e100, "a point lies 2**53 or more cells of side epsilon/sqrt(3) from the origin (epsilon 0.7)"),
    ], ids=["range", "cell-key"])
    def test_point_past_float64_or_the_cell_grid_is_data_error(self, tmp_path, caplog, unit_scale, message):
        # 1e30 m scaled by 1e140 has no finite range; scaled by 1e100 it has,
        # but its DBSCAN cell key is past 2**53.  Either exits 2 naming the
        # frame file, with no warning and nothing published.
        frames = tmp_path / "frames"
        frames.mkdir()
        for k in range(3):
            rec = np.zeros((4, 4), dtype="<f4")
            rec[:, :3] = [[1.0, 1.0, 0.0], [2.0, 1.0, 0.0], [3.0, 1.0, 0.0], [4.0, 1.0, 0.0]]
            if k == 2:
                rec[0, 0] = 1e30
            rec.tofile(frames / f"{k:06d}.bin")
        huge = {f"{axis}_{end}": sign * 1e300 for axis in "xyz" for end, sign in (("min", -1), ("max", 1))}
        config = {"output_root": str(tmp_path / "out"), "datasets": [{
            "name": "site_a", "frames": str(frames),
            "sensor": {"rays_horizontal": 4, "rays_vertical": 1, "unit_scale": unit_scale},
            "teacher": {"n_query": 2, "n_bin": 10, "n_tall": 3, "d_threshold": 0.2, "epsilon": 0.7,
                        "min_pts": 5, "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2, "crop": huge},
        }]}
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(config))
        caplog.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["annotate", "--config", str(path)]) == 2
        assert f"frame file {frames / '000002.bin'}: {message}" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corrupt", ["truncated", "nan-coordinate"])
    def test_bad_frame_after_the_query_window_is_data_error(self, scene_dir, tmp_path, caplog, corrupt):
        out, spec = scene_dir
        frames = tmp_path / "frames"
        shutil.copytree(out / "frames", frames)
        cfg = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        cfg["datasets"][0]["frames"] = str(frames)
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(cfg))
        assert main(["annotate", "--config", str(path)]) == 0
        before = _tree_bytes(tmp_path / "out")
        # A shorter query window gives another model and other labels, so
        # any output written before the bad frame was reached would show.
        cfg["datasets"][0]["teacher"]["n_query"] = 5
        path.write_text(json.dumps(cfg))
        bad = sorted(frames.glob("*.bin"))[spec.duration - 3]  # read late in the frame loop
        rec = np.fromfile(bad, dtype="<f4")
        if corrupt == "truncated":
            rec = rec[: len(rec) // 2]
        else:
            rec[4 * 100 + 1] = np.nan  # beam 100's y
        rec.tofile(bad)
        caplog.clear()
        assert main(["annotate", "--config", str(path)]) == 2
        assert caplog.text.count(str(bad)) == 1
        assert _tree_bytes(tmp_path / "out") == before
        assert not list(tmp_path.rglob("*.partial"))

    def test_n_query_beyond_the_frame_count_is_data_error(self, scene_dir, tmp_path, caplog):
        _, spec = scene_dir
        cfg = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        cfg["datasets"][0]["teacher"]["n_query"] = spec.duration + 1
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(cfg))
        assert main(["annotate", "--config", str(path)]) == 2
        assert f"n_query {spec.duration + 1} exceeds sequence length {spec.duration}" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["annotate", "merge", "evaluate", "iterate"])
    def test_missing_config_is_config_error(self, command):
        assert main([command]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_config_error(self, scene_dir, tmp_path, jobs):
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(TestConfigParsing()._config_dict(scene_dir, tmp_path)))
        assert main(["annotate", "--config", str(path), "--jobs", jobs]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, where, value",
        [
            ("annotate", ("datasets", 0, "sensor"), [240, 185]),
            ("annotate", ("datasets", 0, "transform"), "shifted"),
            ("annotate", ("datasets", 0, "transform"), {"translation": [1, 2, 3], "scale": 1.0}),
            ("annotate", ("datasets", 0, "sensor", "unit_scale"), float("nan")),
            ("annotate", ("datasets", 0, "sensor", "unit_scale"), float("inf")),
            ("merge", ("inputs", 0, "transform"), [50.0, 0.0, 0.0]),
            ("merge", ("inputs", 0, "transform"), {"translation": [50.0, 0.0]}),
            ("merge", ("inputs", 0, "transform"), {"scale": float("inf")}),
            ("merge", ("inputs", 0, "sensor", "unit_scale"), float("nan")),
            ("simulate", (), []),
            ("simulate", ("sensor",), [0.0, 0.0, 3.0]),
            ("simulate", ("sensor", "origin"), [0.0, 3.0]),
            ("evaluate", (), []),
            ("evaluate", ("thresholds",), [float("nan")]),
            ("evaluate", ("thresholds",), [2.0]),
            ("evaluate", ("thresholds",), []),
            ("evaluate", ("thresholds",), [0.5, 0.5]),
            ("evaluate", ("thresholds",), [0.501, 0.504]),
            ("iterate", (), []),
            ("iterate", ("score_threshold",), float("nan")),
            ("iterate", ("score_threshold",), 1.5),
            ("annotate", ("datasets", 0, "teacher", "epsilon"), True),
            ("annotate", ("datasets", 0, "teacher", "d_threshold"), "0.2"),
            ("annotate", ("datasets", 0, "sensor", "unit_scale"), True),
            ("annotate", ("datasets", 0, "teacher", "crop", "x_min"), "0"),
            ("annotate", ("datasets", 0, "name"), None),
            ("annotate", ("datasets", 0, "name"), 5),
            ("annotate", ("datasets", 0, "background_model_in"), ""),
            ("annotate", ("datasets", 0, "background_model_in"), False),
            ("annotate", ("datasets", 0, "background_model_in"), 0),
            ("annotate", ("datasets", 0, "frames"), ""),
            ("annotate", ("datasets", 0, "frames"), "fra\0mes"),
            ("annotate", ("output_root",), "o\0ut"),
            ("merge", ("inputs", 0, "transform", "scale"), True),
            ("merge", ("inputs", 0, "transform", "translation"), ["1", 0, 0]),
            ("merge", ("inputs", 0, "transform"), None),
            ("merge", ("inputs", 0, "labels"), "lab\0els"),
            ("merge", ("output_root",), "mer\0ged"),
            ("evaluate", ("thresholds",), [True, 0.5]),
            ("evaluate", ("report",), "r\0.txt"),
            ("iterate", ("score_threshold",), "0.5"),
            ("iterate", ("workspace",), "w\0s"),
            ("simulate", ("sensor", "frequency_hz"), True),
            ("simulate", ("actors", 0, "speed"), True),
            ("simulate", ("actors", 0, "radius"), "0.3"),
            ("simulate", ("static", 0, "z"), "0"),
            ("evaluate", ("thresholds",), 0.5),
            ("evaluate", ("thresholds",), "0.5"),
            ("annotate", ("datasets", 0), 5),
            ("merge", ("inputs", 0), [1]),
            ("annotate", (), []),
            ("merge", (), []),
            ("annotate", ("datasets",), 5),
            ("annotate", ("datasets",), {"name": "site_a"}),
            ("merge", ("inputs",), "abc"),
            ("simulate", ("static",), {"type": "ground"}),
            ("simulate", ("static", 0), 3),
            ("simulate", ("actors", 0, "waypoints"), 5),
        ],
        ids=[
            "annotate-sensor-list", "annotate-transform-string", "annotate-transform",
            "annotate-unit_scale-nan", "annotate-unit_scale-infinite",
            "merge-transform-list", "merge-translation-short", "merge-scale-infinite",
            "merge-unit_scale-nan", "simulate-list",
            "simulate-sensor-list", "simulate-origin-short",
            "evaluate-list", "evaluate-threshold-nan", "evaluate-threshold-above-1",
            "evaluate-thresholds-empty", "evaluate-thresholds-repeated",
            "evaluate-thresholds-equal-at-two-decimals",
            "iterate-list", "iterate-score-nan", "iterate-score-above-1",
            "annotate-epsilon-bool", "annotate-d_threshold-string", "annotate-unit_scale-bool",
            "annotate-x_min-string", "annotate-name-null", "annotate-name-number",
            "annotate-background_model_in-empty", "annotate-background_model_in-false",
            "annotate-background_model_in-zero", "annotate-frames-empty", "annotate-frames-nul",
            "annotate-output_root-nul", "merge-scale-bool", "merge-translation-string",
            "merge-transform-null", "merge-labels-nul", "merge-output_root-nul",
            "evaluate-thresholds-bool", "evaluate-report-nul", "iterate-score-string",
            "iterate-workspace-nul", "simulate-frequency_hz-bool", "simulate-actor-speed-bool",
            "simulate-actor-radius-string", "simulate-ground-z-string",
            "evaluate-thresholds-number", "evaluate-thresholds-string", "annotate-dataset-number",
            "merge-input-list", "annotate-list", "merge-list", "annotate-datasets-number",
            "annotate-datasets-object", "merge-inputs-string", "simulate-static-object",
            "simulate-static-number", "simulate-waypoints-number",
        ],
    )
    def test_malformed_config_is_config_error(
        self, scene_dir, tmp_path, caplog, command, where, value
    ):
        path, argv = self._edited_config(scene_dir, tmp_path, command, where, value)
        assert main(argv) == 1
        assert str(path) in caplog.text
        assert "Traceback" not in caplog.text
        message = caplog.text.split(str(path))[-1]
        if not where:  # a whole config is named by its kind
            assert f"{command} config must be a JSON object" in message
        elif isinstance(where[-1], int):  # a list entry by its list's key and index
            assert f"{where[-2]}[{where[-1]}]" in message
        elif not (where[-1] == "transform" and isinstance(value, dict)):  # the field or section at fault
            assert re.search(rf"\b{where[-1]}\b", message)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, "pred", "truth"])

    @pytest.mark.parametrize(
        "command, where, value",
        [
            ("annotate", ("datasets", 0, "sensor", "rays_horizontal"), 120.5),
            ("annotate", ("datasets", 0, "sensor", "rays_vertical"), "80"),
            ("annotate", ("datasets", 0, "teacher", "n_query"), True),
            ("annotate", ("datasets", 0, "teacher", "n_bin"), "10"),
            ("annotate", ("datasets", 0, "teacher", "n_tall"), True),
            ("annotate", ("datasets", 0, "teacher", "min_pts"), 5.5),
            ("annotate", ("parallelism",), float("nan")),
            ("merge", ("inputs", 0, "sensor", "rays_horizontal"), True),
            ("merge", ("inputs", 0, "sensor", "rays_vertical"), 80.5),
            ("simulate", ("duration",), 2.9),
            ("simulate", ("sensor", "azimuth_count"), 20.7),
            ("simulate", ("sensor", "elevation_count"), "4"),
            ("simulate", ("seed",), True),
            ("simulate", ("min_truth_points",), float("nan")),
        ],
        ids=[
            "annotate-rays_horizontal-fraction", "annotate-rays_vertical-string",
            "annotate-n_query-bool", "annotate-n_bin-string", "annotate-n_tall-bool",
            "annotate-min_pts-fraction", "annotate-parallelism-nan",
            "merge-rays_horizontal-bool", "merge-rays_vertical-fraction",
            "simulate-duration-fraction", "simulate-azimuth_count-fraction",
            "simulate-elevation_count-string", "simulate-seed-bool", "simulate-min_truth_points-nan",
        ],
    )
    def test_non_integral_count_is_config_error(self, scene_dir, tmp_path, caplog, command, where, value):
        path, argv = self._edited_config(scene_dir, tmp_path, command, where, value)
        assert main(argv) == 1
        assert str(path) in caplog.text
        assert f"{where[-1]} must be an integer, got {value!r}" in caplog.text
        assert not (tmp_path / "rendered").exists() and not (tmp_path / "out").exists()

    def test_integral_float_count_is_accepted(self, tmp_path):
        scene = {**self._scene_config(), "duration": 2.0}
        scene["sensor"]["azimuth_count"] = 20.0
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(scene))
        out = tmp_path / "rendered"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(list((out / "frames").glob("*.bin"))) == 2
        assert (out / "frames" / "000001.bin").stat().st_size == 20 * 10 * 16

    def test_integral_number_is_accepted_for_a_float_field(self, scene_dir, tmp_path):
        config = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        config["datasets"][0]["sensor"]["unit_scale"] = 1
        config["datasets"][0]["teacher"]["epsilon"] = 1
        assert config["datasets"][0]["teacher"]["crop"]["x_min"] == 0
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(config))
        (entry,) = parse_pipeline_config(path).datasets
        values = (entry.meta.unit_scale, entry.teacher.epsilon, entry.teacher.crop.x_min)
        assert values == (1.0, 1.0, 0.0) and all(type(v) is float for v in values)

    def _edited_config(self, scene_dir, tmp_path, command, where, value):
        """A valid ``command`` config with the field at ``where`` set to
        ``value`` (the whole config when ``where`` is empty); its path and argv."""
        # real label directories, so a config that passed would exit 0
        write_labels({"000000": []}, tmp_path / "pred")
        write_labels({"000000": []}, tmp_path / "truth")
        config = {
            "annotate": TestConfigParsing()._config_dict(scene_dir, tmp_path),
            "merge": {
                "output_root": str(tmp_path / "merged"),
                "inputs": [{
                    "name": "site_a", "frames": "frames", "labels": "labels",
                    "sensor": {"rays_horizontal": 120, "rays_vertical": 80},
                    "transform": {"translation": [0, 0, 0], "scale": 1.0},
                }],
            },
            "simulate": {"duration": 1, "sensor": {"azimuth_count": 8, "elevation_count": 4},
                         "static": [{"type": "ground"}], "actors": [_actor()]},
            "evaluate": {"pred_dir": str(tmp_path / "pred"), "truth_dir": str(tmp_path / "truth")},
            "iterate": {"predictions": str(tmp_path / "pred"), "workspace": str(tmp_path / "ws")},
        }[command]
        if where:
            parent = config
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = value
        else:
            config = value
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "rendered")]
        return path, argv

    @pytest.mark.parametrize("field", ["d_threshold", "epsilon", "l_min", "h_min", "beta_min"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_teacher_threshold_is_config_error(self, scene_dir, tmp_path, caplog, field, value):
        # json.dumps writes the NaN and Infinity literals that json.loads accepts
        config = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        config["datasets"][0]["teacher"][field] = value
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(config))
        assert main(["annotate", "--config", str(path)]) == 1
        assert f"{field} must be finite and positive" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "where",
        [("teacher", "epsilon"), ("teacher", "min_pts"), ("sensor", "rays_vertical"), ("teacher", "crop", "z_max")],
        ids=["teacher-epsilon", "teacher-min_pts", "sensor-rays_vertical", "crop-z_max"],
    )
    def test_missing_required_field_is_config_error(self, scene_dir, tmp_path, caplog, where):
        config = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        section = config["datasets"][0]
        for key in where[:-1]:
            section = section[key]
        del section[where[-1]]
        path = tmp_path / "annotate.json"
        path.write_text(json.dumps(config))
        assert main(["annotate", "--config", str(path)]) == 1
        assert str(path) in caplog.text
        assert f"'{where[-1]}'" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        assert main(["annotate", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "too-deep"]
    )
    def test_undecodable_config_is_config_error(self, tmp_path, caplog, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["evaluate", "--config", str(path)]) == 1
        assert str(path) in caplog.text

    def test_missing_data_is_data_error(self, tmp_path):
        eval_cfg = {
            "pred_dir": str(tmp_path / "nope"),
            "truth_dir": str(tmp_path / "nope2"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(eval_cfg))
        assert main(["evaluate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("manifest", ["directory", b"\xff\xfe", b"{}", b"[]"])
    def test_unreadable_manifest_is_data_error(self, tmp_path, manifest):
        rng = np.random.default_rng(55)
        write_labels(_prediction_labels(rng, score=lambda r: 1.0), tmp_path / "preds")
        manifest_path = tmp_path / "ws" / "manifest.json"
        if manifest == "directory":
            manifest_path.mkdir(parents=True)
        else:
            manifest_path.parent.mkdir()
            manifest_path.write_bytes(manifest)
        cfg = {"predictions": str(tmp_path / "preds"), "workspace": str(tmp_path / "ws")}
        path = tmp_path / "iterate.json"
        path.write_text(json.dumps(cfg))
        assert main(["iterate", "--config", str(path)]) == 2
        assert not (tmp_path / "ws" / "round_001").exists()

    @staticmethod
    def _scene_config():
        return {
            "duration": 2,
            "seed": 3,
            "sensor": {
                "origin": [0, 0, 3.0], "azimuth_deg": [-10, 10], "azimuth_count": 20,
                "elevation_deg": [-15, -5], "elevation_count": 10, "max_range": 40,
            },
            "static": [{"type": "ground"}],
            "actors": [],
        }

    def test_simulate_writes_outputs(self, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(self._scene_config()))
        out = tmp_path / "rendered"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(list((out / "frames").glob("*.bin"))) == 2
        assert len(list((out / "masks").glob("*.mask"))) == 2

    @pytest.mark.parametrize("edit, flags, message", [
        (lambda scene: None, ["--seed", "-1"], "seed must be >= 0"),
        (lambda scene: scene.update(seed=-1), [], "seed must be >= 0"),
        (lambda scene: scene["actors"].append({
            "shape": "cylinder", "radius": 0.3, "height": 1.7,
            "waypoints": [[10, 0], [12, 0]], "speed": float("nan"),
        }), [], "actor speed must be finite and positive"),
        (lambda scene: scene["static"][0].update(jitter_sigma=-1.0), [], "jitter_sigma must be >= 0"),
        (lambda scene: scene["static"][0].update(jitter_sigma=float("nan")), [], "jitter_sigma must be >= 0"),
        (lambda scene: scene["sensor"].update(origin=[0, float("nan"), 3.0]), [], "origin must be finite"),
        (lambda scene: scene["sensor"].update(origin=[float("inf"), 0, 3.0]), [], "origin must be finite"),
        (lambda scene: scene["sensor"].update(range_noise_sigma=NAN), [], "range_noise_sigma must be >= 0"),
        (lambda scene: scene["sensor"].update(frequency_hz=NAN), [], "frequency_hz must be finite and positive"),
        (lambda scene: scene["sensor"].update(max_range=NAN), [], "max_range must be finite and positive"),
        (lambda scene: scene["sensor"].update(azimuth_deg=[-10, NAN]), [], "azimuth_deg must be finite"),
        (lambda scene: scene["actors"].append(_actor(start_time=NAN)), [], "start_time must be >= 0"),
        (lambda scene: scene["actors"].append(_actor(waypoints=[[10, 0], [12, NAN]])), [],
         "actor waypoints must be finite"),
        (lambda scene: scene["actors"].append(_actor(shape="cuboid", length=4.0, width=NAN, height=1.5)), [],
         "cuboid dims must be finite and positive"),
        (lambda scene: scene["actors"].append(_actor(radius=NAN)), [], "cylinder dims must be finite and positive"),
        (lambda scene: scene["static"][0].update(z=NAN), [], "ground z must be finite"),
        (lambda scene: scene["static"].append({"type": "box", "center": [20, 0, 2], "dims": [1, NAN, 4]}), [],
         "box dims must be finite and positive"),
        (lambda scene: scene["static"].append({"type": "cylinder", "center": [15, 2], "radius": NAN, "z_high": 3}),
         [], "cylinder radius must be finite and positive"),
        (lambda scene: scene["static"].append(
            {"type": "cylinder", "center": [15, 2], "radius": 0.5, "z_low": 5, "z_high": 1}),
         [], "cylinder z_low must be below z_high, got 5.0 and 1.0"),
        (lambda scene: scene["static"].append(
            {"type": "cylinder", "center": [15, 2], "radius": 0.5, "z_low": 2, "z_high": 2}),
         [], "cylinder z_low must be below z_high, got 2.0 and 2.0"),
    ], ids=["seed-flag", "seed-field", "nan-speed", "negative-jitter", "nan-jitter",
            "nan-origin", "inf-origin", "nan-range-noise", "nan-frequency", "nan-max-range",
            "nan-azimuth", "nan-start-time", "nan-waypoint", "nan-cuboid-width", "nan-cylinder-radius",
            "nan-ground-z", "nan-box-dims", "nan-static-cylinder-radius",
            "upside-down-cylinder", "flat-cylinder"])
    def test_bad_scene_value_is_config_error(self, tmp_path, caplog, edit, flags, message):
        scene = self._scene_config()
        edit(scene)
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(scene))
        out = tmp_path / "rendered"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 1
        assert message in caplog.text
        assert not out.exists()

    def test_iterate_cli(self, tmp_path):
        rng = np.random.default_rng(54)
        preds = _prediction_labels(rng, score=lambda r: 1.0)
        pred_dir = tmp_path / "preds"
        write_labels(preds, pred_dir)
        cfg = {"predictions": str(pred_dir), "workspace": str(tmp_path / "ws")}
        path = tmp_path / "iterate.json"
        path.write_text(json.dumps(cfg))
        assert main(["iterate", "--config", str(path)]) == 0
        assert (tmp_path / "ws" / "round_001").is_dir()


# The config field each command publishes its outputs under (simulate's is --out).
_OUTPUT_KEYS = {"annotate": "output_root", "merge": "output_root", "evaluate": "report", "iterate": "workspace"}


class TestExitPaths:
    """A failure on an input or an output, an OSError included, is exit 2 with
    no traceback, no ``.partial`` left and the previous outputs as they were."""

    @staticmethod
    def _argv(tmp_path, command, config, out="rendered"):
        """The argv that runs ``command`` on ``config``, written to a file;
        ``out`` is simulate's output directory, relative to ``tmp_path``."""
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        flags = ["--out", str(tmp_path / out)] if command == "simulate" else []
        return [command, "--config", str(path), *flags]

    def _world(self, scene_dir, tmp_path):
        """Each command's config, after one run of each has exited 0."""
        out, _ = scene_dir
        annotate = TestConfigParsing()._config_dict(scene_dir, tmp_path)
        labels = str(tmp_path / "out" / "site_a" / "labels")
        configs = {
            "annotate": annotate,
            "merge": {"output_root": str(tmp_path / "merged"), "inputs": [{
                "name": "site_a", "frames": str(out / "frames"), "labels": labels,
                "sensor": annotate["datasets"][0]["sensor"],
            }]},
            "evaluate": {"pred_dir": labels, "truth_dir": str(out / "truth"), "report": str(tmp_path / "report.txt")},
            "iterate": {"predictions": labels, "workspace": str(tmp_path / "ws")},
            "simulate": TestCli._scene_config(),
        }
        for command, config in configs.items():
            assert main(self._argv(tmp_path, command, config)) == 0, command
        return configs

    @staticmethod
    def _snapshot(tmp_path):
        """Every path under ``tmp_path``, directories included, and every file's bytes."""
        return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")), _tree_bytes(tmp_path)

    def _assert_kept(self, tmp_path, before, caplog, capsys):
        assert self._snapshot(tmp_path) == before
        assert not list(tmp_path.rglob("*.partial"))
        assert "Traceback" not in caplog.text + capsys.readouterr().err

    @pytest.mark.parametrize("command", ["annotate", "merge", "evaluate", "iterate", "simulate"])
    def test_output_under_a_regular_file_is_data_error(self, scene_dir, tmp_path, caplog, capsys, command):
        configs = self._world(scene_dir, tmp_path)
        (tmp_path / "blocker").write_text("a regular file\n")
        if command in _OUTPUT_KEYS:
            configs[command][_OUTPUT_KEYS[command]] = str(tmp_path / "blocker" / "inner")
        argv = self._argv(tmp_path, command, configs[command], out="blocker/inner")
        before = self._snapshot(tmp_path)
        caplog.clear()
        assert main(argv) == 2
        assert "Not a directory" in caplog.text
        self._assert_kept(tmp_path, before, caplog, capsys)

    @pytest.mark.parametrize("command", ["evaluate", "iterate", "merge"])
    def test_label_file_that_is_not_utf8_is_data_error(self, scene_dir, tmp_path, caplog, capsys, command):
        configs = self._world(scene_dir, tmp_path)
        bad = sorted((tmp_path / "out" / "site_a" / "labels").glob("*.txt"))[1]
        bad.write_bytes(b"Vehicle \xff\n")
        argv = self._argv(tmp_path, command, configs[command])
        before = self._snapshot(tmp_path)
        caplog.clear()
        assert main(argv) == 2
        assert f"cannot read label file {bad}" in caplog.text
        self._assert_kept(tmp_path, before, caplog, capsys)

    def test_merge_label_file_without_a_frame_is_data_error(self, scene_dir, tmp_path, caplog, capsys):
        configs = self._world(scene_dir, tmp_path)
        labels = tmp_path / "out" / "site_a" / "labels"
        (labels / "999999.txt").write_text("")
        (labels / "999998.txt").write_text("")
        argv = self._argv(tmp_path, "merge", configs["merge"])
        before = self._snapshot(tmp_path)
        assert main(argv) == 2
        assert "dataset 'site_a': no frame for label files: 999998, 999999" in caplog.text
        self._assert_kept(tmp_path, before, caplog, capsys)

    @pytest.mark.parametrize("command", ["annotate", "merge"])
    def test_failure_under_a_fresh_output_root_leaves_no_directory(
        self, scene_dir, tmp_path, caplog, capsys, command
    ):
        configs = self._world(scene_dir, tmp_path)
        frames = tmp_path / "frames"
        shutil.copytree(scene_dir[0] / "frames", frames)
        last = sorted(frames.glob("*.bin"))[-1]  # after the query window, inside the publish block
        last.write_bytes(last.read_bytes()[:-16])
        config = configs[command]
        config["datasets" if command == "annotate" else "inputs"][0]["frames"] = str(frames)
        config["output_root"] = str(tmp_path / "fresh" / "root")
        argv = self._argv(tmp_path, command, config)
        before = self._snapshot(tmp_path)
        caplog.clear()
        assert main(argv) == 2
        assert f"malformed frame file {last}" in caplog.text
        self._assert_kept(tmp_path, before, caplog, capsys)

    @pytest.mark.parametrize("name", ["index.txt", ".index.txt.partial"])
    def test_merge_input_named_as_the_index_is_config_error(self, scene_dir, tmp_path, caplog, capsys, name):
        configs = self._world(scene_dir, tmp_path)
        configs["merge"]["inputs"][0]["name"] = name
        for root in ("merged", "fresh"):
            configs["merge"]["output_root"] = str(tmp_path / root)
            argv = self._argv(tmp_path, "merge", configs["merge"])
            before = self._snapshot(tmp_path)
            caplog.clear()
            assert main(argv) == 1
            assert f"merge input name {name!r} is reserved" in caplog.text
            self._assert_kept(tmp_path, before, caplog, capsys)

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "./s", "a\\b", "site a", "tab\tname", "line\nbreak"])
    @pytest.mark.parametrize("command, field", [("annotate", "dataset"), ("merge", "merge input")])
    def test_name_that_is_not_one_path_component_is_config_error(
        self, scene_dir, tmp_path, caplog, command, field, name
    ):
        out, spec = scene_dir
        config = {
            "annotate": TestConfigParsing()._config_dict(scene_dir, tmp_path / "root"),
            "merge": {"output_root": str(tmp_path / "root" / "merged"), "inputs": [{
                "frames": str(out / "frames"), "labels": str(out / "truth"),
                "sensor": {"rays_horizontal": spec.sensor.azimuth_count,
                           "rays_vertical": spec.sensor.elevation_count},
            }]},
        }[command]
        config["datasets" if command == "annotate" else "inputs"][0]["name"] = name
        argv = self._argv(tmp_path, command, config)
        assert main(argv) == 1
        assert f"{field} name {name!r} must be one plain path component" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{command}.json"]
