"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output).  Tolerances are pinned here and
nowhere else; the expensive default-scene pipeline is computed once and
shared by the criteria that need it.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from roadlidar.annotate import annotate_frame, fit_boxes
from roadlidar.background import (
    build_histogram,
    extract_query_frames,
    filter_frame,
    select_background,
)
from roadlidar.cli import main
from roadlidar.clustering import dbscan, dbscan_labels
from roadlidar.core import (
    CropBounds,
    Frame,
    FrameSequence,
    LabelClass,
    ObjectLabel,
    SensorMeta,
    TeacherConfig,
    write_labels,
)
from roadlidar.evaluate import average_precision, evaluate_labels, iou_matrices
from roadlidar.pipeline import iterate
from roadlidar.simulate import (
    MASK_BACKGROUND,
    MASK_FOREGROUND,
    default_scene,
    render_sequence,
    static_scene,
    write_scene_outputs,
)

from oracles import (
    brute_dbscan,
    canonical_partition,
    naive_filter,
    naive_histogram,
    naive_select_tall,
    pairs_dbscan,
)

META = SensorMeta(2, 2)


def _removed(frame, model, d_threshold):
    return filter_frame(frame, model, d_threshold).padding & ~frame.padding


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {description}")
        raise
    print(f"[criterion {number:02d}] PASS {description}")


def _random_instances(seed=1234, count=200):
    """Shared random instances for the two algorithm-equivalence criteria."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        n_query = int(rng.integers(1, 21))
        n_total = int(rng.integers(1, 101))
        n_bin = int(rng.integers(1, 9))
        n_tall = int(rng.integers(1, n_bin + 1))
        frames = []
        for t in range(1, n_query + 1):
            xyz = rng.uniform(-40, 40, (n_total, 3))
            pad = rng.random(n_total) < 0.08
            frozen = rng.random(n_total) < 0.2
            if frames:
                xyz[frozen] = frames[0].xyz[frozen]
                pad[frozen] = frames[0].padding[frozen]
            xyz[pad] = 0.0
            frames.append(Frame(t, xyz, pad))
        seq = FrameSequence(frames, META)
        thr = float(rng.uniform(0.05, 4.0))
        instances.append((seq, n_bin, n_tall, thr))
    return instances


@pytest.fixture(scope="module")
def algorithm_instances():
    return _random_instances()


DEFAULT_TEACHER = dict(
    n_query=50, n_bin=10, n_tall=3, d_threshold=0.2,
    epsilon=0.7, min_pts=5, l_min=0.3, h_min=0.5, beta_min=0.2,
)


@pytest.fixture(scope="module")
def default_run():
    """Render the default scene and run the full teacher over it once.

    Records the elapsed time of the fidelity portion (render, model build,
    filtering, mask bookkeeping) separately so criterion 4 can assert its
    runtime budget.
    """
    spec = default_scene()
    cfg = TeacherConfig(
        n_total=spec.sensor.beam_count,
        crop=CropBounds(0.0, 45.0, -30.0, 30.0, -1.0, 10.0),
        **DEFAULT_TEACHER,
    )
    t0 = time.time()
    seq, masks, truths = render_sequence(spec)
    query = extract_query_frames(seq, cfg.n_query)
    model = select_background(build_histogram(query, cfg.n_bin), cfg.n_tall)
    bg_removed = bg_total = fg_kept = fg_total = 0
    filtered_frames = []
    for frame, mask in zip(seq.frames, masks):
        filtered = filter_frame(frame, model, cfg.d_threshold)
        removed = filtered.padding & ~frame.padding
        bg = mask == MASK_BACKGROUND
        fg = mask == MASK_FOREGROUND
        bg_total += int(bg.sum())
        fg_total += int(fg.sum())
        bg_removed += int((removed & bg).sum())
        fg_kept += int((fg & ~removed).sum())
        filtered_frames.append(filtered)
    fidelity_seconds = time.time() - t0

    preds = {}
    truth_by_stem = {}
    for frame, stem, truth in zip(filtered_frames, seq.stems, truths):
        clusters, _ = dbscan(frame, cfg.epsilon, cfg.min_pts)
        preds[stem] = annotate_frame(frame, clusters, cfg)
        truth_by_stem[stem] = truth
    return {
        "bg_recall": bg_removed / bg_total,
        "fg_recall": fg_kept / fg_total,
        "fg_total": fg_total,
        "fidelity_seconds": fidelity_seconds,
        "preds": preds,
        "truths": truth_by_stem,
        "foreground": [f.xyz[~f.padding] for f in filtered_frames],
    }


class TestAcceptance:
    def test_c01_histogram_matches_naive_transcription(self, algorithm_instances):
        with criterion(1, "histogram construction equals naive transcription on 200 instances"):
            t0 = time.time()
            for seq, n_bin, _, _ in algorithm_instances:
                hist = build_histogram(seq, n_bin)
                means, counts, d_mins, d_maxs, widths = naive_histogram(
                    [f.xyz for f in seq.frames], [f.padding for f in seq.frames], n_bin
                )
                np.testing.assert_array_equal(hist.bin_count, np.array(counts))
                np.testing.assert_array_equal(hist.bin_mean, np.array(means))
                np.testing.assert_array_equal(hist.d_min, np.array(d_mins))
                np.testing.assert_array_equal(hist.d_max, np.array(d_maxs))
                np.testing.assert_array_equal((hist.d_max - hist.d_min) / n_bin, np.array(widths))
            elapsed = time.time() - t0
            assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s (budget 5s)"

    def test_c02_filter_matches_naive_transcription(self, algorithm_instances):
        with criterion(2, "background filtering equals naive transcription, point for point"):
            for seq, n_bin, n_tall, thr in algorithm_instances:
                hist = build_histogram(seq, n_bin)
                model = select_background(hist, n_tall)
                means, counts, *_ = naive_histogram(
                    [f.xyz for f in seq.frames], [f.padding for f in seq.frames], n_bin
                )
                tall = naive_select_tall(means, counts, n_tall)
                frame = seq.frames[0]
                got = filter_frame(frame, model, thr)
                removed = np.array(naive_filter(frame.xyz, frame.padding, tall, thr))
                np.testing.assert_array_equal(got.padding, frame.padding | removed)
                kept = ~(frame.padding | removed)
                np.testing.assert_array_equal(got.xyz[kept], frame.xyz[kept])
                np.testing.assert_array_equal(got.xyz[~kept], 0.0)

    def test_c03_static_scene_annihilation(self):
        with criterion(3, "zero-noise actor-free scene filters to all-padding at any threshold"):
            seq, _, _ = render_sequence(static_scene(duration=60))
            model = select_background(
                build_histogram(extract_query_frames(seq, 50), 10), 3
            )
            for thr in (1e-9, 1e-3, 0.2, 5.0):
                for frame in seq.frames:
                    assert filter_frame(frame, model, thr).padding.all()

    def test_c04_foreground_fidelity(self, default_run):
        with criterion(4, "default scene: background and foreground recall both >= 0.95 in < 60 s"):
            assert default_run["fg_total"] > 0
            assert default_run["bg_recall"] >= 0.95, f"bg recall {default_run['bg_recall']:.4f}"
            assert default_run["fg_recall"] >= 0.95, f"fg recall {default_run['fg_recall']:.4f}"
            assert default_run["fidelity_seconds"] < 60.0, (
                f"fidelity run took {default_run['fidelity_seconds']:.1f}s"
            )

    def test_c05_dbscan_matches_brute_force(self):
        with criterion(5, "grid DBSCAN equals brute-force partitions on 100 random frames"):
            rng = np.random.default_rng(77)
            for _ in range(100):
                n = int(rng.integers(1, 501))
                blob_share = rng.random()
                blobs = []
                remaining = n
                while remaining > 0 and blob_share > 0.2:
                    size = min(int(rng.integers(3, 40)), remaining)
                    center = rng.uniform(-10, 10, 3)
                    blobs.append(center + rng.normal(0, 0.3, (size, 3)))
                    remaining -= size
                    if rng.random() < 0.3:
                        break
                if remaining > 0:
                    blobs.append(rng.uniform(-10, 10, (remaining, 3)))
                pts = np.vstack(blobs)
                eps = float(rng.uniform(0.2, 1.5))
                min_pts = int(rng.integers(1, 9))
                got = dbscan_labels(pts, eps, min_pts)
                want = brute_dbscan(pts, eps, min_pts)
                assert canonical_partition(got) == canonical_partition(want)
                np.testing.assert_array_equal(got, want)

    def test_c06_box_fit_rotation_covariance(self):
        with criterion(6, "rotating 100 random clusters rotates yaw (1e-5) and keeps dims (1e-6)"):
            rng = np.random.default_rng(88)
            for _ in range(100):
                n = int(rng.integers(4, 120))
                scale = np.array([rng.uniform(1.5, 4.0), 1.0, rng.uniform(0.3, 2.0)])
                pts = rng.normal(0, 1.0, (n, 3)) * scale
                # rows: cx cy cz length width height yaw
                base = fit_boxes(pts, [np.arange(n)])[0]
                theta = float(rng.uniform(-math.pi, math.pi))
                c, s = math.cos(theta), math.sin(theta)
                rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                rotated = fit_boxes(pts @ rot.T, [np.arange(n)])[0]
                delta = (rotated[6] - base[6] - theta) % math.pi
                delta = min(delta, math.pi - delta)
                assert delta < 1e-5, f"yaw covariance off by {delta:.2e}"
                assert abs(rotated[3] - base[3]) < 1e-6
                assert abs(rotated[4] - base[4]) < 1e-6
                assert abs(rotated[5] - base[5]) < 1e-6

    def test_c07_end_to_end_pseudo_label_quality(self, default_run):
        with criterion(7, "teacher labels reach AP@0.5 >= 0.9 per class on the default scene"):
            report = evaluate_labels(default_run["preds"], default_run["truths"], (0.5,))
            for cls in LabelClass:
                rec = report.records[(cls, 0.5)]
                assert rec.tp + rec.fn > 0, f"{cls.value}: no reference objects in scene"
                assert rec.ap >= 0.9, f"{cls.value}: AP@0.5 = {rec.ap:.4f}"

    def test_c08_metric_sanity(self, default_run):
        with criterion(8, "perfect predictions score 1.0; hand-computed AP and IoU match to 1e-9"):
            truths = default_run["truths"]
            report = evaluate_labels(truths, truths, (0.25, 0.3, 0.5))
            for cls in LabelClass:
                for thr in (0.25, 0.3, 0.5):
                    rec = report.records[(cls, thr)]
                    assert rec.ap == pytest.approx(1.0, abs=1e-12)
                    assert rec.recall == pytest.approx(1.0, abs=1e-12)
            assert abs(average_precision([True, False, True], 2) - 5.0 / 6.0) < 1e-9
            a = ObjectLabel(0, 0, 0, 1, 1, 1, 0.0, LabelClass.VEHICLE, 1.0)
            b = ObjectLabel(0.5, 0, 0, 1, 1, 1, 0.0, LabelClass.VEHICLE, 1.0)
            assert abs(iou_matrices([([a], [b])])[0][0, 0] - 1.0 / 3.0) < 1e-9

    def test_c09_monotonicity_suite(self):
        with criterion(9, "threshold/tall-bin/IoU monotonicity holds over randomized trials"):
            rng = np.random.default_rng(99)
            # background set grows with d_threshold and with n_tall
            for _ in range(100):
                n_total = int(rng.integers(2, 60))
                n_query = int(rng.integers(2, 12))
                n_bin = int(rng.integers(2, 9))
                frames = [
                    Frame(t, rng.uniform(-20, 20, (n_total, 3)), np.zeros(n_total, dtype=bool))
                    for t in range(1, n_query + 1)
                ]
                seq = FrameSequence(frames, META)
                hist = build_histogram(seq, n_bin)
                probe = Frame(1, rng.uniform(-20, 20, (n_total, 3)), np.zeros(n_total, dtype=bool))
                t1, t2 = sorted(rng.uniform(0.05, 3.0, 2))
                model = select_background(hist, int(rng.integers(1, n_bin + 1)))
                m1 = _removed(probe, model, t1)
                m2 = _removed(probe, model, t2 + 1e-9)
                assert not (m1 & ~m2).any(), "background set shrank as d_threshold grew"
                a = int(rng.integers(1, n_bin))
                b = int(rng.integers(a + 1, n_bin + 1))
                thr = float(rng.uniform(0.05, 2.0))
                ma = _removed(probe, select_background(hist, a), thr)
                mb = _removed(probe, select_background(hist, b), thr)
                assert not (ma & ~mb).any(), "background set shrank as n_tall grew"
            # AP and recall never increase with the IoU threshold
            for _ in range(100):
                truths, preds = {}, {}
                for k in range(int(rng.integers(1, 5))):
                    stem = f"{k:06d}"
                    frame_truths = []
                    frame_preds = []
                    for _ in range(int(rng.integers(0, 5))):
                        w = rng.uniform(0.4, 2.0)
                        t = ObjectLabel(
                            float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)), 0.8,
                            w + rng.uniform(0, 2.5), w, float(rng.uniform(0.5, 2.5)),
                            float(rng.uniform(-1.5, 1.5)), LabelClass.PEDESTRIAN, 1.0,
                        )
                        frame_truths.append(t)
                        if rng.random() < 0.85:
                            frame_preds.append(
                                ObjectLabel(
                                    t.center_x + rng.normal(0, 0.3),
                                    t.center_y + rng.normal(0, 0.3),
                                    t.center_z, t.length, t.width, t.height, t.yaw,
                                    LabelClass.PEDESTRIAN, float(rng.uniform(0.2, 1.0)),
                                )
                            )
                    if rng.random() < 0.4:
                        w = rng.uniform(0.4, 1.5)
                        frame_preds.append(
                            ObjectLabel(
                                float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)), 0.8,
                                w + 0.5, w, 1.5, 0.0, LabelClass.PEDESTRIAN,
                                float(rng.uniform(0.2, 1.0)),
                            )
                        )
                    truths[stem] = frame_truths
                    preds[stem] = frame_preds
                thresholds = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8)
                report = evaluate_labels(preds, truths, thresholds)
                aps = [report.records[(LabelClass.PEDESTRIAN, t)].ap for t in thresholds]
                recalls = [report.records[(LabelClass.PEDESTRIAN, t)].recall for t in thresholds]
                for x1, x2 in zip(aps, aps[1:]):
                    assert x2 <= x1 + 1e-12, "AP increased with IoU threshold"
                for x1, x2 in zip(recalls, recalls[1:]):
                    assert x2 <= x1 + 1e-12, "recall increased with IoU threshold"

    def test_c10_determinism_of_annotate_and_evaluate(self, tmp_path):
        with criterion(10, "two identical annotate+evaluate runs are byte-identical"):
            scene = default_scene(duration=30, seed=21)
            scene_dir = tmp_path / "scene"
            paths = write_scene_outputs(scene, scene_dir)
            config = {
                "output_root": None,  # filled per run
                "datasets": [
                    {
                        "name": "site",
                        "frames": str(paths["frames"]),
                        "sensor": {
                            "name": "synthetic",
                            "rays_horizontal": scene.sensor.azimuth_count,
                            "rays_vertical": scene.sensor.elevation_count,
                            "frequency_hz": 10.0,
                        },
                        "teacher": {
                            "n_query": 20, "n_bin": 10, "n_tall": 3, "d_threshold": 0.2,
                            "epsilon": 0.7, "min_pts": 5,
                            "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
                            "crop": {"x_min": 0, "x_max": 45, "y_min": -30, "y_max": 30,
                                     "z_min": -1, "z_max": 10},
                        },
                    }
                ],
            }
            label_bytes = []
            report_bytes = []
            for run in ("run1", "run2"):
                config["output_root"] = str(tmp_path / run)
                cfg_path = tmp_path / f"annotate_{run}.json"
                cfg_path.write_text(json.dumps(config))
                assert main(["annotate", "--config", str(cfg_path)]) == 0
                eval_cfg = {
                    "pred_dir": str(tmp_path / run / "site" / "labels"),
                    "truth_dir": str(paths["truth"]),
                    "thresholds": [0.25, 0.3, 0.5],
                    "report": str(tmp_path / run / "report.txt"),
                }
                eval_path = tmp_path / f"eval_{run}.json"
                eval_path.write_text(json.dumps(eval_cfg))
                assert main(["evaluate", "--config", str(eval_path)]) == 0
                files = sorted((tmp_path / run / "site" / "labels").glob("*.txt"))
                assert files
                label_bytes.append([f.read_bytes() for f in files])
                report_bytes.append((tmp_path / run / "report.txt").read_bytes())
            assert label_bytes[0] == label_bytes[1]
            assert report_bytes[0] == report_bytes[1]

    def test_c11_iterate_fixed_point(self, tmp_path):
        with criterion(11, "iterating on predictions identical to previous labels is a fixed point"):
            rng = np.random.default_rng(111)
            by_stem = {}
            for k in range(5):
                labs = []
                for _ in range(int(rng.integers(1, 4))):
                    w = float(rng.uniform(0.4, 2.0))
                    labs.append(
                        ObjectLabel(
                            float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)), 0.8,
                            w + float(rng.uniform(0, 2)), w, float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(-1.5, 1.5)), LabelClass.VEHICLE, 1.0,
                        )
                    )
                by_stem[f"{k:06d}"] = labs
            previous = tmp_path / "previous"
            write_labels(by_stem, previous)
            round_dir = iterate(previous, tmp_path / "ws")
            prev_files = sorted(previous.glob("*.txt"))
            next_files = sorted(round_dir.glob("*.txt"))
            assert [f.name for f in prev_files] == [f.name for f in next_files]
            for a, b in zip(prev_files, next_files):
                assert a.read_bytes() == b.read_bytes()


def test_dbscan_matches_pairs_oracle_on_scene_frames(default_run):
    """Real-size frames, where the O(n^2) brute force would need hundreds of MB."""
    cfg = DEFAULT_TEACHER
    sizes = np.array([len(pts) for pts in default_run["foreground"]])
    picked = np.flatnonzero((sizes >= 2000) & (sizes <= 5000))
    assert len(picked) >= 10, f"only {len(picked)} frames of 2k-5k points"
    for k in picked[np.linspace(0, len(picked) - 1, 10).astype(int)]:
        pts = default_run["foreground"][k]
        np.testing.assert_array_equal(
            dbscan_labels(pts, cfg["epsilon"], cfg["min_pts"]),
            pairs_dbscan(pts, cfg["epsilon"], cfg["min_pts"]),
        )
