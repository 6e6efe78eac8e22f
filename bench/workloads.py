"""Seeded scenes and CLI configurations of the benchmark workloads.

A workload is a list of sites (one simulated recording each, with its crop
box and the transform it gets in the merged superset) plus the worker count
of the ``annotate`` step.  The ``--seed`` argument drives the simulator's noise
streams (range noise and foliage jitter) and nothing else: the layouts are
fixed, so that the work per round, and with it the timing and the label
quality, stays nearly the same from seed to seed.

Scenes are built from the ``simulate`` dataclasses, not from JSON, because
``scene_from_dict`` drops ``jitter_sigma`` for ground primitives.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from roadlidar.simulate import (
    Actor,
    BoxObstacle,
    CylinderObstacle,
    GroundPlane,
    SceneSpec,
    SensorModel,
    default_scene,
    write_scene_outputs,
)

# Teacher hyper-parameters of the README; n_total and the crop are per site.
TEACHER = {
    "n_query": 50, "n_bin": 10, "n_tall": 3, "d_threshold": 0.2,
    "epsilon": 0.7, "min_pts": 5, "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
}
THRESHOLDS = [0.25, 0.3, 0.5]
ITERATE_SCORE_THRESHOLD = 0.5
MERGE_REPEATS = 3
# An evaluate step repeats until it has run this long, so that a short one
# still gives enough samples for a steady median.
EVALUATE_STEP_S = 0.3

WEDGE_CROP = {"x_min": 0, "x_max": 45, "y_min": -30, "y_max": 30, "z_min": -1, "z_max": 10}
SPIN_CROP = {"x_min": -40, "x_max": 40, "y_min": -40, "y_max": 40, "z_min": -1, "z_max": 10}


@dataclass(frozen=True)
class Site:
    """One simulated recording and how the workload labels and merges it."""

    name: str
    spec: SceneSpec
    crop: dict
    # Merge transform into the superset frame; never the identity, so merge
    # always does the transform work.
    translation: tuple[float, float, float]
    scale: float


@dataclass(frozen=True)
class Workload:
    name: str
    sites: tuple[Site, ...]
    parallelism: int
    n_query: int = TEACHER["n_query"]

    @property
    def frames(self) -> int:
        return sum(site.spec.duration for site in self.sites)


def wedge(seed: int) -> Workload:
    """The built-in reference scene, cut to 100 frames (45 with actors)."""
    spec = default_scene(duration=100, seed=seed)
    return Workload("wedge", (Site("wedge", spec, WEDGE_CROP, (10.0, -5.0, 0.0), 1.0),), 1)


# (x, y) waypoints, speed, start time.  Vehicles drive lanes across the far
# half of the wedge; pedestrians walk in pairs and small groups whose
# members come closer than epsilon, so some clusters merge and get rejected.
_CROWD_VEHICLES = (
    (((25.0, -14.0), (25.0, 14.0)), 2.5, 5.2),
    (((31.0, 17.0), (31.0, -17.0)), 3.0, 5.3),
    (((37.0, -20.0), (37.0, 20.0)), 3.5, 5.6),
    (((34.0, 10.0), (28.0, 10.0), (28.0, -3.0)), 2.0, 6.0),
)
_CROWD_PEDESTRIANS = (
    (((16.0, -6.0), (16.0, 4.0)), 1.0, 5.2),
    (((16.9, -6.0), (16.9, 4.0)), 1.0, 5.2),
    (((19.0, 6.0), (19.0, -6.0)), 0.9, 5.3),
    (((21.0, -9.0), (21.0, 0.0)), 1.1, 5.1),
    (((14.5, 1.0), (18.5, 1.0)), 0.8, 5.4),
    (((20.5, 9.0), (26.0, 9.0)), 1.2, 5.5),
    (((28.0, -7.0), (28.0, 1.0)), 1.0, 5.1),
    (((28.9, -7.5), (28.9, 0.5)), 1.0, 5.1),
    (((33.0, 3.0), (33.0, -9.0)), 0.9, 5.2),
    (((15.0, -3.0), (20.0, -7.0)), 0.7, 5.2),
    (((23.0, 4.0), (23.0, -5.0)), 1.0, 5.3),
    (((35.0, -14.0), (29.0, -14.0)), 1.0, 5.3),
)


def crowd(seed: int) -> Workload:
    """The wedge's statics and sensor with 4 vehicles and 12 pedestrians."""
    base = default_scene(duration=100, seed=seed)
    actors = [
        Actor("cuboid", (4.4, 1.8, 1.6), path, speed, start)
        for path, speed, start in _CROWD_VEHICLES
    ] + [
        Actor("cylinder", (0.3, 1.7), path, speed, start)
        for path, speed, start in _CROWD_PEDESTRIANS
    ]
    spec = SceneSpec(
        sensor=base.sensor, static=base.static, actors=actors,
        duration=base.duration, seed=seed, min_truth_points=base.min_truth_points,
    )
    return Workload("crowd", (Site("crowd", spec, WEDGE_CROP, (-20.0, 40.0, 0.0), 1.0),), 1)


def _spinning_site(seed: int, origin_z: float, walls, poles, tree, actors) -> SceneSpec:
    sensor = SensorModel(
        origin=(0.0, 0.0, origin_z), azimuth_count=1024, elevation_count=64,
        range_noise_sigma=0.01, max_range=120.0,
    )
    static = [GroundPlane(0.0)]
    static += [BoxObstacle(center, dims) for center, dims in walls]
    static += [CylinderObstacle(xy, 0.15, 0.0, 6.0) for xy in poles]
    static.append(CylinderObstacle(tree, 1.5, 0.0, 5.0, jitter_sigma=0.02))
    return SceneSpec(sensor=sensor, static=static, actors=actors, duration=70, seed=seed)


def superset(seed: int) -> Workload:
    """Two 360-degree 1024x64 sites with far walls and a few actors."""
    site_a = _spinning_site(
        2 * seed, 4.0,
        walls=[((60.0, 0.0, 5.0), (1.0, 120.0, 10.0)), ((-55.0, 0.0, 5.0), (1.0, 120.0, 10.0)),
               ((0.0, 70.0, 5.0), (120.0, 1.0, 10.0))],
        poles=[(12.0, -14.0), (-18.0, 9.0)],
        tree=(-10.0, -20.0),
        actors=[
            Actor("cuboid", (4.4, 1.8, 1.6), ((16.0, -20.0), (16.0, 20.0)), 4.0, 5.1),
            Actor("cylinder", (0.35, 1.75), ((-9.0, 8.0), (-9.0, 2.0)), 1.0, 5.1),
            Actor("cylinder", (0.35, 1.75), ((4.0, -9.5), (9.0, -9.5)), 1.0, 5.2),
            Actor("cylinder", (0.35, 1.75), ((-6.0, -10.0), (-11.0, -9.0)), 0.9, 5.1),
            Actor("cylinder", (0.35, 1.75), ((10.0, 6.0), (10.0, 11.0)), 1.1, 5.3),
        ],
    )
    site_b = _spinning_site(
        2 * seed + 1, 5.0,
        walls=[((0.0, -65.0, 6.0), (140.0, 1.0, 12.0)), ((70.0, 0.0, 6.0), (1.0, 140.0, 12.0))],
        poles=[(-9.0, -11.0), (14.0, 16.0), (-20.0, 20.0)],
        tree=(18.0, -6.0),
        actors=[
            Actor("cuboid", (4.2, 1.8, 1.5), ((-25.0, -12.0), (5.0, -12.0)), 4.5, 5.1),
            Actor("cuboid", (4.6, 1.9, 1.7), ((-15.0, 20.0), (-15.0, -5.0)), 3.5, 5.2),
            Actor("cylinder", (0.35, 1.75), ((12.0, 3.0), (12.0, 9.0)), 0.9, 5.1),
            Actor("cylinder", (0.35, 1.75), ((-12.0, -2.0), (-12.0, 4.0)), 1.0, 5.1),
            Actor("cylinder", (0.35, 1.75), ((2.0, 13.0), (8.0, 13.0)), 1.0, 5.2),
        ],
    )
    return Workload(
        "superset",
        (
            Site("site_a", site_a, SPIN_CROP, (0.0, 50.0, 0.0), 1.0),
            Site("site_b", site_b, SPIN_CROP, (120.0, 0.0, 0.0), 1.1),
        ),
        # Never more pool workers than the machine has cores.
        min(2, len(os.sched_getaffinity(0))),
    )


def tiny(seed: int) -> Workload:
    """A seconds-long scene for the benchmark's self-test, not for timing."""
    sensor = SensorModel(
        origin=(0.0, 0.0, 3.0), azimuth_deg=(-24.0, 24.0), azimuth_count=80,
        elevation_deg=(-22.0, -3.0), elevation_count=60,
        range_noise_sigma=0.01, max_range=60.0,
    )
    spec = SceneSpec(
        sensor=sensor,
        static=[GroundPlane(0.0), BoxObstacle((28.0, 0.0, 3.0), (1.0, 36.0, 6.0))],
        actors=[
            Actor("cuboid", (3.8, 1.7, 1.5), ((14.0, -3.5), (14.0, 4.0)), 2.0, 1.2),
            Actor("cylinder", (0.35, 1.8), ((10.0, 2.0), (10.0, -2.0)), 1.0, 1.2),
        ],
        duration=24,
        seed=seed,
    )
    crop = {"x_min": 0, "x_max": 30, "y_min": -15, "y_max": 15, "z_min": -1, "z_max": 8}
    return Workload("tiny", (Site("tiny", spec, crop, (5.0, 0.0, 0.0), 1.0),), 1, n_query=10)


def render_site(spec: SceneSpec, out_dir: Path) -> float:
    """Write one site's frames, masks and truth; return the seconds it took."""
    start = time.perf_counter()
    write_scene_outputs(spec, out_dir)
    return time.perf_counter() - start


WORKLOADS = {"wedge": wedge, "crowd": crowd, "superset": superset, "tiny": tiny}


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


def round_steps(workload: Workload, scenes: Path, root: Path) -> list[tuple[str, str, list[str], float]]:
    """Write one labeling round's configs under ``root``; return its CLI steps.

    A step is (kind, site, argv, seconds to repeat it for).  The round is
    annotate, then evaluate (every site, against simulator truth) and merge
    (all sites, each with a non-identity transform) in turn, then iterate
    per site on the teacher labels and iterate again on the round just
    written, whose output must reproduce it.  Evaluate and merge are short,
    so they repeat, interleaved, and ``run.py`` takes the median.
    """
    root.mkdir(parents=True, exist_ok=True)
    out = root / "out"
    datasets = []
    for site in workload.sites:
        sensor = site.spec.sensor
        datasets.append({
            "name": site.name,
            "frames": str(scenes / site.name / "frames"),
            "sensor": {"name": site.name, "rays_horizontal": sensor.azimuth_count,
                       "rays_vertical": sensor.elevation_count,
                       "frequency_hz": sensor.frequency_hz, "unit_scale": 1.0},
            "teacher": {**TEACHER, "n_query": workload.n_query,
                        "n_total": sensor.beam_count, "crop": site.crop},
        })
    annotate_cfg = _write_json(root / "annotate.json", {
        "output_root": str(out), "parallelism": workload.parallelism, "datasets": datasets,
    })
    steps = [("annotate", "", ["annotate", "--config", str(annotate_cfg)], 0.0)]
    merge_inputs = [
        {"name": site.name, "frames": ds["frames"], "labels": str(out / site.name / "labels"),
         "sensor": ds["sensor"],
         "transform": {"translation": list(site.translation), "scale": site.scale}}
        for site, ds in zip(workload.sites, datasets)
    ]
    for k in range(MERGE_REPEATS):
        for site in workload.sites:
            cfg = _write_json(root / f"evaluate_{site.name}_{k}.json", {
                "pred_dir": str(out / site.name / "labels"),
                "truth_dir": str(scenes / site.name / "truth"),
                "thresholds": THRESHOLDS,
                "report": str(root / f"report_{site.name}_{k}.txt"),
            })
            steps.append(("evaluate", site.name, ["evaluate", "--config", str(cfg)], EVALUATE_STEP_S))
        cfg = _write_json(root / f"merge_{k}.json",
                          {"output_root": str(root / f"superset_{k}"), "inputs": merge_inputs})
        steps.append(("merge", "", ["merge", "--config", str(cfg)], 0.0))
    for site in workload.sites:
        workspace = root / "rounds" / site.name
        for k, predictions in enumerate((out / site.name / "labels", workspace / "round_001")):
            cfg = _write_json(root / f"iterate_{site.name}_{k}.json", {
                "predictions": str(predictions), "workspace": str(workspace),
                "score_threshold": ITERATE_SCORE_THRESHOLD,
            })
            steps.append(("iterate", site.name, ["iterate", "--config", str(cfg)], 0.0))
    return steps
