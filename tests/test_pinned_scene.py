"""A pinned scene on which the teacher is not perfect, so output changes show.

The default scene scores AP 1.0 at every threshold with no noise points and
no rejected boxes, so no change to the labels can show in it.  This scene
takes the default scene's statics and actors, but every actor is present
from the first frame, inside the background model's query window; the beam
grid is halved on each axis and the recording is 80 frames, to keep the
test short.  The teacher is the README's, unchanged.

A second scene is the same with range noise of 0.08 m instead of 0.01 m:
its many noise points and rejected boxes give the box fit noisy clusters.
A third raises the top of the elevation span from -2 to +10 degrees: the
same 92 beam rows spread over 35 degrees instead of 23, so fewer of them
fall on each actor.

The pins are the exact bytes the program wrote for each scene: the SHA-256
of the label files and of ``rejects.log``, ``stats.json`` and the
``evaluate`` report.  ``rejects.log`` names the first size gate each
rejected box fails, so it pins the order of the gates.  The actors are in
the query window, so most query frames keep foreground after the background
filter (39, 50 and 39 of the 50), and each scene also pins the points read
again for them.  A change that is meant to alter the outputs updates the
pins and says why.
"""

import dataclasses
import hashlib
import json

import pytest

from roadlidar.cli import main
from roadlidar.simulate import default_scene, write_scene_outputs

LABELS_SHA256 = "9dbc3d70c0da2e0aef24e429a1b5ee6a68db41c3319f42d6f164e7a49f209d86"
REJECTS_SHA256 = "ae4099470a8d6bc6f7d57f71a6e4f7eb211333b40b550467c63eea34fcea786a"
STATS_JSON = """\
{
  "boxes_rejected": 87,
  "clusters_found": 187,
  "dataset": "pinned",
  "frames": 80,
  "labels_written": 100,
  "noise_points": 109,
  "points_data": 883200,
  "points_removed": 867946,
  "points_removed_pct": 98.2729
}
"""
REPORT = """\
class iou ap recall tp fp fn
Vehicle 0.25 0.076014 0.187500 15 22 65
Vehicle 0.30 0.066216 0.175000 14 23 66
Vehicle 0.50 0.033784 0.125000 10 27 70
Pedestrian 0.25 0.333730 0.362500 58 5 102
Pedestrian 0.30 0.322321 0.356250 57 6 103
Pedestrian 0.50 0.145812 0.237500 38 25 122
"""
NOISY_LABELS_SHA256 = "d5b0363040b003ac52f65e5c8f956a0eb5f2e959b7b1775151939ae8c48f3c57"
NOISY_REJECTS_SHA256 = "07e873be2084e293c74158762dee4d2a1cdfe26cb1c8c52e996461158ef98a48"
NOISY_STATS_JSON = """\
{
  "boxes_rejected": 61,
  "clusters_found": 247,
  "dataset": "pinned",
  "frames": 80,
  "labels_written": 186,
  "noise_points": 3877,
  "points_data": 883200,
  "points_removed": 860736,
  "points_removed_pct": 97.4565
}
"""
NOISY_REPORT = """\
class iou ap recall tp fp fn
Vehicle 0.25 0.190549 0.312500 25 16 55
Vehicle 0.30 0.134451 0.262500 21 20 59
Vehicle 0.50 0.068598 0.187500 15 26 65
Pedestrian 0.25 0.562309 0.712500 114 31 46
Pedestrian 0.30 0.334359 0.550000 88 57 72
Pedestrian 0.50 0.053168 0.218750 35 110 125
"""
RAISED_LABELS_SHA256 = "2b57a50bf0988eb3e7f7d7736313c92b9d3f573b4cf0a57ff4fcf149634af058"
RAISED_REJECTS_SHA256 = "d2faed2383464f2301683ecd9e56a69a379259fe62a9eb881316a928fb33c5e9"
RAISED_STATS_JSON = """\
{
  "boxes_rejected": 71,
  "clusters_found": 187,
  "dataset": "pinned",
  "frames": 80,
  "labels_written": 116,
  "noise_points": 85,
  "points_data": 791840,
  "points_removed": 781815,
  "points_removed_pct": 98.734
}
"""
RAISED_REPORT = """\
class iou ap recall tp fp fn
Vehicle 0.25 0.020663 0.112500 9 41 71
Vehicle 0.30 0.020663 0.112500 9 41 71
Vehicle 0.50 0.002296 0.037500 3 47 77
Pedestrian 0.25 0.211373 0.293750 47 19 113
Pedestrian 0.30 0.186737 0.275000 44 22 116
Pedestrian 0.50 0.047181 0.131250 21 45 139
"""


def pinned_scene(range_noise_sigma=0.01, elevation_deg=(-25.0, -2.0)):
    base = default_scene(duration=80, range_noise_sigma=range_noise_sigma)
    sensor = dataclasses.replace(
        base.sensor, azimuth_count=120, elevation_count=92, elevation_deg=elevation_deg,
    )
    actors = [dataclasses.replace(actor, start_time=0.0) for actor in base.actors]
    return dataclasses.replace(base, sensor=sensor, actors=actors)


def noisy_pinned_scene():
    """The pinned scene with 0.08 m of range noise: many noise points and rejects."""
    return pinned_scene(range_noise_sigma=0.08)


def raised_pinned_scene():
    """The pinned scene with the elevation span raised to +10 degrees."""
    return pinned_scene(elevation_deg=(-25.0, 10.0))


def labels_sha256(directory):
    """SHA-256 over each label file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_pinned_scene(root, spec):
    """Render the scene, annotate and evaluate it through the CLI; return the outputs."""
    write_scene_outputs(spec, root / "scene")
    annotate = {
        "output_root": str(root / "out"),
        "datasets": [{
            "name": "pinned",
            "frames": str(root / "scene" / "frames"),
            "sensor": {
                "rays_horizontal": spec.sensor.azimuth_count,
                "rays_vertical": spec.sensor.elevation_count,
            },
            "teacher": {
                "n_query": 50, "n_bin": 10, "n_tall": 3,
                "d_threshold": 0.2, "epsilon": 0.7, "min_pts": 5,
                "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
                "crop": {"x_min": 0, "x_max": 45, "y_min": -30, "y_max": 30,
                         "z_min": -1, "z_max": 10},
            },
        }],
    }
    evaluate = {
        "pred_dir": str(root / "out" / "pinned" / "labels"),
        "truth_dir": str(root / "scene" / "truth"),
        "thresholds": [0.25, 0.3, 0.5],
        "report": str(root / "report.txt"),
    }
    (root / "annotate.json").write_text(json.dumps(annotate))
    (root / "evaluate.json").write_text(json.dumps(evaluate))
    assert main(["annotate", "--config", str(root / "annotate.json")]) == 0
    assert main(["evaluate", "--config", str(root / "evaluate.json")]) == 0
    return {
        "labels_sha256": labels_sha256(root / "out" / "pinned" / "labels"),
        "rejects_sha256": hashlib.sha256((root / "out" / "pinned" / "rejects.log").read_bytes()).hexdigest(),
        "stats": (root / "out" / "pinned" / "stats.json").read_text(encoding="utf-8"),
        "report": (root / "report.txt").read_text(encoding="utf-8"),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pinned_scene(tmp_path_factory.mktemp("pinned"), pinned_scene())


@pytest.fixture(scope="module")
def noisy_outputs(tmp_path_factory):
    return run_pinned_scene(tmp_path_factory.mktemp("noisy"), noisy_pinned_scene())


@pytest.fixture(scope="module")
def raised_outputs(tmp_path_factory):
    return run_pinned_scene(tmp_path_factory.mktemp("raised"), raised_pinned_scene())


def test_labels_pinned(outputs):
    assert outputs["labels_sha256"] == LABELS_SHA256


def test_rejects_pinned(outputs):
    assert outputs["rejects_sha256"] == REJECTS_SHA256


def test_stats_pinned(outputs):
    assert outputs["stats"] == STATS_JSON


def test_report_pinned(outputs):
    assert outputs["report"] == REPORT


def test_scene_is_not_saturated(outputs):
    stats = json.loads(outputs["stats"])
    assert stats["noise_points"] > 0
    assert stats["boxes_rejected"] > 0
    ap50 = [float(line.split()[2]) for line in outputs["report"].splitlines()[1:] if line.split()[1] == "0.50"]
    assert len(ap50) == 2 and min(ap50) < 1.0


def test_noisy_labels_pinned(noisy_outputs):
    assert noisy_outputs["labels_sha256"] == NOISY_LABELS_SHA256


def test_noisy_rejects_pinned(noisy_outputs):
    assert noisy_outputs["rejects_sha256"] == NOISY_REJECTS_SHA256


def test_noisy_stats_pinned(noisy_outputs):
    assert noisy_outputs["stats"] == NOISY_STATS_JSON


def test_noisy_report_pinned(noisy_outputs):
    assert noisy_outputs["report"] == NOISY_REPORT


def test_raised_labels_pinned(raised_outputs):
    assert raised_outputs["labels_sha256"] == RAISED_LABELS_SHA256


def test_raised_rejects_pinned(raised_outputs):
    assert raised_outputs["rejects_sha256"] == RAISED_REJECTS_SHA256


def test_raised_stats_pinned(raised_outputs):
    assert raised_outputs["stats"] == RAISED_STATS_JSON


def test_raised_report_pinned(raised_outputs):
    assert raised_outputs["report"] == RAISED_REPORT
