"""Smoke run of the command line: every subcommand once, on the default scene.

In a fresh temporary directory, ``roadlidar.cli.main`` runs ``simulate``,
``annotate`` (README's teacher config), ``evaluate`` against the scene's
truth, ``merge`` of the one dataset and ``iterate``.  Each must exit 0,
write its outputs and leave no ``.partial`` behind.

It imports only the standard library and ``roadlidar``, so it runs before
the test extras are installed; it takes no arguments:

    python tests/cli_smoke.py

Every other rule of the CLI is checked by the test suite, which also runs
this script.
"""

import json
import sys
import tempfile
from pathlib import Path

from roadlidar.cli import main

SENSOR = {"rays_horizontal": 240, "rays_vertical": 185, "unit_scale": 1.0}
TEACHER = {
    "n_query": 50, "n_bin": 10, "n_tall": 3,
    "d_threshold": 0.2, "epsilon": 0.7, "min_pts": 5,
    "l_min": 0.3, "h_min": 0.5, "beta_min": 0.2,
    "crop": {"x_min": 0, "x_max": 45, "y_min": -30, "y_max": 30, "z_min": -1, "z_max": 10},
}


def run(root: Path, command: str, config: dict | None, *outputs: str, flags: tuple = ()) -> None:
    """Run ``roadlidar command`` in ``root``; exit naming each fault if it
    exits other than 0, leaves one of ``outputs`` missing (a directory
    empty) or leaves a ``.partial`` under ``root``."""
    argv = [command, *flags]
    if config is not None:
        path = root / f"{command}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code = main(argv)
    faults = [f"exited {code}"] if code else []
    faults += [f"did not write {name}" for name in outputs
               if not ((root / name).is_file() or (root / name).is_dir() and any((root / name).iterdir()))]
    faults += [f"left {partial}" for partial in sorted(root.rglob("*.partial"))]
    if faults:
        sys.exit(f"roadlidar {' '.join(argv)}: " + "; ".join(faults))


def smoke(root: Path) -> None:
    scene, out = root / "scene_out", root / "out"
    labels = str(out / "site_a" / "labels")
    run(root, "simulate", None, "scene_out/frames", "scene_out/truth", "scene_out/masks",
        flags=("--out", str(scene)))
    run(root, "annotate", {
        "output_root": str(out), "parallelism": 1,
        "datasets": [{"name": "site_a", "frames": str(scene / "frames"), "sensor": SENSOR, "teacher": TEACHER}],
    }, "out/site_a/labels", "out/site_a/stats.json", "out/site_a/rejects.log", "out/site_a/background.model")
    run(root, "evaluate", {
        "pred_dir": labels, "truth_dir": str(scene / "truth"), "report": str(root / "report.txt"),
    }, "report.txt")
    run(root, "merge", {
        "output_root": str(root / "superset"),
        "inputs": [{"name": "site_a", "frames": str(scene / "frames"), "labels": labels, "sensor": SENSOR,
                    "transform": {"translation": [10.0, -5.0, 0.0], "scale": 1.0}}],
    }, "superset/index.txt", "superset/site_a/frames", "superset/site_a/labels")
    run(root, "iterate", {"predictions": labels, "workspace": str(root / "rounds")},
        "rounds/round_001", "rounds/manifest.json")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        smoke(Path(tmp))
    print("cli smoke: every subcommand exited 0", file=sys.stderr)
