"""Benchmark of the roadlidar labeling loop, file to file, through the CLI.

    python3 bench/run.py --workload crowd --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  The benchmark renders the workload's scenes once into a temporary
directory inside the checkout, times how long a fresh process takes to
import ``roadlidar.cli`` (``setup_s``), then runs labeling rounds for about
``--seconds``.  Each round is a fresh child process that calls
``roadlidar.cli.main`` once per step (annotate, evaluate, merge, iterate,
iterate again) into a fresh output directory; the next round starts only
after the previous one has returned (one closed-loop client).  Each round's
outputs are checked; a round that fails a check counts as failed.  Timings
are reported scaled to a reference machine speed, by gauge readings taken
around each timed step (``gauge.py``); the unscaled wall times are printed
as well.

With ``--trace 1`` each round is followed by a traced child (see
``child.py``) and the per-layer metrics are reported instead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from gauge import REFERENCE_S
from tracing import durations, self_times

BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "annotate_fps": "frames/s",
    "evaluate_s": "s",
    "merge_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ap50_vehicle": "AP",
    "ap50_pedestrian": "AP",
}
PER_LAYER = {
    "core.load_ms_per_frame": "ms",
    "core.load_mb": "MB",
    "core.write_labels_ms": "ms",
    "preprocess.pad_crop_ms_per_frame": "ms",
    "preprocess.points_cropped": "count",
    "preprocess.unify_datasets_ms": "ms",
    "background.histogram_ms": "ms",
    "background.select_ms": "ms",
    "background.filter_ms_per_frame": "ms",
    "background.points_removed": "count",
    "background.bg_recall": "ratio",
    "background.fg_recall": "ratio",
    "clustering.dbscan_ms_p50": "ms",
    "clustering.dbscan_ms_p90": "ms",
    "clustering.points_in": "count",
    "clustering.clusters": "count",
    "clustering.noise_points": "count",
    "annotate.frame_ms_p50": "ms",
    "annotate.frame_ms_p90": "ms",
    "annotate.clusters_in": "count",
    "annotate.labels_out": "count",
    "annotate.accept_ratio": "ratio",
    "evaluate.ms": "ms",
    "evaluate.iou_pairs": "count",
    "pipeline.frame_ms_p50": "ms",
    "pipeline.frame_ms_p90": "ms",
    "pipeline.merge_ms": "ms",
    "pipeline.iterate_ms": "ms",
    "pipeline.pool_efficiency": "ratio",
    "pipeline.trace_overhead_pct": "%",
    "simulate.render_ms_per_frame": "ms",
    "cli.import_s": "s",
}

SETUP_SAMPLES = 5
# Seconds of a fresh ``python3 -c "import numpy"`` on the reference machine,
# about the median on the VM of README.md.
START_REFERENCE_S = 0.2
# A child still running this long after the run started is killed, so the
# run ends within 180 s even when a child hangs.
DEADLINE = time.monotonic() + 165.0
MB = 1024 * 1024


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def spawn(argvs: list[list[str]], env: dict, log: Path) -> list[tuple[int, float]]:
    """Run children side by side, each in its own session; wait for all of them.

    Returns (exit code, peak RSS in MB) per child.  ``os.wait4`` reports the
    largest of the child and the descendants it waited for (its pool
    workers), which is the high-water mark of the largest process.  A child
    still running at ``DEADLINE`` is killed with its whole session.  On the
    way out, by return or by exception (a signal raises one, see ``main``),
    every child's session is killed and its processes reaped: the run is a
    child subreaper, so orphaned workers are its own children.
    """
    procs, timers, results = [], [], []
    try:
        with open(log, "ab") as sink:
            for argv in argvs:
                procs.append(subprocess.Popen(argv, env=env, stdout=sink, stderr=subprocess.STDOUT,
                                              start_new_session=True))
                timers.append(threading.Timer(max(0.0, DEADLINE - time.monotonic()),
                                              _kill_group, (procs[-1].pid,)))
                timers[-1].start()
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            results.append((proc.returncode, usage.ru_maxrss / 1024))  # KiB -> MiB
    finally:
        for timer in timers:
            timer.cancel()
        groups = [proc.pid for proc in procs]
        for pgid in groups:
            _kill_group(pgid)
        deadline = time.monotonic() + 10.0
        while groups and time.monotonic() < deadline:
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            groups = [pgid for pgid in groups if _group_alive(pgid)]
            if groups:
                time.sleep(0.02)
    return results


def become_subreaper() -> None:
    """Have orphaned descendants handed to this process, so that it can wait for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def speed(gauges: dict[int, float], step: int, reference_s: float = REFERENCE_S) -> float:
    """How much faster the reference machine is than this one was around ``step``.

    ``gauges[k]`` is the reading taken just before step ``k``; the speed is
    ``reference_s`` over the mean of the two readings before the step and
    the two after it, which damps the noise of a single reading.
    """
    return reference_s / statistics.fmean(gauges[j] for j in range(step - 1, step + 3) if j in gauges)


def tree_digest(paths: list[Path]) -> str:
    """SHA-256 over the relative names and bytes of every file under ``paths``, in order."""
    h = hashlib.sha256()
    for root in paths:
        h.update(b"\1")
        for p in sorted(q for q in root.rglob("*") if q.is_file()):
            h.update(f"{p.relative_to(root)}\0".encode())
            h.update(p.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def read_ap50(report: Path) -> dict[str, float]:
    aps = {}
    for line in report.read_text(encoding="utf-8").splitlines()[1:]:
        cls, iou, ap = line.split()[:3]
        if iou == "0.50":
            aps[cls] = float(ap)
    return aps


@dataclass
class Bench:
    tmp: Path
    workload: "Workload"  # noqa: F821 - from workloads, imported once src is on the path
    env: dict
    label_digest: str | None = None
    render_s: list[float] | None = None
    spans: list[dict] = field(default_factory=list)  # of every traced child, written out at the end

    def render(self, seed: int) -> Path:
        """Write every site's scene, one child process per site side by side
        (never more than the machine's cores at once); records the seconds each took."""
        scenes = self.tmp / "scenes"
        sites = self.workload.sites
        at_once = len(os.sched_getaffinity(0))
        self.render_s = []
        for first in range(0, len(sites), at_once):
            argvs = []
            for site in sites[first:first + at_once]:
                job = self.tmp / f"render_{site.name}.json"
                job.write_text(json.dumps({"workload": self.workload.name, "seed": seed, "site": site.name,
                                           "out": str(scenes / site.name)}), encoding="utf-8")
                argvs.append([sys.executable, str(BENCH_DIR / "child.py"), "render", str(job),
                              str(job.with_suffix(".out"))])
            log = self.tmp / "render.log"
            codes = [code for code, _ in spawn(argvs, self.env, log)]
            if any(codes):
                sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
                raise RuntimeError(f"rendering {self.workload.name} failed: exit codes {codes}")
            self.render_s += [json.loads(Path(argv[-1]).read_text(encoding="utf-8"))["seconds"]
                              for argv in argvs]
        return scenes

    def setup_samples(self) -> tuple[list[float], list[float], list[float]]:
        """Fresh-process start + import of roadlidar.cli, each bracketed by gauge starts.

        The gauge for a process start is a fresh ``python3 -c "import numpy"``:
        the same kind of work (exec, loading extension modules, reading
        bytecode), none of it the program's.  Returns the wall seconds, the
        same scaled to the reference machine speed, and the import-only seconds.
        """
        code = ("import time; t = time.perf_counter(); import roadlidar.cli; "
                "print(time.perf_counter() - t)")
        argv = [sys.executable, "-c", code]
        gauge_argv = [sys.executable, "-c", "import numpy"]

        def start(cmd):
            begin = time.perf_counter()
            done = subprocess.run(cmd, env=self.env, check=True, capture_output=True, text=True, timeout=60)
            return time.perf_counter() - begin, done.stdout

        start(argv)  # warm the bytecode cache
        start(gauge_argv)
        walls, imports, gauges = [], [], {0: start(gauge_argv)[0]}
        for k in range(SETUP_SAMPLES):
            wall, out = start(argv)
            walls.append(wall)
            imports.append(float(out))
            gauges[k + 1] = start(gauge_argv)[0]
        return walls, [wall * speed(gauges, k, START_REFERENCE_S) for k, wall in enumerate(walls)], imports

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            print(f"check failed: {message}", file=sys.stderr)
        return ok

    def child(self, mode: str, job: Path, result: Path) -> tuple[int, float]:
        """Run ``child.py`` in a fresh process; on failure, show the end of its log."""
        log = self.tmp / "child.log"
        log.write_bytes(b"")
        [(code, rss_mb)] = spawn([[sys.executable, str(BENCH_DIR / "child.py"), mode, str(job), str(result)]],
                                 self.env, log)
        if code != 0:
            sys.stderr.write("".join(log.read_text(encoding="utf-8", errors="replace")
                                     .splitlines(keepends=True)[-20:]))
        return code, rss_mb

    def round(self, k: int, scenes: Path) -> dict | None:
        """One labeling round in a fresh child; returns its metrics, None if it failed."""
        from workloads import round_steps

        rdir = self.tmp / f"round_{k:03d}"
        steps = round_steps(self.workload, scenes, rdir)
        (rdir / "steps.json").write_text(json.dumps(steps), encoding="utf-8")
        code, rss_mb = self.child("round", rdir / "steps.json", rdir / "timings.json")
        timings = (json.loads((rdir / "timings.json").read_text(encoding="utf-8"))
                   if (rdir / "timings.json").exists() else [])
        gauges = {t["step"]: t["seconds"] for t in timings if t["kind"] == "gauge"}
        timings = [t for t in timings if t["kind"] != "gauge"]
        tag = f"{self.workload.name} round {k}"
        ok = self.check(code == 0 and {t["step"] for t in timings} == set(range(len(steps)))
                        and set(gauges) == set(range(len(steps) + 1))
                        and all(t["exit"] == 0 for t in timings),
                        f"{tag}: child exit {code}, steps {[(t['kind'], t['exit']) for t in timings]}")
        if ok:
            ok = self._check_outputs(tag, rdir)
        metrics = None
        if ok:
            def timed(scale: bool) -> dict:
                """Per-call seconds by step kind; scaled by the gauge readings around each step."""
                def seconds(kind, site=""):
                    return [t["seconds"] * (speed(gauges, t["step"]) if scale else 1.0)
                            for t in timings if t["kind"] == kind and t["site"] == site]

                return {
                    "annotate_fps": [self.workload.frames / seconds("annotate")[0]],
                    "evaluate_s": {site.name: seconds("evaluate", site.name) for site in self.workload.sites},
                    "merge_s": seconds("merge"),
                }

            aps = [read_ap50(rdir / f"report_{site.name}_0.txt") for site in self.workload.sites]
            metrics = {
                **timed(scale=True),
                "wall": timed(scale=False),
                "peak_rss_mb": [rss_mb],
                "ap50_vehicle": [statistics.fmean(a["Vehicle"] for a in aps)],
                "ap50_pedestrian": [statistics.fmean(a["Pedestrian"] for a in aps)],
            }
            wall = metrics["wall"]
            evaluate_s = [t for site_s in wall["evaluate_s"].values() for t in site_s]
            print(f"{tag}: wall annotate {self.workload.frames / wall['annotate_fps'][0]:.3f} s, "
                  f"evaluate {min(evaluate_s):.3f}-{max(evaluate_s):.3f} s ({len(evaluate_s)} calls), "
                  f"merge {min(wall['merge_s']):.3f}-{max(wall['merge_s']):.3f} s, "
                  f"gauge {min(gauges.values()):.3f}-{max(gauges.values()):.3f} s, peak RSS {rss_mb:.1f} MB")
        shutil.rmtree(rdir)
        return metrics

    def _check_outputs(self, tag: str, rdir: Path) -> bool:
        from workloads import MERGE_REPEATS

        sites = self.workload.sites
        labels = [rdir / "out" / site.name / "labels" for site in sites]
        ok = all(self.check(len(list(d.glob("*.txt"))) == site.spec.duration,
                            f"{tag}: {d} does not hold one label file per frame")
                 for d, site in zip(labels, sites))
        digest = tree_digest(labels)
        if self.label_digest is None:
            self.label_digest = digest
        ok &= self.check(digest == self.label_digest, f"{tag}: labels differ from the first round's")
        for site in sites:
            ws = rdir / "rounds" / site.name
            ok &= self.check(len(list((ws / "round_001").glob("*.txt"))) == site.spec.duration
                             and tree_digest([ws / "round_001"]) == tree_digest([ws / "round_002"]),
                             f"{tag}: iterate on round_001 of {site.name} did not reproduce it")
        for k in range(MERGE_REPEATS):
            index = rdir / f"superset_{k}" / "index.txt"
            lines = len(index.read_text(encoding="utf-8").splitlines()) if index.is_file() else 0
            ok &= self.check(lines == self.workload.frames,
                             f"{tag}: {index} has {lines} lines for {self.workload.frames} frames")
        return ok

    def trace(self, k: int, scenes: Path, annotate_s: float, import_s: float) -> dict | None:
        """One traced child re-enacting a round; returns its per-layer metrics, None if it failed."""
        from workloads import ITERATE_SCORE_THRESHOLD, THRESHOLDS, round_steps

        tdir = self.tmp / f"trace_{k:03d}"
        round_steps(self.workload, scenes, tdir)
        job = {
            "run_id": f"{self.workload.name}-trace-{k}",
            "out": str(tdir),
            "annotate": str(tdir / "annotate.json"),
            "merge": str(tdir / "merge_0.json"),
            "thresholds": THRESHOLDS,
            "score_threshold": ITERATE_SCORE_THRESHOLD,
            "sites": {site.name: {"truth": str(scenes / site.name / "truth"),
                                  "masks": str(scenes / site.name / "masks")}
                      for site in self.workload.sites},
        }
        (tdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        code, _ = self.child("trace", tdir / "job.json", tdir / "result.json")
        tag = f"{self.workload.name} trace {k}"
        metrics = None
        if self.check(code == 0, f"{tag}: child exit {code}"):
            result = json.loads((tdir / "result.json").read_text(encoding="utf-8"))
            ref = [tdir / "out" / site.name / "labels" for site in self.workload.sites]
            ok = self.check(not result["fidelity_mismatches"],
                            f"{tag}: traced outputs differ from run_teacher's: "
                            f"{result['fidelity_mismatches'][:5]}")
            ok &= self.check(tree_digest(ref) == self.label_digest,
                             f"{tag}: run_teacher labels differ from the annotate step's")
            if ok:
                print(f"{tag}: fidelity ok, traced outputs byte-identical to run_teacher's")
                self.spans += result["spans"]
                metrics = self.per_layer(result, annotate_s, import_s)
        shutil.rmtree(tdir)
        return metrics

    def per_layer(self, result: dict, annotate_s: float, import_s: float) -> dict[str, float]:
        spans, counts = result["spans"], result["counts"]
        frames = counts["frames"]

        def total_ms(name):
            return 1000.0 * sum(durations(spans, name))

        def ms(name):
            return [1000.0 * d for d in durations(spans, name)]

        teacher_s = sum(result["teacher_s"].values())
        workers = self.workload.parallelism if len(self.workload.sites) > 1 else 1
        return {
            "core.load_ms_per_frame": total_ms("core.load_frame_sequence") / frames,
            "core.load_mb": counts["load_bytes"] / MB,
            "core.write_labels_ms": total_ms("core.write_labels"),
            "preprocess.pad_crop_ms_per_frame":
                (total_ms("preprocess.pad_frame") + total_ms("preprocess.crop_frame")) / frames,
            "preprocess.points_cropped": counts["points_cropped"],
            "preprocess.unify_datasets_ms": total_ms("preprocess.unify_datasets"),
            "background.histogram_ms": total_ms("background.build_histogram"),
            "background.select_ms": total_ms("background.select_background"),
            "background.filter_ms_per_frame": total_ms("background.filter_frame") / frames,
            "background.points_removed": counts["points_removed"],
            "background.bg_recall": counts["bg_removed"] / counts["bg_points"],
            "background.fg_recall": counts["fg_kept"] / counts["fg_points"],
            "clustering.dbscan_ms_p50": percentile(ms("clustering.dbscan"), 50),
            "clustering.dbscan_ms_p90": percentile(ms("clustering.dbscan"), 90),
            "clustering.points_in": counts["points_in"],
            "clustering.clusters": counts["clusters"],
            "clustering.noise_points": counts["noise_points"],
            "annotate.frame_ms_p50": percentile(ms("annotate.annotate_frame"), 50),
            "annotate.frame_ms_p90": percentile(ms("annotate.annotate_frame"), 90),
            "annotate.clusters_in": counts["clusters"],
            "annotate.labels_out": counts["labels_out"],
            "annotate.accept_ratio": counts["labels_out"] / counts["clusters"] if counts["clusters"] else 1.0,
            "evaluate.ms": total_ms("evaluate.evaluate_labels"),
            "evaluate.iou_pairs": counts["iou_pairs"],
            "pipeline.frame_ms_p50": percentile(ms("pipeline.frame"), 50),
            "pipeline.frame_ms_p90": percentile(ms("pipeline.frame"), 90),
            "pipeline.merge_ms": total_ms("pipeline.merge_supersets"),
            "pipeline.iterate_ms": total_ms("pipeline.iterate"),
            "pipeline.pool_efficiency": teacher_s / (workers * annotate_s),
            "pipeline.trace_overhead_pct": 100.0 * (
                sum(durations(spans, "pipeline.teacher")) / sum(result["warm_teacher_s"].values()) - 1.0),
            "simulate.render_ms_per_frame": 1000.0 * sum(self.render_s) / self.workload.frames,
            "cli.import_s": import_s,
        }


def timing_medians(rounds: list[dict]) -> dict[str, float]:
    """Medians of the timed steps' samples, pooled over rounds."""
    return {
        "annotate_fps": statistics.median(v for r in rounds for v in r["annotate_fps"]),
        # One evaluate pass covers every site: the sum of the per-site medians.
        "evaluate_s": sum(statistics.median(v for r in rounds for v in r["evaluate_s"][site])
                          for site in rounds[0]["evaluate_s"]),
        "merge_s": statistics.median(v for r in rounds for v in r["merge_s"]),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "roadlidar" / "cli.py").is_file():
        print(f"error: run from the root of a roadlidar checkout; {src / 'roadlidar'} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    (root / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_tmp"))
    (tmp / "tmp").mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp / "tmp"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run_id = f"{args.workload}-seed{args.seed}"
    bench = Bench(tmp, WORKLOADS[args.workload](args.seed), env)
    become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    try:
        scenes = bench.render(args.seed)
        setup_walls, setup_scaled, import_times = bench.setup_samples()
        passed = []
        attempted = 0
        start = time.perf_counter()
        # Three rounds at least (one when traced), then a round only if it
        # should end within --seconds, judging by the rounds so far.
        min_rounds = 1 if args.trace else 3
        while attempted < min_rounds or (time.perf_counter() - start) * (attempted + 1) / attempted <= args.seconds:
            attempted += 1
            metrics = bench.round(attempted, scenes)
            if metrics is not None and args.trace:
                annotate_s = bench.workload.frames / metrics["wall"]["annotate_fps"][0]
                metrics = bench.trace(attempted, scenes, annotate_s, statistics.median(import_times))
            if metrics is not None:
                passed.append(metrics)
        failed = attempted - len(passed)
        print(f"labels sha256 {args.workload} seed {args.seed}: {bench.label_digest}")
        print(f"failed runs / attempted runs: {failed} / {attempted}")
        if not passed:
            print("error: no round passed its checks", file=sys.stderr)
            return 1
        if args.trace:
            names = PER_LAYER
            values = {name: statistics.median(t[name] for t in passed) for name in names}
            out = root / ".bench_out"
            out.mkdir(exist_ok=True)
            selfs = self_times(bench.spans)
            (out / f"trace_{run_id}.json").write_text(json.dumps(
                {"spans": bench.spans, "self_s": selfs}), encoding="utf-8")
            print("self time by span (s):")
            for name, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
                print(f"  {name:<36}{s:10.4f}")
        else:
            names = END_TO_END
            values = {name: statistics.median(v for r in passed for v in r[name])
                      for name in ("peak_rss_mb", "ap50_vehicle", "ap50_pedestrian")}
            values.update(timing_medians(passed))
            values["setup_s"] = statistics.median(setup_scaled)
            wall = timing_medians([r["wall"] for r in passed])
            wall["setup_s"] = statistics.median(setup_walls)
            print("wall time, not scaled by the gauges:")
            for name, value in wall.items():
                print(f"    {name:<34}{value:14.6f} {END_TO_END[name]}")
        for name, unit in names.items():
            print(f"  {name:<36}{values[name]:14.6f} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
