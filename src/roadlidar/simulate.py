"""Synthetic roadside scenes with exact per-point and per-object ground truth.

Each frame casts one ray per beam of a fixed azimuth x elevation grid;
the nearest hit among static geometry (ground plane, boxes, vertical
cylinders) and actor surfaces becomes a point, with additive Gaussian range
noise.  Beams that hit nothing are padding, so index j maps to the same
(azimuth, elevation) in every frame.  Primitives flagged with a jitter sigma
(foliage) have their hit points perturbed per frame, which is what makes
them background with spread instead of a single crisp range.

Ground truth comes for free: a mask byte per point (0 background,
1 foreground, 2 padding) and the actors' exact oriented boxes for every
frame in which they are sufficiently visible.

Determinism: the random stream of frame t derives from (seed, t), so frames
can render in parallel and still reproduce bit-identically.

Actors follow waypoint polylines at constant speed, optionally after a spawn
delay (``start_time``), and hold their final pose once the path is consumed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    ConfigError,
    Frame,
    FrameBuffers,
    FrameSequence,
    LabelClass,
    LabelSet,
    ObjectLabel,
    SensorMeta,
    check_finite,
    check_nonnegative,
    check_positive,
    json_fields,
    json_float,
    json_floats,
    json_int,
    json_list,
    json_value,
    normalize_yaw_half,
    publish,
    read_json_config,
)

MASK_BACKGROUND = 0
MASK_FOREGROUND = 1
MASK_PADDING = 2

_EPS_T = 1e-6
_TINY = 1e-12


@dataclass(frozen=True)
class SensorModel:
    """Beam grid and noise model of the simulated unit.

    Beams are ordered elevation-major: index = i_el * azimuth_count + i_az.
    """

    origin: tuple[float, float, float] = (0.0, 0.0, 4.0)
    azimuth_deg: tuple[float, float] = (-180.0, 180.0)
    azimuth_count: int = 1024
    elevation_deg: tuple[float, float] = (-22.5, 22.5)
    elevation_count: int = 64
    frequency_hz: float = 10.0
    range_noise_sigma: float = 0.0
    max_range: float = 120.0

    def __post_init__(self) -> None:
        if self.azimuth_count < 1 or self.elevation_count < 1:
            raise ConfigError("beam counts must be >= 1")
        check_finite("sensor origin", self.origin)
        check_finite("azimuth_deg", self.azimuth_deg)
        check_finite("elevation_deg", self.elevation_deg)
        check_positive("frequency_hz", self.frequency_hz)
        check_positive("max_range", self.max_range)
        check_nonnegative("range_noise_sigma", self.range_noise_sigma)

    @property
    def beam_count(self) -> int:
        return self.azimuth_count * self.elevation_count

    def directions(self) -> np.ndarray:
        az = np.radians(np.linspace(self.azimuth_deg[0], self.azimuth_deg[1], self.azimuth_count))
        el = np.radians(np.linspace(self.elevation_deg[0], self.elevation_deg[1], self.elevation_count))
        el_grid, az_grid = np.meshgrid(el, az, indexing="ij")
        cos_el = np.cos(el_grid)
        dirs = np.stack(
            [cos_el * np.cos(az_grid), cos_el * np.sin(az_grid), np.sin(el_grid)], axis=-1
        )
        return dirs.reshape(-1, 3)

    def meta(self) -> SensorMeta:
        return SensorMeta(self.azimuth_count, self.elevation_count)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundPlane:
    z: float = 0.0
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_finite("ground z", self.z)

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        dz = dirs[:, 2]
        dz_safe = np.where(np.abs(dz) < _TINY, _TINY, dz)
        t = (self.z - origin[2]) / dz_safe
        return np.where((np.abs(dz) >= _TINY) & (t > _EPS_T), t, np.inf)


@dataclass(frozen=True)
class BoxObstacle:
    """Axis-aligned box rotated by yaw about +z, centered at ``center``."""

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float = 0.0
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_finite("box center", self.center)
        check_positive("box dims", self.dims)
        check_finite("box yaw", self.yaw)

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])  # world -> local
        o = rot @ (origin - np.asarray(self.center))
        d = dirs @ rot.T
        half = np.asarray(self.dims) / 2.0
        d_safe = np.where(np.abs(d) < _TINY, _TINY, d)
        t1 = (-half - o) / d_safe
        t2 = (half - o) / d_safe
        t_low = np.minimum(t1, t2).max(axis=1)
        t_high = np.maximum(t1, t2).min(axis=1)
        hit = (t_low <= t_high) & (t_high > _EPS_T) & (t_low > _EPS_T)
        return np.where(hit, t_low, np.inf)


@dataclass(frozen=True)
class CylinderObstacle:
    """Vertical cylinder with end caps, spanning z in [z_low, z_high]."""

    center_xy: tuple[float, float]
    radius: float
    z_low: float
    z_high: float
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_finite("cylinder center", self.center_xy)
        check_positive("cylinder radius", self.radius)
        check_finite("cylinder z_low and z_high", (self.z_low, self.z_high))
        if not self.z_low < self.z_high:
            raise ConfigError(f"cylinder z_low must be below z_high, got {self.z_low!r} and {self.z_high!r}")

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        ox = origin[0] - self.center_xy[0]
        oy = origin[1] - self.center_xy[1]
        dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
        a = dx * dx + dy * dy
        b = 2.0 * (ox * dx + oy * dy)
        cc = ox * ox + oy * oy - self.radius * self.radius
        disc = b * b - 4.0 * a * cc
        a_safe = np.where(a < _TINY, _TINY, a)
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        t_side = (-b - sqrt_disc) / (2.0 * a_safe)
        z_side = origin[2] + t_side * dz
        side_ok = (disc > 0) & (a >= _TINY) & (t_side > _EPS_T) & (z_side >= self.z_low) & (z_side <= self.z_high)
        t_best = np.where(side_ok, t_side, np.inf)
        for z_cap in (self.z_high, self.z_low):
            dz_safe = np.where(np.abs(dz) < _TINY, _TINY, dz)
            t_cap = (z_cap - origin[2]) / dz_safe
            px = origin[0] + t_cap * dirs[:, 0] - self.center_xy[0]
            py = origin[1] + t_cap * dirs[:, 1] - self.center_xy[1]
            cap_ok = (np.abs(dz) >= _TINY) & (t_cap > _EPS_T) & (px * px + py * py <= self.radius * self.radius)
            t_best = np.where(cap_ok & (t_cap < t_best), t_cap, t_best)
        return t_best


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Actor:
    """A moving object following a waypoint polyline at constant speed.

    ``shape`` is "cuboid" (dims = length, width, height; classifies as
    Vehicle in the truth) or "cylinder" (dims = radius, height; Pedestrian).
    Before ``start_time`` the actor is not in the scene; once the path is
    consumed it holds the final pose.
    """

    shape: str
    dims: tuple[float, ...]
    waypoints: tuple[tuple[float, float], ...]
    speed: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.shape not in ("cuboid", "cylinder"):
            raise ConfigError(f"unknown actor shape '{self.shape}'")
        if self.shape == "cuboid" and len(self.dims) != 3:
            raise ConfigError("cuboid dims must be (length, width, height)")
        if self.shape == "cylinder" and len(self.dims) != 2:
            raise ConfigError("cylinder dims must be (radius, height)")
        check_positive(f"{self.shape} dims", self.dims)
        if self.shape == "cuboid" and self.dims[0] < self.dims[1]:
            raise ConfigError("cuboid length must be >= width")
        if len(self.waypoints) < 1:
            raise ConfigError("actor needs at least one waypoint")
        check_finite("actor waypoints", self.waypoints)
        check_positive("actor speed", self.speed)
        check_nonnegative("actor start_time", self.start_time)

    def pose_at(self, sim_time: float) -> tuple[float, float, float] | None:
        """(x, y, heading) at a time, or None before spawn."""
        if sim_time < self.start_time:
            return None
        wp = np.asarray(self.waypoints, dtype=np.float64)
        if len(wp) == 1:
            return float(wp[0, 0]), float(wp[0, 1]), 0.0
        seg = np.diff(wp, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        travel = min(self.speed * (sim_time - self.start_time), float(seg_len.sum()))
        heading = math.atan2(seg[-1, 1], seg[-1, 0])
        for k in range(len(seg)):
            if travel <= seg_len[k] or k == len(seg) - 1:
                if seg_len[k] > 0:
                    u = min(travel / seg_len[k], 1.0)
                    heading = math.atan2(seg[k, 1], seg[k, 0])
                else:
                    u = 0.0
                x = wp[k, 0] + u * seg[k, 0]
                y = wp[k, 1] + u * seg[k, 1]
                return float(x), float(y), heading
            travel -= seg_len[k]
        raise AssertionError("unreachable")

    def placed(self, sim_time: float) -> tuple[BoxObstacle | CylinderObstacle, ObjectLabel] | None:
        """The actor's surface and its truth box at a time, or None before spawn."""
        pose = self.pose_at(sim_time)
        if pose is None:
            return None
        x, y, heading = pose
        if self.shape == "cuboid":
            length, width, height = self.dims
            return BoxObstacle((x, y, height / 2.0), (length, width, height), heading), ObjectLabel(
                x, y, height / 2.0, length, width, height,
                normalize_yaw_half(heading), LabelClass.VEHICLE, 1.0,
            )
        radius, height = self.dims
        return CylinderObstacle((x, y), radius, 0.0, height), ObjectLabel(
            x, y, height / 2.0, 2.0 * radius, 2.0 * radius, height,
            0.0, LabelClass.PEDESTRIAN, 1.0,
        )


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------

@dataclass
class SceneSpec:
    """Declarative description of one synthetic recording."""

    sensor: SensorModel
    static: list = field(default_factory=list)
    actors: list[Actor] = field(default_factory=list)
    duration: int = 100
    seed: int = 0
    min_truth_points: int = 5

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ConfigError("duration must be >= 1")
        if self.min_truth_points < 1:
            raise ConfigError("min_truth_points must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for prim in self.static:
            check_nonnegative("jitter_sigma", prim.jitter_sigma)


def _nearer(prim, slot: int, origin: np.ndarray, dirs: np.ndarray,
            t_best: np.ndarray, winner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running nearest hit after ``prim``: strictly nearer wins, so a tie keeps the earlier."""
    t = prim.intersect(origin, dirs)
    closer = t < t_best
    return np.where(closer, t, t_best), np.where(closer, slot, winner)


def render_frames(spec: SceneSpec) -> Iterator[tuple[Frame, np.ndarray, list[ObjectLabel]]]:
    """Render each frame in order: the frame (1-based index), its mask bytes, its truth boxes.

    Statics do not move, and their jitter is added after the hit test, so
    their running nearest hit per beam is computed once per scene; each
    frame continues it over the actors present.
    """
    sensor = spec.sensor
    origin = np.asarray(sensor.origin, dtype=np.float64)
    dirs = sensor.directions()
    n = dirs.shape[0]
    n_static = len(spec.static)
    static_t = np.full(n, np.inf)
    static_winner = np.full(n, -1, dtype=np.int64)
    for slot, prim in enumerate(spec.static):
        static_t, static_winner = _nearer(prim, slot, origin, dirs, static_t, static_winner)

    for frame_index in range(1, spec.duration + 1):
        sim_time = (frame_index - 1) / sensor.frequency_hz
        placed = [p for p in (actor.placed(sim_time) for actor in spec.actors) if p is not None]
        t_best, winner = static_t, static_winner
        for slot, (prim, _) in enumerate(placed, n_static):
            t_best, winner = _nearer(prim, slot, origin, dirs, t_best, winner)

        out_of_range = t_best > sensor.max_range
        t_best = np.where(out_of_range, np.inf, t_best)
        winner = np.where(out_of_range, -1, winner)
        hit = winner >= 0

        rng = np.random.default_rng([spec.seed, frame_index])
        if sensor.range_noise_sigma > 0:
            t_best = t_best + rng.normal(0.0, sensor.range_noise_sigma, n)

        xyz = np.where(hit[:, None], origin + dirs * np.where(hit, t_best, 0.0)[:, None], 0.0)
        for slot, prim in enumerate(spec.static):
            if prim.jitter_sigma > 0:
                jitter = rng.normal(0.0, prim.jitter_sigma, (n, 3))
                xyz = np.where((winner == slot)[:, None], xyz + jitter, xyz)

        mask = np.full(n, MASK_PADDING, dtype=np.uint8)
        mask[hit] = MASK_BACKGROUND
        mask[hit & (winner >= n_static)] = MASK_FOREGROUND

        truth = [
            label for slot, (_, label) in enumerate(placed, n_static)
            if int((winner == slot).sum()) >= spec.min_truth_points
        ]
        yield Frame(frame_index, xyz, ~hit), mask, truth


def render_sequence(spec: SceneSpec) -> tuple[FrameSequence, list[np.ndarray], list[list[ObjectLabel]]]:
    """Render the whole scene: frames, per-frame masks, per-frame truth boxes."""
    frames, masks, truths = (list(column) for column in zip(*render_frames(spec)))
    seq = FrameSequence(frames, spec.sensor.meta(), [f"{k:06d}" for k in range(1, spec.duration + 1)])
    return seq, masks, truths


# ---------------------------------------------------------------------------
# Scene I/O
# ---------------------------------------------------------------------------

def write_scene_outputs(spec: SceneSpec, out_dir: str | Path) -> dict[str, Path]:
    """Render and write frames/, truth/ and masks/ under ``out_dir``.

    Frames use the standard .bin format, truth boxes the label format, and
    masks are one raw byte per point per frame (``<stem>.mask``).  Each
    frame is rendered and its frame, truth and mask files written before the
    next, the frame through one set of ``FrameBuffers``, so memory stays
    flat in the scene's duration.  The three directories are published
    together by ``publish``, each replacing the previous one whole, so a
    shorter scene leaves no frames of a longer one.
    """
    out_dir = Path(out_dir)
    paths = {"frames": out_dir / "frames", "truth": out_dir / "truth", "masks": out_dir / "masks"}
    with publish(*paths.values()) as (frames_dir, truth_dir, masks_dir):
        for directory in (frames_dir, truth_dir, masks_dir):
            directory.mkdir()
        buffers = FrameBuffers(spec.sensor.beam_count)
        for frame, mask, truth in render_frames(spec):
            stem = f"{frame.timestamp_index:06d}"
            buffers.write(frames_dir / f"{stem}.bin", frame.xyz)
            LabelSet.from_labels({stem: truth}).write(truth_dir)
            (masks_dir / f"{stem}.mask").write_bytes(mask.tobytes())
    return paths


_PAIR, _TRIPLE = partial(json_floats, n=2), partial(json_floats, n=3)


def _kind(section: Any, key: str) -> str | None:
    """The kind that the scene object ``section`` names under ``key``, which
    picks the readers of its other keys, so that one ``json_fields`` call
    reads the whole object; None if it names none."""
    kind = section.get(key) if isinstance(section, Mapping) else None
    return kind if isinstance(kind, str) else None


_STATIC_FIELDS = {
    "ground": {"z": json_float, "jitter_sigma": json_float},
    "box": {"center": _TRIPLE, "dims": _TRIPLE, "yaw": json_float, "jitter_sigma": json_float},
    "cylinder": {"center": _PAIR, **dict.fromkeys(("radius", "z_low", "z_high", "jitter_sigma"), json_float)},
}


def _static_from_dict(prim: Any, name: str):
    f = json_fields(prim, name, type=json_value, **_STATIC_FIELDS.get(_kind(prim, "type"), {}))
    kind = f.pop("type")
    if kind == "ground":
        return GroundPlane(**f)
    if kind == "box":
        return BoxObstacle(**f)
    if kind == "cylinder":
        return CylinderObstacle(f.pop("center"), f.pop("radius"), f.pop("z_low", 0.0), f.pop("z_high"), **f)
    raise ConfigError(f"unknown static primitive type '{kind}'")


def _actor_from_dict(actor: Any, name: str) -> Actor:
    dims = ("length", "width", "height") if _kind(actor, "shape") == "cuboid" else ("radius", "height")
    f = json_fields(actor, name, shape=json_value, **dict.fromkeys(dims, json_float),
                    waypoints=partial(json_list, read=_PAIR), speed=json_float, start_time=json_float)
    return Actor(f.pop("shape"), tuple(f.pop(key) for key in dims), tuple(f.pop("waypoints")), **f)


def scene_from_dict(data: Any) -> SceneSpec:
    """Build a SceneSpec from parsed declarative configuration.

    A malformed field raises the plain Python error; ``load_scene`` reports it
    as a ConfigError naming the file.
    """
    f = json_fields(
        data, "simulate config",
        sensor=lambda value, name: SensorModel(**json_fields(
            value, name, origin=_TRIPLE, azimuth_deg=_PAIR, azimuth_count=json_int, elevation_deg=_PAIR,
            elevation_count=json_int, frequency_hz=json_float, range_noise_sigma=json_float, max_range=json_float,
        )),
        static=partial(json_list, read=_static_from_dict), actors=partial(json_list, read=_actor_from_dict),
        duration=json_int, seed=json_int, min_truth_points=json_int,
    )
    return SceneSpec(f.pop("sensor", SensorModel()), **f)


def load_scene(path: str | Path) -> SceneSpec:
    return read_json_config(path, scene_from_dict)


# ---------------------------------------------------------------------------
# Built-in scenes
# ---------------------------------------------------------------------------

def _intersection_statics() -> list:
    return [
        GroundPlane(z=0.0),
        # building facade closing the back of the viewing wedge
        BoxObstacle(center=(42.0, 0.0, 4.5), dims=(1.0, 70.0, 9.0)),
        # signal pole, behind the actor area so it never occludes them
        CylinderObstacle(center_xy=(35.0, -12.0), radius=0.15, z_low=0.0, z_high=6.0),
    ]


def default_scene(duration: int = 200, seed: int = 7, range_noise_sigma: float = 0.01) -> SceneSpec:
    """The built-in validation scene: one vehicle and two pedestrians.

    A 60 degree viewing wedge over an intersection corner, closed by a
    facade, with a tree crown that jitters frame to frame.  Actors spawn
    after the background-model query window and keep moving inside the wedge
    until the end of the recording, so the scene exercises the filter and
    the annotator without field-of-view edge effects.

    The beam grid is deliberately denser in elevation than a coarse spinning
    unit so pedestrian-scale targets carry enough rows for box fitting at
    desk-scale frame counts.
    """
    sensor = SensorModel(
        origin=(0.0, 0.0, 4.0),
        azimuth_deg=(-30.0, 30.0),
        azimuth_count=240,
        elevation_deg=(-25.0, -2.0),
        elevation_count=185,
        frequency_hz=10.0,
        range_noise_sigma=range_noise_sigma,
        max_range=90.0,
    )
    static = _intersection_statics()
    static.append(CylinderObstacle(center_xy=(20.0, 10.0), radius=1.2, z_low=0.0, z_high=4.5, jitter_sigma=0.02))
    actors = [
        Actor(
            shape="cuboid", dims=(4.2, 1.8, 1.5), speed=2.4, start_time=5.5,
            waypoints=((26.0, -6.5), (26.0, 7.0), (18.0, 7.0), (18.0, -7.5)),
        ),
        Actor(
            shape="cylinder", dims=(0.35, 1.75), speed=0.9, start_time=5.6,
            waypoints=((11.0, 0.5), (11.0, 5.0), (13.5, 5.0), (13.5, 0.5), (11.0, 0.5)),
        ),
        Actor(
            shape="cylinder", dims=(0.32, 1.65), speed=0.85, start_time=5.8,
            waypoints=((12.0, -5.5), (12.0, -0.8), (14.0, -0.8), (14.0, -5.5), (12.0, -5.5)),
        ),
    ]
    return SceneSpec(
        sensor=sensor, static=static, actors=actors,
        duration=duration, seed=seed, min_truth_points=5,
    )


def static_scene(duration: int = 60, seed: int = 3) -> SceneSpec:
    """The default statics with no actors and zero noise; exactly frame-invariant."""
    sensor = SensorModel(
        origin=(0.0, 0.0, 4.0),
        azimuth_deg=(-30.0, 30.0),
        azimuth_count=120,
        elevation_deg=(-25.0, -2.0),
        elevation_count=48,
        frequency_hz=10.0,
        range_noise_sigma=0.0,
        max_range=90.0,
    )
    return SceneSpec(
        sensor=sensor, static=_intersection_statics(), actors=[],
        duration=duration, seed=seed,
    )
