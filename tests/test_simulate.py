"""Ray-cast scene rendering: determinism, kinematics, output contracts."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import naive_format_label_line

from roadlidar.core import (
    ConfigError,
    FrameBuffers,
    LabelClass,
    SensorMeta,
    load_frame_sequence,
    read_labels,
)
from roadlidar.simulate import (
    Actor,
    BoxObstacle,
    CylinderObstacle,
    GroundPlane,
    MASK_BACKGROUND,
    MASK_FOREGROUND,
    MASK_PADDING,
    SceneSpec,
    SensorModel,
    default_scene,
    load_scene,
    render_sequence,
    scene_from_dict,
    static_scene,
    write_scene_outputs,
)

SMALL_SENSOR = SensorModel(
    origin=(0, 0, 3.0), azimuth_deg=(-20, 20), azimuth_count=60,
    elevation_deg=(-20, -3), elevation_count=24, range_noise_sigma=0.0,
    max_range=60.0,
)


def _scene(actors=(), noise=0.0, duration=5, seed=9):
    sensor = SensorModel(
        origin=SMALL_SENSOR.origin, azimuth_deg=SMALL_SENSOR.azimuth_deg,
        azimuth_count=SMALL_SENSOR.azimuth_count, elevation_deg=SMALL_SENSOR.elevation_deg,
        elevation_count=SMALL_SENSOR.elevation_count, range_noise_sigma=noise,
        max_range=SMALL_SENSOR.max_range,
    )
    return SceneSpec(
        sensor=sensor,
        static=[GroundPlane(0.0), BoxObstacle((25.0, 0.0, 3.0), (1.0, 30.0, 6.0))],
        actors=list(actors),
        duration=duration,
        seed=seed,
    )


class TestRendering:
    def test_no_actors_all_background(self):
        seq, masks, truths = render_sequence(_scene())
        for mask in masks:
            assert set(np.unique(mask)) <= {MASK_BACKGROUND, MASK_PADDING}
        assert all(t == [] for t in truths)

    def test_static_cuboid_constant_points(self):
        actor = Actor("cuboid", (2.0, 1.0, 1.5), ((12.0, 0.0),), speed=1.0)
        seq, masks, _ = render_sequence(_scene([actor]))
        first = seq.frames[0]
        for frame in seq.frames[1:]:
            np.testing.assert_array_equal(frame.xyz, first.xyz)
            np.testing.assert_array_equal(frame.padding, first.padding)
        assert (masks[0] == MASK_FOREGROUND).sum() > 0

    def test_zero_noise_static_scene_frame_invariant(self):
        seq, _, _ = render_sequence(static_scene(duration=4))
        first = seq.frames[0]
        for frame in seq.frames[1:]:
            np.testing.assert_array_equal(frame.xyz, first.xyz)

    def test_truth_translates_with_kinematics(self):
        speed, freq = 2.0, SMALL_SENSOR.frequency_hz
        actor = Actor("cuboid", (2.0, 1.0, 1.5), ((12.0, -3.0), (12.0, 5.0)), speed=speed)
        spec = _scene([actor], duration=6)
        _, _, truths = render_sequence(spec)
        step = speed / freq
        for k in range(1, 6):
            assert len(truths[k]) == 1
            prev, cur = truths[k - 1][0], truths[k][0]
            assert cur.center_y - prev.center_y == pytest.approx(step, abs=1e-9)
            assert cur.center_x == pytest.approx(12.0)

    def test_actor_holds_final_pose(self):
        actor = Actor("cuboid", (2.0, 1.0, 1.5), ((12.0, 0.0), (12.0, 1.0)), speed=10.0)
        _, _, truths = render_sequence(_scene([actor], duration=4))
        assert truths[-1][0].center_y == pytest.approx(1.0)

    def test_spawn_delay(self):
        actor = Actor(
            "cylinder", (0.4, 1.7), ((12.0, 0.0), (12.0, 2.0)), speed=1.0, start_time=0.25
        )
        spec = _scene([actor], duration=5)
        seq, masks, truths = render_sequence(spec)
        assert truths[0] == [] and truths[1] == []  # t = 0.0 and 0.1 s
        assert len(truths[3]) == 1
        assert (masks[0] == MASK_FOREGROUND).sum() == 0
        assert (masks[3] == MASK_FOREGROUND).sum() > 0

    def test_determinism_under_seed(self):
        actor = Actor("cylinder", (0.4, 1.7), ((12.0, -2.0), (12.0, 2.0)), speed=1.5)
        a_seq, a_masks, a_truths = render_sequence(_scene([actor], noise=0.02, duration=4))
        b_seq, b_masks, b_truths = render_sequence(_scene([actor], noise=0.02, duration=4))
        for fa, fb in zip(a_seq.frames, b_seq.frames):
            np.testing.assert_array_equal(fa.xyz, fb.xyz)
        for ma, mb in zip(a_masks, b_masks):
            np.testing.assert_array_equal(ma, mb)

    def test_different_seed_differs(self):
        a, _, _ = render_sequence(_scene(noise=0.05, seed=1, duration=2))
        b, _, _ = render_sequence(_scene(noise=0.05, seed=2, duration=2))
        assert not np.array_equal(a.frames[0].xyz, b.frames[0].xyz)

    def test_beam_order_stable(self):
        # the same beam index points the same way in every frame: a static
        # scene with noise keeps hits on the same indices
        seq, _, _ = render_sequence(_scene(noise=0.01, duration=3))
        first = seq.frames[0]
        for frame in seq.frames[1:]:
            np.testing.assert_array_equal(frame.padding, first.padding)

    def test_actor_face_at_a_static_range_stays_background(self):
        # The actor's front face lies in the box's front face, x = 20, so
        # both give every beam through it the same range; a tie keeps the
        # static, which is hit-tested first.
        wall = BoxObstacle((20.5, 0.0, 3.0), (1.0, 30.0, 6.0))
        for face_x, foreground in ((20.0, False), (19.5, True)):
            actor = Actor("cuboid", (2.0, 1.0, 1.5), ((face_x + 1.0, 0.0),), speed=1.0)
            spec = dataclasses.replace(_scene([actor], duration=2), static=[GroundPlane(0.0), wall])
            _, masks, truths = render_sequence(spec)
            for mask, truth in zip(masks, truths):
                assert bool((mask == MASK_FOREGROUND).any()) is foreground
                assert bool(truth) is foreground

    def test_cylinder_top_cap_hit(self):
        # a short fat cylinder straight ahead: beams descending onto the top
        sensor = SensorModel(
            origin=(0, 0, 5.0), azimuth_deg=(-2, 2), azimuth_count=9,
            elevation_deg=(-35, -25), elevation_count=11, max_range=30.0,
        )
        spec = SceneSpec(
            sensor=sensor,
            static=[CylinderObstacle((8.0, 0.0), 1.0, 0.0, 1.2)],
            duration=1,
        )
        seq, _, _ = render_sequence(spec)
        pts = seq.frames[0].xyz[~seq.frames[0].padding]
        top_hits = pts[np.abs(pts[:, 2] - 1.2) < 1e-9]
        assert len(top_hits) > 0


class TestSceneConfig:
    def test_dict_round_trip_essentials(self):
        spec = scene_from_dict(
            {
                "seed": 4,
                "duration": 7,
                "sensor": {
                    "origin": [0, 0, 3.5], "azimuth_deg": [-15, 15], "azimuth_count": 30,
                    "elevation_deg": [-18, -4], "elevation_count": 12,
                    "range_noise_sigma": 0.01, "max_range": 50,
                },
                "static": [
                    {"type": "ground", "z": 0.0, "jitter_sigma": 0.03},
                    {"type": "box", "center": [20, 0, 2], "dims": [1, 20, 4]},
                    {"type": "cylinder", "center": [10, 3], "radius": 0.5, "z_high": 4.0,
                     "jitter_sigma": 0.02},
                ],
                "actors": [
                    {"shape": "cuboid", "length": 4.0, "width": 1.8, "height": 1.5,
                     "speed": 2.0, "waypoints": [[12, -3], [12, 3]], "start_time": 1.0},
                    {"shape": "cylinder", "radius": 0.4, "height": 1.7,
                     "speed": 1.0, "waypoints": [[8, 0], [8, 2]]},
                ],
            }
        )
        assert spec.duration == 7
        assert len(spec.static) == 3
        assert spec.static[0].jitter_sigma == 0.03
        assert spec.actors[0].start_time == 1.0
        render_sequence(spec)  # renders without error

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match="shape"):
            Actor("sphere", (1.0, 1.0), ((0.0, 0.0),), 1.0)

    def test_bad_scene_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scene(path)

    def test_cuboid_dim_order_enforced(self):
        with pytest.raises(ConfigError, match="length"):
            Actor("cuboid", (1.0, 2.0, 1.5), ((0.0, 0.0),), 1.0)


class TestSceneOutputs:
    def test_written_outputs_load_back(self, tmp_path):
        actor = Actor("cuboid", (2.0, 1.0, 1.4), ((12.0, -1.0), (12.0, 2.0)), speed=2.0)
        spec = _scene([actor], noise=0.01, duration=3)
        paths = write_scene_outputs(spec, tmp_path)
        meta = SensorMeta(spec.sensor.azimuth_count, spec.sensor.elevation_count)
        seq = load_frame_sequence(paths["frames"], meta)
        assert len(seq) == 3
        assert all(f.n_points == spec.sensor.beam_count for f in seq.frames)
        truth = read_labels(paths["truth"])
        assert truth["000001"][0].label_class is LabelClass.VEHICLE
        mask = np.fromfile(paths["masks"] / "000001.mask", dtype=np.uint8)
        assert len(mask) == spec.sensor.beam_count
        # mask padding agrees with the loaded frame's padding for this scene
        np.testing.assert_array_equal(mask == MASK_PADDING, seq.frames[0].padding)

    def test_shorter_rerun_leaves_no_stale_files(self, tmp_path):
        write_scene_outputs(_scene(duration=5), tmp_path)
        write_scene_outputs(_scene(duration=3), tmp_path)
        for kind in ("frames", "truth", "masks"):
            assert len(list((tmp_path / kind).iterdir())) == 3
        assert not list(tmp_path.rglob("*.partial"))

    def test_outputs_are_the_rendered_sequence_bytes(self, tmp_path):
        actor = Actor("cuboid", (2.0, 1.0, 1.4), ((12.0, -1.0), (12.0, 2.0)), speed=2.0)
        spec = _scene([actor], noise=0.01, duration=4)
        paths = write_scene_outputs(spec, tmp_path / "out")
        seq, masks, truths = render_sequence(spec)
        for frame, mask, truth, stem in zip(seq.frames, masks, truths, seq.stems):
            FrameBuffers(spec.sensor.beam_count).write(tmp_path / "frame.bin", frame.xyz)
            assert (paths["frames"] / f"{stem}.bin").read_bytes() == (tmp_path / "frame.bin").read_bytes()
            assert (paths["masks"] / f"{stem}.mask").read_bytes() == mask.tobytes()
            lines = "".join(naive_format_label_line(lb) + "\n" for lb in truth)
            assert (paths["truth"] / f"{stem}.txt").read_text() == lines
        assert any(truths)

    def test_outputs_are_pinned(self, tmp_path):
        # Jittered statics, range noise, padding past max_range, an actor
        # present from t = 0 and one that spawns at 0.25 s.  The pin is the
        # SHA-256 over each output file's kind, name and bytes, in order.
        sensor = dataclasses.replace(SMALL_SENSOR, range_noise_sigma=0.02, max_range=40.0)
        static = [
            GroundPlane(0.0, jitter_sigma=0.01),
            BoxObstacle((25.0, 0.0, 3.0), (1.0, 10.0, 6.0)),
            CylinderObstacle((18.0, 5.0), 1.0, 0.0, 4.0, jitter_sigma=0.03),
        ]
        actors = [
            Actor("cuboid", (3.0, 1.5, 1.4), ((12.0, -4.0), (12.0, 4.0)), speed=3.0),
            Actor("cylinder", (0.4, 1.7), ((9.0, 2.0), (9.0, -2.0)), speed=1.2, start_time=0.25),
        ]
        spec = SceneSpec(sensor=sensor, static=static, actors=actors, duration=6, seed=11)
        paths = write_scene_outputs(spec, tmp_path)
        digest = hashlib.sha256()
        for kind, directory in paths.items():
            for path in sorted(directory.iterdir()):
                digest.update(f"{kind}/{path.name}".encode() + b"\0" + path.read_bytes() + b"\0")
        assert digest.hexdigest() == "8472064f21b090050b0e3de05a06dfb9c7d1341472261f71d37191675bb243a0"

    def test_peak_memory_nearly_flat_in_duration(self, tmp_path):
        actor = Actor("cuboid", (2.0, 1.0, 1.4), ((12.0, -1.0), (12.0, 2.0)), speed=2.0)
        peaks = {}
        for duration in (20, 180):
            spec = _scene([actor], noise=0.01, duration=duration)
            spec = dataclasses.replace(
                spec, sensor=dataclasses.replace(spec.sensor, azimuth_count=120, elevation_count=80)
            )
            write_scene_outputs(spec, tmp_path / "warm")  # lazy imports happen outside the trace
            tracemalloc.start()
            try:
                write_scene_outputs(spec, tmp_path / "out")
                peaks[duration] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Each frame's files are written as it is rendered, so nothing
        # accumulates; holding every frame's mask (a byte a beam) and truth
        # boxes took 1.74 times the bytes of 20 frames at 180.
        assert peaks[180] < 1.05 * peaks[20]

    def test_default_scene_shape(self):
        spec = default_scene(duration=1)
        assert spec.sensor.beam_count <= 60000
        assert len(spec.actors) == 3
        shapes = sorted(a.shape for a in spec.actors)
        assert shapes == ["cuboid", "cylinder", "cylinder"]
        # every actor spawns only after the standard 50-frame query window
        assert all(a.start_time > 5.0 for a in spec.actors)
