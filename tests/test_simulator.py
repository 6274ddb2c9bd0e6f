import numpy as np
import pytest

from reference import project
from stereomot import (
    DegradeModel,
    SimConfig,
    SyntheticSequence,
    annotate,
    default_rig,
    degrade,
    perfect_detections,
    render,
    simulate,
)
from stereomot.simulator import body_spheres


def short_cfg(**kw):
    base = dict(n_fish=2, duration_s=2.0, fps=60.0, seed=3)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(duration_s=1.0, fps=59.7)  # non-integral frame count
    with pytest.raises(ValueError):
        SimConfig(taper=1.0)
    with pytest.raises(ValueError):
        SimConfig(n_spheres=1)
    with pytest.raises(ValueError):
        SimConfig(n_fish=0)
    assert SimConfig(duration_s=1.5, fps=60.0).n_frames == 90


def test_simulate_deterministic():
    a = simulate(short_cfg())
    b = simulate(short_cfg())
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.headings, b.headings)
    c = simulate(short_cfg(seed=4))
    assert not np.array_equal(a.positions, c.positions)


def test_simulate_stays_in_tank():
    for seed in (0, 1, 2):
        seq = simulate(short_cfg(seed=seed, duration_s=5.0))
        tank = seq.config.tank
        assert seq.positions.shape == (300, 2, 3)
        assert (seq.positions >= tank.mins - 1e-9).all()
        assert (seq.positions <= tank.maxs + 1e-9).all()


def test_slab_confinement_separates_fish():
    seq = simulate(short_cfg(confine_axis_slabs=True, duration_s=5.0))
    x0 = seq.positions[:, 0, 0]
    x1 = seq.positions[:, 1, 0]
    assert x0.max() <= 9.0 + 1e-9   # slab [6, 9] for the first fish
    assert x1.min() >= 21.0 - 1e-9  # slab [21, 24] for the second
    with pytest.raises(ValueError):
        simulate(short_cfg(n_fish=5, confine_axis_slabs=True, slab_margin=6.0))


def test_simulate_speed_calibration():
    cfg = SimConfig(n_fish=1, duration_s=120.0, fps=60.0, seed=11)
    seq = simulate(cfg)
    steps = np.diff(seq.positions[:, 0, :], axis=0)
    speeds = np.linalg.norm(steps, axis=1) * cfg.fps
    assert abs(speeds.mean() - cfg.speed_mean) / cfg.speed_mean < 0.1


def test_headings_unit_norm():
    seq = simulate(short_cfg(duration_s=3.0))
    norms = np.linalg.norm(seq.headings, axis=2)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_body_spheres_layout():
    cfg = short_cfg()
    head = np.array([15.0, 15.0, 7.0])
    heading = np.array([1.0, 0.0, 0.0])
    centers, radii = body_spheres(cfg, head, heading)
    assert centers.shape == (cfg.n_spheres, 3)
    assert np.allclose(centers[0], head)
    assert np.allclose(centers[-1], head - np.array([0.85 * cfg.body_length, 0, 0]))
    assert radii[0] == cfg.body_radius
    assert radii[-1] == pytest.approx(cfg.body_radius * (1 - cfg.taper))
    assert (np.diff(radii) < 0).all()


def handmade_sequence(positions):
    """Sequence with scripted positions: (frames, fish, 3), +x headings."""
    positions = np.asarray(positions, dtype=float)
    n_frames, n_fish, _ = positions.shape
    cfg = SimConfig(n_fish=n_fish, duration_s=n_frames / 60.0, fps=60.0)
    headings = np.zeros_like(positions)
    headings[:, :, 0] = 1.0
    return SyntheticSequence(config=cfg, rig=default_rig(tank=cfg.tank),
                             positions=positions, headings=headings)


def test_annotate_complete_and_in_bounds():
    seq = simulate(short_cfg(duration_s=1.0))
    gt = annotate(seq)
    assert gt.n_frames == 60
    assert gt.n_fish == 2
    assert gt.fps == 60.0
    for f in range(gt.n_frames):
        for i in (1, 2):
            assert np.array_equal(gt.points3d[f, i - 1], seq.positions[f, i - 1])
            for view in ("top", "front"):
                x, y, w, h = gt.boxes[view][f, i - 1]
                head = gt.heads[view][f, i - 1]
                assert w >= 1 and h >= 1
                assert 0 <= x and x + w <= 800
                assert 0 <= y and y + h <= 800
                assert x <= head[0] <= x + w
                assert y <= head[1] <= y + h


def test_occlusion_flags_from_scripted_overlap():
    # same (x, y): the top view stacks them; front depths stay far apart
    a = [10.0, 15.0, 3.0]
    b = [10.0, 15.0, 12.0]
    apart = [25.0, 15.0, 12.0]
    pos = np.array([[a, b]] * 5 + [[a, apart]] * 5)
    gt = annotate(handmade_sequence(pos))
    for f in range(5):
        assert gt.occluded["top"][f, 0]
        assert gt.occluded["top"][f, 1]
        assert not gt.occluded["front"][f, 0]
    for f in range(5, 10):
        for i in (1, 2):
            assert not gt.occluded["top"][f, i - 1]


def test_render_paints_fish_dark():
    seq = simulate(short_cfg(duration_s=1.0))
    top, front = render(seq, 0)
    assert top.shape == front.shape == (800, 800)
    assert top.dtype == np.uint8
    for i in range(2):
        u, v = project(seq.positions[0, i], seq.rig.top)
        assert top[int(round(v)), int(round(u))] < 100
    again, _ = render(seq, 0)
    assert np.array_equal(top, again)


def test_perfect_detections_mirror_annotations():
    gt = annotate(simulate(short_cfg(duration_s=1.0)))
    dets = perfect_detections(gt)
    assert set(dets) == {"top", "front"}
    for view in ("top", "front"):
        t = dets[view]
        assert t.frame.tolist() == [f for f in range(60) for _ in range(2)]
        assert np.array_equal(t.head, gt.heads[view].reshape(-1, 2))
        assert np.array_equal(t.cands[:, 0], t.head)  # the head alone
        assert np.isnan(t.cands[:, 1:]).all()
        assert (t.confidence == 100.0).all()
        assert np.array_equal(t.bbox, gt.boxes[view].reshape(-1, 4))


def all_heads(dets):
    return [(v, f, tuple(h)) for v, t in dets.items()
            for f, h in zip(t.frame.tolist(), t.head.tolist())]


def test_degrade_identity_and_determinism():
    dets = perfect_detections(annotate(simulate(short_cfg(duration_s=1.0))))
    clean = degrade(dets, DegradeModel(), seed=5)
    assert all_heads(clean) == all_heads(dets)
    a = degrade(dets, DegradeModel(drop_rate=0.3, jitter_px=1.5,
                                   ghost_rate=0.2), seed=5)
    b = degrade(dets, DegradeModel(drop_rate=0.3, jitter_px=1.5,
                                   ghost_rate=0.2), seed=5)
    assert all_heads(a) == all_heads(b)
    c = degrade(dets, DegradeModel(drop_rate=0.3, jitter_px=1.5,
                                   ghost_rate=0.2), seed=6)
    assert all_heads(a) != all_heads(c)


def test_degrade_drops_reduce_count():
    dets = perfect_detections(annotate(simulate(short_cfg(duration_s=2.0))))
    n_clean = len(all_heads(dets))
    dropped = degrade(dets, DegradeModel(drop_rate=0.4), seed=1)
    n_dropped = len(all_heads(dropped))
    assert n_dropped < n_clean
    assert n_dropped > 0


def test_degrade_jitter_moves_heads():
    dets = perfect_detections(annotate(simulate(short_cfg(duration_s=1.0))))
    jittered = degrade(dets, DegradeModel(jitter_px=2.0), seed=1)
    before = all_heads(dets)
    after = all_heads(jittered)
    assert len(before) == len(after)
    deltas = [np.hypot(b[2][0] - a[2][0], b[2][1] - a[2][1])
              for a, b in zip(before, after)]
    assert max(deltas) > 0.1
    assert max(deltas) < 20.0


def test_degrade_ghosts_add_detections():
    dets = perfect_detections(annotate(simulate(short_cfg(duration_s=2.0))))
    ghosted = degrade(dets, DegradeModel(ghost_rate=1.0), seed=1)
    assert len(all_heads(ghosted)) > len(all_heads(dets))
    for t in ghosted.values():
        assert ((0.0 <= t.head) & (t.head <= 800.0)).all()


def test_degrade_model_validation():
    with pytest.raises(ValueError):
        DegradeModel(drop_rate=1.0)
    with pytest.raises(ValueError):
        DegradeModel(jitter_px=-0.1)
    with pytest.raises(ValueError):
        DegradeModel(ghost_rate=-1.0)
