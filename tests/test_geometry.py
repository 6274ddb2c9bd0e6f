import json

import numpy as np
import pytest

from reference import GeometryError, back_project, project, triangulate
from stereomot import (
    CameraModel,
    StereoRig,
    TankBounds,
    default_rig,
    load_calibration,
    save_calibration,
)
from stereomot.geometry import in_tank, project_batch, triangulate_batch


def random_tank_points(rng, tank, n):
    lo, hi = tank.mins, tank.maxs
    return lo + rng.random((n, 3)) * (hi - lo)


def test_tank_bounds_validation():
    with pytest.raises(ValueError):
        TankBounds(x=(5.0, 5.0))
    with pytest.raises(ValueError):
        TankBounds(z=(10.0, 2.0))


def test_in_tank_closed_bounds(tank):
    assert in_tank(np.array([0.0, 0.0, 0.0]), tank)
    assert in_tank(np.array([30.0, 30.0, 15.0]), tank)
    assert not in_tank(np.array([30.0 + 1e-9, 15.0, 7.0]), tank)
    assert not in_tank(np.array([15.0, -1e-9, 7.0]), tank)


def test_camera_rejects_bad_rotation():
    r = np.eye(3)
    r[0, 0] = 1.1
    with pytest.raises(ValueError):
        CameraModel(fx=1000.0, fy=1000.0, cx=400.0, cy=400.0, rotation=r,
                    translation=np.zeros(3), view_id="top",
                    image_size=(800, 800))


def test_camera_center_inverts_translation(rig):
    for cam in (rig.top, rig.front):
        c = cam.center
        assert np.allclose(cam.rotation @ c + cam.translation, 0.0, atol=1e-12)


def test_project_behind_camera_raises(rig):
    # the top camera looks down; a point above it has negative depth
    above = np.array([15.0, 15.0, 100.0])
    with pytest.raises(GeometryError):
        project(above, rig.top)


def test_project_batch_flags_bad_depth(rig):
    pts = np.array([[15.0, 15.0, 7.0], [15.0, 15.0, 100.0]])
    uv = project_batch(pts, rig.top)
    assert np.all(np.isfinite(uv[0]))
    assert np.all(np.isnan(uv[1]))


def test_back_project_returns_unit_ray(rig, tank, rng):
    for p in random_tank_points(rng, tank, 20):
        uv = project(p, rig.front)
        origin, direction = back_project(uv, rig.front)
        assert np.isclose(np.linalg.norm(direction), 1.0, atol=1e-12)
        # the original point lies on the ray
        t = np.dot(p - origin, direction)
        assert np.linalg.norm(origin + t * direction - p) < 1e-9


def test_triangulate_recovers_points(rig, tank, rng):
    for p in random_tank_points(rng, tank, 100):
        uv_t = project(p, rig.top)
        uv_f = project(p, rig.front)
        q, err = triangulate(uv_t, uv_f, rig.top, rig.front)
        assert np.linalg.norm(q - p) < 1e-8
        assert err < 1e-8


def test_triangulate_noise_raises_error(rig):
    p = np.array([12.0, 18.0, 6.0])
    uv_t = project(p, rig.top)
    uv_f = project(p, rig.front)
    _, clean = triangulate(uv_t, uv_f, rig.top, rig.front)
    _, noisy = triangulate(uv_t, (uv_f[0] + 3.0, uv_f[1]), rig.top, rig.front)
    assert noisy > clean
    assert noisy > 0.5


def test_triangulate_parallel_rays_rejected(rig):
    uv = (400.0, 400.0)
    with pytest.raises(GeometryError):
        triangulate(uv, uv, rig.top, rig.top)


def test_triangulate_batch_matches_scalar(rig, tank, rng):
    pts = random_tank_points(rng, tank, 50)
    uv_t = project_batch(pts, rig.top)
    uv_f = project_batch(pts, rig.front)
    out, errs = triangulate_batch(uv_t, uv_f, rig.top, rig.front)
    for k in range(len(pts)):
        q, e = triangulate(uv_t[k], uv_f[k], rig.top, rig.front)
        assert np.allclose(out[k], q, atol=1e-9)
        assert abs(errs[k] - e) < 1e-9


def test_triangulate_batch_degenerate_row(rig):
    uv = np.array([[400.0, 400.0]])
    out, errs = triangulate_batch(uv, uv, rig.top, rig.top)
    assert np.all(np.isnan(out[0]))
    assert np.isinf(errs[0])


def test_default_rig_covers_tank(rig, tank, rng):
    # every in-tank point lands on both sensors
    pts = random_tank_points(rng, tank, 500)
    for cam in (rig.top, rig.front):
        uv = project_batch(pts, cam)
        assert np.all(uv >= 0.0)
        assert np.all(uv <= 800.0)


def test_calibration_roundtrip(tmp_path, rig):
    path = tmp_path / "calibration.json"
    save_calibration(rig, path)
    loaded = load_calibration(path)
    for view in ("top", "front"):
        a, b = rig.camera(view), loaded.camera(view)
        assert np.allclose(a.rotation, b.rotation, atol=0)
        assert np.allclose(a.translation, b.translation, atol=0)
        assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
        assert a.image_size == b.image_size


def test_calibration_rejects_missing_view(tmp_path, rig):
    path = tmp_path / "calibration.json"
    save_calibration(rig, path)
    doc = json.loads(path.read_text())
    doc["cameras"] = doc["cameras"][:1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_calibration(path)
