"""Pinhole stereo geometry: projection, two-view triangulation, tank bounds.

World coordinates are in centimeters with the origin at a tank corner;
image coordinates are in pixels. The camera model is an ideal pinhole
(no lens distortion, no refraction correction), which is shared by the
simulator and the pipeline so the two stay consistent. Real-data use
requires a calibration adapter producing the same JSON format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9
# Closest-approach system is declared singular below this determinant
# (directions are unit vectors, so this is sin^2 of the ray angle).
PARALLEL_TOL = 1e-12

# The two camera views, in the order every file and loop uses them.
VIEWS = ("top", "front")


@dataclass(frozen=True)
class TankBounds:
    """Axis-aligned water volume; bounds are closed (boundary is inside)."""

    x: tuple[float, float] = (0.0, 30.0)
    y: tuple[float, float] = (0.0, 30.0)
    z: tuple[float, float] = (0.0, 15.0)

    def __post_init__(self):
        for axis in (self.x, self.y, self.z):
            if not axis[0] < axis[1]:
                raise ValueError(f"tank bounds need min < max per axis, got {axis}")

    @property
    def mins(self) -> np.ndarray:
        return np.array([self.x[0], self.y[0], self.z[0]])

    @property
    def maxs(self) -> np.ndarray:
        return np.array([self.x[1], self.y[1], self.z[1]])


def in_tank(p, tank: TankBounds):
    """Whether each (..., 3) point lies inside the closed tank box, as
    numpy bools. NaN is outside."""
    p = np.asarray(p, dtype=float)
    return np.all((p >= tank.mins) & (p <= tank.maxs), axis=-1)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: x_cam = R @ p_world + t, u = fx*x/z + cx, v = fy*y/z + cy."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    view_id: str
    image_size: tuple[int, int]  # (width, height) px

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")
        if np.abs(R.T @ R - np.eye(3)).max() > ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation


def project_batch(points: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Project an (N,3) array of world points; returns (N,2) pixels.

    Behind-camera points yield NaN rows instead of raising.
    """
    points = np.asarray(points, dtype=float)
    xc = points @ cam.rotation.T + cam.translation
    z = xc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * xc[:, 0] / z + cam.cx
        v = cam.fy * xc[:, 1] / z + cam.cy
    out = np.stack([u, v], axis=1)
    out[z <= 0] = np.nan
    return out


def triangulate_batch(pts_top: np.ndarray, pts_front: np.ndarray,
                      cam_top: CameraModel, cam_front: CameraModel):
    """Vectorized triangulation of (N,2) pixel arrays.

    Returns (points (N,3), errors (N,)). Degenerate rows (parallel rays
    or behind-camera reprojection) get NaN points and inf errors rather
    than raising, so callers can mask them.
    """
    pts_top = np.asarray(pts_top, dtype=float).reshape(-1, 2)
    pts_front = np.asarray(pts_front, dtype=float).reshape(-1, 2)

    def rays(pts, cam):
        d_cam = np.stack([(pts[:, 0] - cam.cx) / cam.fx,
                          (pts[:, 1] - cam.cy) / cam.fy,
                          np.ones(len(pts))], axis=1)
        d = d_cam @ cam.rotation
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d

    d1 = rays(pts_top, cam_top)
    d2 = rays(pts_front, cam_front)
    o1 = cam_top.center
    o2 = cam_front.center
    b = np.sum(d1 * d2, axis=1)
    denom = 1.0 - b * b
    bad = denom < PARALLEL_TOL
    denom_safe = np.where(bad, 1.0, denom)
    w0 = o1 - o2
    d = d1 @ w0
    e = d2 @ w0
    s = (b * e - d) / denom_safe
    t = (e - b * d) / denom_safe
    points = 0.5 * ((o1 + s[:, None] * d1) + (o2 + t[:, None] * d2))

    errs = np.full(len(points), np.inf)
    r1 = project_batch(points, cam_top)
    r2 = project_batch(points, cam_front)
    ok = ~bad & ~np.isnan(r1[:, 0]) & ~np.isnan(r2[:, 0])
    e1 = np.linalg.norm(r1[ok] - pts_top[ok], axis=1)
    e2 = np.linalg.norm(r2[ok] - pts_front[ok], axis=1)
    errs[ok] = 0.5 * (e1 + e2)
    points[~ok] = np.nan
    return points, errs


@dataclass(frozen=True)
class StereoRig:
    top: CameraModel
    front: CameraModel

    def camera(self, view: str) -> CameraModel:
        if view not in VIEWS:
            raise ValueError(f"unknown view {view!r}")
        return getattr(self, view)


def default_rig(image_size: tuple[int, int] = (800, 800),
                focal: float = 1000.0,
                tank: TankBounds = TankBounds()) -> StereoRig:
    """Two-camera rig: top camera looking straight down, front camera
    looking along +y, both centered on the tank."""
    cx_t = (tank.x[0] + tank.x[1]) / 2.0
    cy_t = (tank.y[0] + tank.y[1]) / 2.0
    cz_t = (tank.z[0] + tank.z[1]) / 2.0
    cx = image_size[0] / 2.0
    cy = image_size[1] / 2.0

    # Top: at (mid_x, mid_y, z_max + 45) looking along -z.
    R_top = np.array([[1.0, 0.0, 0.0],
                      [0.0, -1.0, 0.0],
                      [0.0, 0.0, -1.0]])
    c_top = np.array([cx_t, cy_t, tank.z[1] + 45.0])
    top = CameraModel(fx=focal, fy=focal, cx=cx, cy=cy,
                      rotation=R_top, translation=-R_top @ c_top,
                      view_id="top", image_size=image_size)

    # Front: at (mid_x, y_min - 60, mid_z) looking along +y.
    R_front = np.array([[1.0, 0.0, 0.0],
                        [0.0, 0.0, -1.0],
                        [0.0, 1.0, 0.0]])
    c_front = np.array([cx_t, tank.y[0] - 60.0, cz_t])
    front = CameraModel(fx=focal, fy=focal, cx=cx, cy=cy,
                        rotation=R_front, translation=-R_front @ c_front,
                        view_id="front", image_size=image_size)
    return StereoRig(top=top, front=front)


# The numeric fields of a camera in the calibration JSON, in file order,
# and the shape of each; a scalar's is ().
_CAMERA_SHAPES = {"fx": (), "fy": (), "cx": (), "cy": (), "rotation": (3, 3),
                  "translation": (3,), "image_size": (2,)}


def _camera_to_dict(cam: CameraModel) -> dict:
    return {"view_id": cam.view_id,
            **{key: np.asarray(getattr(cam, key)).tolist()
               for key in _CAMERA_SHAPES}}


def _camera_from_dict(d: dict) -> CameraModel:
    missing = ({"view_id"} | set(_CAMERA_SHAPES)) - set(d)
    if missing:
        raise ValueError(f"calibration camera entry missing fields: {sorted(missing)}")
    values = {}
    for key, shape in _CAMERA_SHAPES.items():
        try:
            values[key] = np.array(d[key], dtype=float)
            ok = values[key].shape == shape and np.isfinite(values[key]).all()
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"calibration camera {d['view_id']!r}: field "
                             f"{key!r} must be finite, of shape {shape}, "
                             f"got {d[key]!r}")
    return CameraModel(
        fx=float(values["fx"]), fy=float(values["fy"]),
        cx=float(values["cx"]), cy=float(values["cy"]),
        rotation=values["rotation"], translation=values["translation"],
        view_id=str(d["view_id"]),
        image_size=tuple(int(v) for v in values["image_size"]),
    )


def save_calibration(rig: StereoRig, path) -> None:
    payload = {"cameras": [_camera_to_dict(rig.camera(v)) for v in VIEWS]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_calibration(path) -> StereoRig:
    """Load and validate the two-camera calibration JSON; every fault in
    it is an error that starts with the file's path."""
    from .formats import read_text  # formats imports this module

    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{e.lineno}: {e.msg} (column {e.colno})"
                         ) from None
    cameras = payload.get("cameras") if isinstance(payload, dict) else None
    if not (isinstance(cameras, list)
            and all(isinstance(c, dict) for c in cameras)):
        raise ValueError(f"{path}: calibration must be an object with a "
                         f"'cameras' list of objects")
    try:
        cams = {cam.view_id: cam for cam in map(_camera_from_dict, cameras)}
        if set(cams) != set(VIEWS):
            raise ValueError(
                f"calibration must define exactly a 'top' and a 'front' "
                f"camera, got {sorted(cams)}")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return StereoRig(**cams)
