"""Deterministic synthetic stereo scenes with exact ground truth.

Fish follow a mean-reverting random walk in velocity (exact discretization,
so the step size is fps-independent), bounce off the tank walls, and carry a
tapered-sphere body used both for bounding boxes and for rasterized frames.
Everything downstream of a seed is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectionTable, runs
from .geometry import (VIEWS, CameraModel, StereoRig, TankBounds, default_rig,
                       project_batch)
from .metrics import GroundTruth, pair_overlap

# E|v| of an isotropic 3D Gaussian with per-axis sigma a is a*sqrt(8/pi);
# dividing the target mean speed by this yields the stationary sigma.
_MAXWELL_MEAN = math.sqrt(8.0 / math.pi)


@dataclass(frozen=True)
class SimConfig:
    n_fish: int = 2
    duration_s: float = 15.0
    fps: float = 60.0
    tank: TankBounds = field(default_factory=TankBounds)
    speed_mean: float = 2.13       # cm/s, stationary mean speed
    reversion_rate: float = 2.0    # 1/s, pull towards zero velocity
    body_length: float = 4.0       # cm, head to tail
    body_radius: float = 0.5       # cm, at the head
    taper: float = 0.5             # tail radius = (1 - taper) * body_radius
    n_spheres: int = 6
    seed: int = 0
    confine_axis_slabs: bool = False  # one x-slab per fish (occlusion-free scenes)
    slab_margin: float = 6.0          # cm shaved off each slab side

    def __post_init__(self):
        if self.n_fish < 1:
            raise ValueError("n_fish must be >= 1")
        if min(self.duration_s, self.fps, self.speed_mean,
               self.reversion_rate, self.body_length, self.body_radius) <= 0:
            raise ValueError("SimConfig values must be positive")
        if not 0 <= self.taper < 1:
            raise ValueError("taper must lie in [0, 1)")
        if self.n_spheres < 2:
            raise ValueError("n_spheres must be >= 2")
        n = self.duration_s * self.fps
        if abs(n - round(n)) > 1e-9:
            raise ValueError("duration_s * fps must be an integer frame count")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.fps))


@dataclass
class SyntheticSequence:
    config: SimConfig
    rig: StereoRig
    positions: np.ndarray  # (frames, fish, 3) head positions, cm
    headings: np.ndarray   # (frames, fish, 3) unit vectors


def _fish_bounds(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(lows, highs) of shape (n_fish, 3); slab confinement splits x."""
    lows = np.tile(cfg.tank.mins, (cfg.n_fish, 1)).astype(float)
    highs = np.tile(cfg.tank.maxs, (cfg.n_fish, 1)).astype(float)
    if cfg.confine_axis_slabs:
        width = (cfg.tank.x[1] - cfg.tank.x[0]) / cfg.n_fish
        for i in range(cfg.n_fish):
            lo = cfg.tank.x[0] + i * width + cfg.slab_margin
            hi = cfg.tank.x[0] + (i + 1) * width - cfg.slab_margin
            if lo >= hi:
                raise ValueError("slab margin leaves no room for fish "
                                 f"{i}: [{lo}, {hi}]")
            lows[i, 0], highs[i, 0] = lo, hi
    return lows, highs


def _reflect(pos: np.ndarray, vel: np.ndarray, lows: np.ndarray,
             highs: np.ndarray) -> None:
    """Mirror positions at the walls (in place), flipping velocity."""
    for _ in range(16):  # a step never crosses the tank more than a few times
        under = pos < lows
        over = pos > highs
        if not (under.any() or over.any()):
            return
        pos[under] = 2 * lows[under] - pos[under]
        pos[over] = 2 * highs[over] - pos[over]
        vel[under | over] *= -1.0
    raise RuntimeError("wall reflection failed to converge")


def simulate(cfg: SimConfig, rig: StereoRig | None = None) -> SyntheticSequence:
    """Simulate head trajectories; one (n_fish, 3) normal draw per frame."""
    if rig is None:
        rig = default_rig(tank=cfg.tank)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    lows, highs = _fish_bounds(cfg)
    a = cfg.speed_mean / _MAXWELL_MEAN  # per-axis velocity sigma
    dt = 1.0 / cfg.fps
    decay = math.exp(-cfg.reversion_rate * dt)
    noise_sd = a * math.sqrt(1.0 - decay * decay)

    pos = lows + rng.random((cfg.n_fish, 3)) * (highs - lows)
    vel = rng.normal(0.0, a, (cfg.n_fish, 3))

    positions = np.empty((cfg.n_frames, cfg.n_fish, 3))
    headings = np.empty((cfg.n_frames, cfg.n_fish, 3))
    heading = np.zeros((cfg.n_fish, 3))
    heading[:, 0] = 1.0
    for f in range(cfg.n_frames):
        if f > 0:
            vel = vel * decay + rng.normal(0.0, noise_sd, (cfg.n_fish, 3))
            pos = pos + vel * dt
            _reflect(pos, vel, lows, highs)
        speed = np.linalg.norm(vel, axis=1)
        moving = speed > 1e-9
        heading = heading.copy()
        heading[moving] = vel[moving] / speed[moving, None]
        positions[f] = pos
        headings[f] = heading
    return SyntheticSequence(config=cfg, rig=rig, positions=positions,
                             headings=headings)


def body_spheres(cfg: SimConfig, head: np.ndarray,
                 heading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centers (..., K, 3), radii (K,)) of the tapered-sphere body, head
    first, for heads and headings of shape (..., 3)."""
    k = np.arange(cfg.n_spheres)
    t = k / (cfg.n_spheres - 1)
    span = 0.85 * cfg.body_length
    centers = head[..., None, :] - heading[..., None, :] * (t[:, None] * span)
    radii = cfg.body_radius * (1.0 - cfg.taper * t)
    return centers, radii


def _sphere_pixels(cam: CameraModel, centers: np.ndarray,
                   radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected centers (..., K, 2) and pixel radii (..., K) under depth
    scaling, for centers of shape (..., K, 3)."""
    flat = centers.reshape(-1, 3)
    uv = project_batch(flat, cam)
    if np.isnan(uv).any():
        raise ValueError("body sphere behind camera")
    z = (flat @ cam.rotation.T[:, 2] + cam.translation[2]).reshape(
        centers.shape[:-1])
    return uv.reshape(centers.shape[:-1] + (2,)), cam.fx * radii / z


def annotate(seq: SyntheticSequence) -> GroundTruth:
    """Exact per-frame annotations: bboxes, head pixels, occlusion flags.

    A box spans the floored/ceiled pixel extent of the body spheres, clamped
    to the image; a fish is occluded when its box shares at least one pixel
    with another fish's box.
    """
    cfg = seq.config
    gt = GroundTruth(cfg.fps, cfg.n_frames, range(1, cfg.n_fish + 1))
    gt.points3d[:] = seq.positions
    centers, radii = body_spheres(cfg, seq.positions, seq.headings)
    for view in VIEWS:
        cam = seq.rig.camera(view)
        uv, rho = _sphere_pixels(cam, centers, radii)
        lo = np.maximum(np.floor(np.min(uv - rho[..., None], axis=-2)), 0.0)
        hi = np.minimum(np.ceil(np.max(uv + rho[..., None], axis=-2)),
                        np.subtract(cam.image_size, 1))
        gt.boxes[view][:] = np.concatenate([lo, hi - lo + 1], axis=-1)
        gt.heads[view][:] = project_batch(
            seq.positions.reshape(-1, 3), cam).reshape(gt.heads[view].shape)
        gt.occluded[view][:] = (pair_overlap(gt.boxes[view]) > 0).any(axis=-1)
    return gt


_BG_LEVEL = 235.0
_FISH_LEVEL = 45.0
_NOISE_SD = 2.0


def _paint_disk(img: np.ndarray, u: float, v: float, rho: float) -> None:
    h, w = img.shape
    x0 = max(0, math.floor(u - rho))
    x1 = min(w - 1, math.ceil(u + rho))
    y0 = max(0, math.floor(v - rho))
    y1 = min(h - 1, math.ceil(v + rho))
    if x0 > x1 or y0 > y1:
        return
    ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
    mask = (xs - u) ** 2 + (ys - v) ** 2 <= rho * rho
    img[y0:y1 + 1, x0:x1 + 1][mask] = _FISH_LEVEL


def render(seq: SyntheticSequence,
           frame: int) -> tuple[np.ndarray, np.ndarray]:
    """Rasterize one frame pair (top, front) as uint8 grayscale: a bright
    background plus sensor noise, with every body sphere painted dark."""
    cfg = seq.config
    rng = np.random.default_rng([cfg.seed, 9001, frame])
    out = []
    for view in VIEWS:
        cam = seq.rig.camera(view)
        img = _BG_LEVEL + rng.normal(0.0, _NOISE_SD, (cam.image_size[1],
                                                      cam.image_size[0]))
        for i in range(cfg.n_fish):
            centers, radii = body_spheres(cfg, seq.positions[frame, i],
                                          seq.headings[frame, i])
            uv, rho = _sphere_pixels(cam, centers, radii)
            for u, v, r in zip(uv[:, 0], uv[:, 1], rho):
                _paint_disk(img, u, v, r)
        out.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return out[0], out[1]


def perfect_detections(gt: GroundTruth) -> dict[str, DetectionTable]:
    """Head detections copied straight from the ground truth (both views),
    by frame and then fish."""
    out = {}
    for view in VIEWS:
        f, j = np.nonzero(~np.isnan(gt.heads[view][..., 0]))
        out[view] = DetectionTable.of(gt.heads[view][f, j], frame=f,
                                      bbox=gt.boxes[view][f, j],
                                      confidence=100.0)
    return out


@dataclass(frozen=True)
class DegradeModel:
    drop_rate: float = 0.0   # probability a true detection vanishes
    jitter_px: float = 0.0   # isotropic normal noise on surviving heads
    ghost_rate: float = 0.0  # Poisson mean of spurious detections per frame

    def __post_init__(self):
        if not 0 <= self.drop_rate < 1:
            raise ValueError("drop_rate must lie in [0, 1)")
        if self.jitter_px < 0 or self.ghost_rate < 0:
            raise ValueError("jitter_px and ghost_rate must be >= 0")


def degrade(detections: dict[str, DetectionTable], model: DegradeModel,
            seed: int, image_size: tuple[int, int] = (800, 800)
            ) -> dict[str, DetectionTable]:
    """Apply dropout, jitter, and ghost detections, in that order.

    One generator drives everything, drawing in (view, frame, detection)
    order, so a given seed and model yield identical corruption. Each
    frame that holds a row of the input draws its ghosts, whether or not
    a row of it survives, and they follow that frame's kept rows.
    """
    rng = np.random.default_rng([seed, 31337])
    out = {}
    for view in VIEWS:
        table = detections.get(view, DetectionTable.of(()))
        rows, ghosts, shifts = [], [], []  # ghost: ~(its frame's first row)
        for _, a, b in runs(table.frame):
            for i in range(a, b):
                if rng.random() < model.drop_rate:
                    continue
                rows.append(i)
                if model.jitter_px > 0:
                    shifts.append(rng.normal(0.0, model.jitter_px, 2))
            for _ in range(rng.poisson(model.ghost_rate)):
                rows.append(~a)
                ghosts.append((float(rng.random() * image_size[0]),
                               float(rng.random() * image_size[1])))
        rows = np.array(rows, dtype=np.intp)
        ghost = rows < 0
        out[view] = new = table[np.where(ghost, ~rows, rows)]  # a copy
        new.head[ghost] = np.reshape(ghosts, (-1, 2))
        if shifts:
            new.head[~ghost] += shifts
        alone = ghost | (model.jitter_px > 0)  # rows whose head is moved
        new.cands[alone] = DetectionTable.of(new.head[alone]).cands
        new.cov[ghost] = new.bbox[ghost] = np.nan
        new.confidence[ghost] = 100.0
    return out
