"""Independent reference code that the tests compare the library against.

The scalar geometry below does one point or one pixel pair at a time, in
the plain textbook form. The library only has the batched forms
(`project_batch`, `triangulate_batch`); the gates check them against
these. `graph_from_weights` builds an association graph from bare
weights, for tests of path extraction on hand-made or random DAGs.
`skeletonize` and `kernel_response` are the whole-image forms of the
detector's thinning and keypoint response: every pass of the thinning
sums the neighbours of every pixel, and the response is a 5x5
convolution.
"""

import math

import numpy as np
from scipy import ndimage

from stereomot import AssociationGraph, NodeCandidate, Tracklet2D
from stereomot.geometry import PARALLEL_TOL, CameraModel


class GeometryError(ValueError):
    """A degenerate geometric input: behind the camera, or parallel rays."""


def project(p, cam: CameraModel) -> tuple[float, float]:
    """Project a 3D world point to pixel coordinates.

    Raises GeometryError if the point is on or behind the camera plane.
    """
    p = np.asarray(p, dtype=float)
    xc = cam.rotation @ p + cam.translation
    if xc[2] <= 0:
        raise GeometryError(f"point {tuple(p)} is behind camera {cam.view_id}")
    u = cam.fx * xc[0] / xc[2] + cam.cx
    v = cam.fy * xc[1] / xc[2] + cam.cy
    return (float(u), float(v))


def back_project(pixel, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Return (origin, unit direction) of the world-space ray through a pixel."""
    u, v = float(pixel[0]), float(pixel[1])
    d_cam = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    d = cam.rotation.T @ d_cam
    d /= np.linalg.norm(d)
    return cam.center, d


def triangulate(p_top, p_front, cam_top: CameraModel, cam_front: CameraModel):
    """Midpoint-of-closest-approach triangulation of one pixel pair.

    Returns (point3d ndarray, reprojection error px). The reprojection
    error is the mean L2 pixel distance between the inputs and the
    re-projected 3D point in both views.
    """
    o1, d1 = back_project(p_top, cam_top)
    o2, d2 = back_project(p_front, cam_front)
    b = float(d1 @ d2)
    denom = 1.0 - b * b  # a = c = 1 for unit directions
    if denom < PARALLEL_TOL:
        raise GeometryError("rays are parallel or nearly parallel")
    w0 = o1 - o2
    d = float(d1 @ w0)
    e = float(d2 @ w0)
    s = (b * e - d) / denom
    t = (e - b * d) / denom
    point = 0.5 * ((o1 + s * d1) + (o2 + t * d2))
    r_top = project(point, cam_top)
    r_front = project(point, cam_front)
    err = 0.5 * (math.hypot(r_top[0] - p_top[0], r_top[1] - p_top[1])
                 + math.hypot(r_front[0] - p_front[0], r_front[1] - p_front[1]))
    return point, float(err)


def graph_from_weights(node_weights: dict,
                       edge_weights: dict) -> AssociationGraph:
    """A graph whose node `nid` has weight `node_weights[nid]` and 2D
    tracklets of its own, so removing a path removes only its nodes.
    `edge_weights` maps (src, dst) to a weight; it must form a DAG."""
    nodes = {nid: NodeCandidate(top=Tracklet2D(id=nid, view="top"),
                                front=Tracklet2D(id=nid, view="front"),
                                points={}, weight=float(w))
             for nid, w in node_weights.items()}
    return AssociationGraph(nodes=nodes, edges=dict(edge_weights))


def skeletonize(binary: np.ndarray) -> np.ndarray:
    """Zhang-Suen two-subiteration thinning to convergence (0/255 output)."""
    img = np.asarray(binary) > 0
    img = np.pad(img, 1, constant_values=False)
    # Removal masks for the two subiterations; see Zhang & Suen (1984).
    while True:
        changed = False
        for step in (0, 1):
            c = img[1:-1, 1:-1]
            p2 = img[:-2, 1:-1]
            p3 = img[:-2, 2:]
            p4 = img[1:-1, 2:]
            p5 = img[2:, 2:]
            p6 = img[2:, 1:-1]
            p7 = img[2:, :-2]
            p8 = img[1:-1, :-2]
            p9 = img[:-2, :-2]
            ring = [p2, p3, p4, p5, p6, p7, p8, p9]
            bsum = sum(p.astype(np.int8) for p in ring)
            a = sum((~ring[i] & ring[(i + 1) % 8]).astype(np.int8)
                    for i in range(8))
            if step == 0:
                extra = ~(p2 & p4 & p6) & ~(p4 & p6 & p8)
            else:
                extra = ~(p2 & p4 & p8) & ~(p2 & p6 & p8)
            remove = c & (a == 1) & (bsum >= 2) & (bsum <= 6) & extra
            if remove.any():
                img[1:-1, 1:-1] &= ~remove
                changed = True
        if not changed:
            break
    return img[1:-1, 1:-1].astype(np.uint8) * 255


KEYPOINT_KERNEL = np.array([
    [1, 1, 1, 1, 1],
    [1, 15, 15, 15, 1],
    [1, 15, 100, 15, 1],
    [1, 15, 15, 15, 1],
    [1, 1, 1, 1, 1],
], dtype=np.int64)


def kernel_response(skel: np.ndarray) -> np.ndarray:
    """5x5 kernel response of the 0/1 skeleton at every pixel."""
    skel01 = (np.asarray(skel) > 0).astype(np.int64)
    return ndimage.convolve(skel01, KEYPOINT_KERNEL, mode="constant", cval=0)
