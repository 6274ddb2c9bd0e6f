"""Cross-view association of 2D tracklets into 3D tracklets.

Every (top, front) tracklet pair with enough support becomes a node whose
weight measures stereo consistency over the frames both cover. Nodes that
share exactly one view's tracklet are linked by directed edges scored on
temporal proximity and implied swim speed; maximal-score paths through the
resulting DAG are extracted greedily and merged into 3D tracklets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import StereoRig, TankBounds, in_tank, triangulate_batch
from .track2d import Tracklet2D


@dataclass(frozen=True)
class AssocParams:
    alpha: int = 10                  # min detections per 2D tracklet
    tau_p: float = 25.0              # frames; temporal edge decay
    lambda_err: float = 1.0 / 8.03   # 1/px; reprojection-error decay
    lambda_s: float = 1.0 / 4.45     # s/cm; speed decay

    def __post_init__(self):
        if min(self.alpha, self.tau_p, self.lambda_err, self.lambda_s) <= 0:
            raise ValueError("AssocParams values must be positive")


def frame_intersection(top: Tracklet2D, front: Tracklet2D) -> list[int]:
    return sorted(top.detections.keys() & front.detections)


@dataclass
class NodeCandidate:
    """Stereo evidence for one (top, front) tracklet pairing."""

    top: Tracklet2D
    front: Tracklet2D
    points: dict[int, np.ndarray]  # in-tank frame -> midpoint 3D estimate
    weight: float                  # W

    @property
    def node_id(self) -> tuple[int, int]:
        return (self.top.id, self.front.id)

    # Read for every pair of nodes; `points` is fixed once the node is built.
    @functools.cached_property
    def first_valid(self) -> int:
        return min(self.points)

    @functools.cached_property
    def last_valid(self) -> int:
        return max(self.points)


def node_weight(top: Tracklet2D, front: Tracklet2D, rig: StereoRig,
                tank: TankBounds,
                params: AssocParams = AssocParams()) -> NodeCandidate | None:
    """Score a pairing, or None when no overlap frame triangulates in-tank.

    Per overlap frame the top head is triangulated against every front head
    candidate and the lowest-reprojection-error candidate wins (first wins
    ties). W = median(V) * |V| / |F_top U F_front| over in-tank frames.
    """
    common = frame_intersection(top, front)
    if not common:
        return None
    tops, fronts, counts = [], [], []
    for f in common:
        cands = front.detections[f].candidates
        tops.extend([top.detections[f].head] * len(cands))
        fronts.extend(cands)
        counts.append(len(cands))
    pts, errs = triangulate_batch(np.asarray(tops, dtype=float),
                                  np.asarray(fronts, dtype=float),
                                  rig.top, rig.front)

    # Each frame's candidates form one contiguous slice of the rows. Pad
    # the slices with inf to one row per frame; argmin keeps the first of
    # equal errors.
    counts = np.array(counts)
    slots = np.arange(counts.max()) < counts[:, None]
    padded = np.full(slots.shape, np.inf)
    padded[slots] = errs
    best = np.cumsum(counts) - counts + padded.argmin(axis=1)
    inside = np.isfinite(errs[best]) & in_tank(pts[best], tank)
    if not inside.any():
        return None
    best = best[inside]
    points = dict(zip(np.array(common)[inside].tolist(), pts[best]))
    weights = [math.exp(-params.lambda_err * e) for e in errs[best].tolist()]
    union = len(top.detections.keys() | front.detections)
    w = float(np.median(weights)) * len(weights) / union
    return NodeCandidate(top=top, front=front, points=points, weight=w)


def edge_weight(src: NodeCandidate, dst: NodeCandidate,
                params: AssocParams = AssocParams(),
                fps: float = 60.0) -> float:
    """exp(-lambda_s * speed) * exp(-gap / tau_p) * (W_src + W_dst)."""
    t_d = max(1, dst.first_valid - src.last_valid)
    dist = float(np.linalg.norm(dst.points[dst.first_valid]
                                - src.points[src.last_valid]))
    speed = dist / (t_d / fps)
    return (math.exp(-params.lambda_s * speed)
            * math.exp(-t_d / params.tau_p)
            * (src.weight + dst.weight))


@dataclass
class AssociationGraph:
    """Weighted DAG over pairing candidates, as `build_graph` makes it:
    every edge runs strictly forward in time."""

    nodes: dict = field(default_factory=dict)     # node_id -> NodeCandidate
    edges: dict = field(default_factory=dict)     # (src_id, dst_id) -> weight


def build_graph(top_tracklets: list[Tracklet2D],
                front_tracklets: list[Tracklet2D],
                rig: StereoRig, tank: TankBounds,
                params: AssocParams = AssocParams(),
                fps: float = 60.0) -> AssociationGraph:
    tops = [t for t in top_tracklets if len(t.detections) >= params.alpha]
    fronts = [t for t in front_tracklets if len(t.detections) >= params.alpha]

    cands: list[NodeCandidate] = []
    for top in tops:
        for front in fronts:
            cand = node_weight(top, front, rig, tank, params)
            if cand is not None:
                cands.append(cand)
    cands.sort(key=lambda c: c.node_id)

    edges = {}
    for src in cands:
        for dst in cands:
            if src is dst:
                continue
            share_top = src.top.id == dst.top.id
            share_front = src.front.id == dst.front.id
            if share_top == share_front:  # need exactly one shared view
                continue
            if share_top and overlap_frames(src.front, dst.front) >= 1:
                continue
            if share_front and overlap_frames(src.top, dst.top) >= 1:
                continue
            if src.last_valid < dst.first_valid:
                edges[(src.node_id, dst.node_id)] = edge_weight(
                    src, dst, params, fps)
    return AssociationGraph(nodes={c.node_id: c for c in cands},
                            edges=edges)


def extract_paths(graph: AssociationGraph) -> list[list]:
    """Repeatedly peel off the maximal-score path (lexicographically
    smallest node-id sequence on ties), removing its nodes and every node
    that shares a 2D tracklet with it."""
    succ = {nid: [] for nid in graph.nodes}  # ascending successor ids
    indeg = dict.fromkeys(graph.nodes, 0)
    for a, b in sorted(graph.edges):
        succ[a].append(b)
        indeg[b] += 1
    # One topological order (Kahn's) of the whole graph; it stays one of
    # every subgraph, so each pass below walks it and skips dead nodes.
    order = [nid for nid, d in indeg.items() if d == 0]
    for nid in order:  # grows while it is walked
        for b in succ[nid]:
            indeg[b] -= 1
            if indeg[b] == 0:
                order.append(b)

    alive = set(graph.nodes)
    paths = []
    while alive:
        g: dict = {}
        choice: dict = {}
        for nid in reversed(order):
            if nid not in alive:
                continue
            best, best_succ = 0.0, None
            for b in succ[nid]:  # ascending: ties keep the smaller
                if b in alive:
                    cand = graph.edges[(nid, b)] + g[b]
                    if cand > best:
                        best, best_succ = cand, b
            g[nid] = graph.nodes[nid].weight + best
            choice[nid] = best_succ

        start = min(alive, key=lambda n: (-g[n], n))
        path = [start]
        while choice[path[-1]] is not None:
            path.append(choice[path[-1]])
        paths.append(path)

        used_tops = {graph.nodes[nid].top.id for nid in path}
        used_fronts = {graph.nodes[nid].front.id for nid in path}
        alive = {nid for nid in alive
                 if graph.nodes[nid].top.id not in used_tops
                 and graph.nodes[nid].front.id not in used_fronts}
    return paths


class Extent3D:
    """The frame extent of the 3D points in `points`, a frame -> point
    dict: of a 3D tracklet and of a stitched track alike."""

    @property
    def first_frame(self) -> int:
        return min(self.points)

    @property
    def last_frame(self) -> int:
        return max(self.points)

    @property
    def duration(self) -> int:
        return self.last_frame - self.first_frame + 1


def overlap_frames(a, b) -> int:
    """Frames two extents share, 1 - the gap between them when they share
    none: of 2D and 3D tracklets and tracks alike, by `first_frame` and
    `last_frame`. Sharing even a single frame counts as overlap."""
    return (min(a.last_frame, b.last_frame)
            - max(a.first_frame, b.first_frame) + 1)


@dataclass
class Tracklet3D(Extent3D):
    """3D tracklet: per-frame in-tank points plus the 2D tracklet ids behind
    every frame, including frames only one view covers."""

    id: int
    points: dict[int, np.ndarray] = field(default_factory=dict)
    sources: dict[int, tuple] = field(default_factory=dict)  # frame -> (top, front) ids

    @property
    def frames(self) -> list[int]:
        return sorted(set(self.sources) | set(self.points))


def extract_3d_tracklets(graph: AssociationGraph) -> list[Tracklet3D]:
    out = []
    for tid, path in enumerate(extract_paths(graph)):
        tracklet = Tracklet3D(id=tid)
        for nid in path:
            node = graph.nodes[nid]
            for f in sorted(node.top.detections.keys() | node.front.detections):
                if f in node.points and f not in tracklet.points:
                    tracklet.points[f] = node.points[f]
                    tracklet.sources[f] = node.node_id
                elif f not in tracklet.sources:
                    tracklet.sources[f] = (
                        node.top.id if f in node.top.detections else None,
                        node.front.id if f in node.front.detections else None)
        out.append(tracklet)
    return out
