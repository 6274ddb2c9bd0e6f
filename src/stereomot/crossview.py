"""Cross-view association of 2D tracklets into 3D tracklets.

Every (top, front) tracklet pair with enough support becomes a node whose
weight measures stereo consistency over the frames both cover. Nodes that
share exactly one view's tracklet are linked by directed edges scored on
temporal proximity and implied swim speed; maximal-score paths through the
resulting DAG are extracted greedily and merged into 3D tracklets.
"""

from __future__ import annotations

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


@dataclass(kw_only=True, eq=False)
class Extent3D:
    """3D points in one layout, of a node, a 3D tracklet and a stitched
    track alike: a row per frame that has a point, `frame` (n,) int64
    strictly ascending and `point` (n, 3) float64. Equal only to itself."""

    frame: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    point: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    @property
    def first_frame(self) -> int:
        return int(self.frame[0])

    @property
    def last_frame(self) -> int:
        return int(self.frame[-1])

    @property
    def duration(self) -> int:
        return self.last_frame - self.first_frame + 1


def overlap_frames(a, b) -> int:
    """Frames two extents share, 1 - the gap between them when they share
    none: of 2D and 3D tracklets and tracks alike, by `first_frame` and
    `last_frame`. Sharing even a single frame counts as overlap."""
    return (min(a.last_frame, b.last_frame)
            - max(a.first_frame, b.first_frame) + 1)


@dataclass(eq=False)
class NodeCandidate(Extent3D):
    """Stereo evidence for one (top, front) tracklet pairing."""

    top: Tracklet2D
    front: Tracklet2D
    weight: float  # W

    @property
    def node_id(self) -> tuple[int, int]:
        return (self.top.id, self.front.id)


def node_weight(top: Tracklet2D, front: Tracklet2D, rig: StereoRig,
                tank: TankBounds,
                params: AssocParams = AssocParams()) -> NodeCandidate | None:
    """Score a pairing, or None when no overlap frame triangulates in-tank.

    Per overlap frame the top head is triangulated against every front head
    candidate and the lowest-reprojection-error candidate wins (first wins
    ties). W = median(V) * |V| / |F_top U F_front| over in-tank frames.
    """
    common, at_top, at_front = np.intersect1d(
        top.frames, front.frames, assume_unique=True, return_indices=True)
    if not len(common):
        return None
    # Each shared frame's top head against its front candidates, present
    # ones first in a row: one slice of rows per frame. The errors, padded
    # with inf to a row per frame, give argmin the first of equal errors.
    cands = front.detections.cands[at_front]
    present = ~np.isnan(cands[..., 0])
    counts = present.sum(axis=1)
    pts, errs = triangulate_batch(
        np.repeat(top.detections.head[at_top], counts, axis=0),
        cands[present], rig.top, rig.front)
    padded = np.full(present.shape, np.inf)
    padded[present] = errs
    best = np.cumsum(counts) - counts + padded.argmin(axis=1)
    inside = np.isfinite(errs[best]) & in_tank(pts[best], tank)
    if not inside.any():
        return None
    best = best[inside]
    weights = [math.exp(-params.lambda_err * e) for e in errs[best].tolist()]
    union = len(top.frames) + len(front.frames) - len(common)
    w = float(np.median(weights)) * len(weights) / union
    return NodeCandidate(top=top, front=front, frame=common[inside],
                         point=pts[best], weight=w)


def edge_weight(src: NodeCandidate, dst: NodeCandidate,
                params: AssocParams = AssocParams(),
                fps: float = 60.0) -> float:
    """exp(-lambda_s * speed) * exp(-gap / tau_p) * (W_src + W_dst)."""
    t_d = max(1, dst.first_frame - src.last_frame)
    dist = float(np.linalg.norm(dst.point[0] - src.point[-1]))
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
            # Exactly one shared view, whose other tracklets do not overlap.
            share_top = src.top.id == dst.top.id
            if share_top == (src.front.id == dst.front.id):
                continue
            other = (src.front, dst.front) if share_top else (src.top, dst.top)
            if overlap_frames(*other) < 1 and src.last_frame < dst.first_frame:
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


@dataclass(eq=False)
class Tracklet3D(Extent3D):
    """3D tracklet: its in-tank points, and a `sources` row (frame, top id,
    front id) for every frame either view covers, an id masked where its
    view has no tracklet at that frame."""

    id: int
    sources: np.ma.MaskedArray = field(
        default_factory=lambda: np.ma.empty((0, 3), np.int64))


def _sources(node: NodeCandidate, frames: np.ndarray) -> np.ma.MaskedArray:
    """The node's (frame, top id, front id) rows at `frames`, an id masked
    at a frame its 2D tracklet has no row at."""
    covered = [np.isin(frames, t.frames) for t in (node.top, node.front)]
    return np.ma.column_stack([frames, np.ma.array(
        np.broadcast_to(node.node_id, (len(frames), 2)),
        mask=~np.column_stack(covered))])


def extract_3d_tracklets(graph: AssociationGraph) -> list[Tracklet3D]:
    """A 3D tracklet per path. A frame's point and sources come from the
    first node on the path with a point there; a frame without a point
    takes its sources from the first node that covers it: np.unique keeps
    each frame's first row, and the point rows go first."""
    out = []
    for tid, path in enumerate(extract_paths(graph)):
        nodes = [graph.nodes[nid] for nid in path]
        frame, first = np.unique(np.concatenate([n.frame for n in nodes]),
                                 return_index=True)
        rows = np.ma.concatenate(
            [_sources(n, n.frame) for n in nodes]
            + [_sources(n, np.union1d(n.top.frames, n.front.frames))
               for n in nodes])
        out.append(Tracklet3D(
            id=tid, frame=frame,
            point=np.concatenate([n.point for n in nodes])[first],
            sources=rows[np.unique(rows[:, 0].data, return_index=True)[1]]))
    return out
