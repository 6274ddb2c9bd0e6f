"""Greedy stitching of 3D tracklets into per-fish tracks.

A concurrent set of long tracklets seeds one main track per fish; remaining
tracklets form a gallery that is drained greedily, nearest-in-time first.
Galleries overlapping no main are scored on endpoint distance and temporal
gap; galleries overlapping every main are scored on the cost of switching
between tracklets mid-track. Ambiguous assignments are discarded rather
than guessed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .crossview import Extent3D, Tracklet3D, overlap_frames
from .detect import runs

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StitchParams:
    beta: float = 0.02          # min cost margin between best two mains
    top_fraction: float = 0.2   # fraction of longest tracklets used as seeds
    overlap_scale: float = 0.2  # required pairwise overlap vs shorter extent

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 < self.top_fraction <= 1:
            raise ValueError("top_fraction must lie in (0, 1]")
        if not 0 < self.overlap_scale <= 1:
            raise ValueError("overlap_scale must lie in (0, 1]")


@dataclass(eq=False)
class Track3D(Extent3D):
    fish_id: int
    sources: list[int] = field(default_factory=list)  # 3D tracklet ids


def temporal_gap(a, b) -> int:
    """Frames separating two extents; 0 when they intersect."""
    return max(0, 1 - overlap_frames(a, b))


def select_initial(tracklets: list[Tracklet3D], n_fish: int,
                   params: StitchParams = StitchParams()
                   ) -> tuple[list[Track3D], set[int]] | None:
    """Pick n_fish concurrent tracklets to seed the main tracks.

    Seeds are the longest ~top_fraction tracklets; every combination that
    contains a seed and is pairwise-concurrent (overlap of at least
    max(1, overlap_scale * shorter extent) frames) is scored by its median
    pairwise overlap. Returns None if no valid combination exists.
    """
    if n_fish < 1:
        raise ValueError("n_fish must be >= 1")
    if len(tracklets) < n_fish:
        return None
    first = np.array([t.first_frame for t in tracklets])
    last = np.array([t.last_frame for t in tracklets])
    dur = last - first + 1
    ids = [t.id for t in tracklets]

    def concurrency(rows, cols):
        """Overlap in frames of every (row, col) pair, and whether it is
        enough for the pair to be concurrent."""
        overlap = (np.minimum.outer(last[rows], last[cols])
                   - np.maximum.outer(first[rows], first[cols]) + 1)
        need = np.maximum(1.0, params.overlap_scale
                          * np.minimum.outer(dur[rows], dur[cols]))
        return overlap, overlap >= need

    by_len = sorted(range(len(tracklets)), key=lambda i: (-dur[i], ids[i]))
    by_id = np.array(sorted(range(len(tracklets)), key=lambda i: ids[i]))
    seeds = by_len[:max(1, math.ceil(params.top_fraction * len(tracklets)))]
    combos: dict[frozenset, tuple] = {}
    for seed in seeds:
        # Member 0 is the seed, the rest are concurrent with it, by id. The
        # pair table covers these members only, so its size follows the
        # seed's pool, not the square of all tracklets.
        row_ok = concurrency([seed], by_id)[1][0]
        members = [seed] + [i for i in by_id[row_ok].tolist() if i != seed]
        overlap, ok = (a.tolist() for a in concurrency(members, members))
        for rest in combinations(range(1, len(members)), n_fish - 1):
            combo = (0,) + rest
            key = frozenset(ids[members[k]] for k in combo)
            if key in combos or not all(ok[a][b]
                                        for a, b in combinations(rest, 2)):
                continue
            combos[key] = ([members[k] for k in combo],
                           [overlap[a][b] for a, b in combinations(combo, 2)])

    best, best_key = None, None
    for combo, overlaps in combos.values():
        score = float(dur[combo[0]] if n_fish == 1 else np.median(overlaps))
        total = int(dur[combo].sum())
        key = (-score, -total, tuple(sorted(ids[i] for i in combo)))
        if best_key is None or key < best_key:
            best, best_key = [tracklets[i] for i in combo], key
    if best is None:
        return None
    ordered = sorted(best, key=lambda t: t.id)
    mains = [Track3D(fish_id=i + 1, frame=t.frame, point=t.point,
                     sources=[t.id]) for i, t in enumerate(ordered)]
    return mains, {t.id for t in ordered}


def gallery_rank(galleries: list[Tracklet3D],
                 mains: list[Track3D]) -> list[Tracklet3D]:
    """Galleries ordered by smallest temporal gap to any main; galleries
    overlapping every main go last (input order preserved within ties)."""
    def key(g):
        gaps = [temporal_gap(g, m) for m in mains]
        return max(gaps) == 0, min(gaps)  # no gap to any main: last

    return sorted(galleries, key=key)


def _switch_path(gallery, main) -> list[float] | None:
    """Cheapest frame-by-frame walk over both tracklets' 3D points that
    visits at least one node of each; returns the lengths of its edges
    that switch between the two.

    Nodes live at every frame either tracklet has a point; consecutive
    occupied frames are fully connected with L2 edge weights. None when no
    walk can touch both tracklets (single occupied frame, one node)."""
    if overlap_frames(gallery, main) < 1:
        return None
    # Both tracklets' rows by frame, the main's first within a frame.
    frame = np.r_[main.frame, gallery.frame]
    order = np.argsort(frame, kind="stable")
    side = np.repeat(["m", "g"], [len(main.frame), len(gallery.frame)])
    rows = list(zip(side[order].tolist(),
                    np.r_[main.point, gallery.point][order]))
    layers = [rows[a:b] for _, a, b in runs(frame[order])]

    # state: (node index, saw gallery, saw main) -> (cost, lengths of the
    # switch edges on the cheapest walk to it)
    states = {(i, src == "g", src == "m"): (0.0, [])
              for i, (src, _) in enumerate(layers[0])}
    for layer_prev, layer in zip(layers, layers[1:]):
        nxt = {}
        for (i, sg, sm), (cost, edges) in states.items():
            src_prev, prev = layer_prev[i]
            for j, (src, p) in enumerate(layer):
                step = float(np.linalg.norm(p - prev))
                c = cost + step
                key = (j, sg or src == "g", sm or src == "m")
                if key not in nxt or c < nxt[key][0]:
                    nxt[key] = (c, edges if src == src_prev else edges + [step])
        states = nxt

    finals = [(cost, edges) for (_, sg, sm), (cost, edges) in states.items()
              if sg and sm]
    if not finals:
        return None
    return min(finals, key=lambda item: item[0])[1]


def _endpoint_distance(gallery, main) -> float:
    """From the last point of the earlier extent to the later one's first."""
    early, late = ((main, gallery) if gallery.first_frame > main.last_frame
                   else (gallery, main))
    return float(np.linalg.norm(late.point[0] - early.point[-1]))


def _normalize(values: list[float]) -> list[float]:
    s = sum(values)
    if s == 0:
        return [1.0 / len(values)] * len(values)
    return [v / s for v in values]


def assignment_cost(gallery: Tracklet3D, mains: list[Track3D],
                    params: StitchParams = StitchParams()
                    ) -> list[float | None]:
    """Per-main assignment cost; None marks mains the gallery cannot join.

    With at least one temporally disjoint main, those mains compete on
    normalized endpoint distance and temporal gap. When the gallery
    overlaps every main, they compete on mean switch-edge cost, overlapped
    frame count, and overlap fraction of the gallery."""
    overlapping = [overlap_frames(gallery, m) >= 1 for m in mains]
    costs: list[float | None] = [None] * len(mains)
    if not all(overlapping):
        idx = [i for i, ov in enumerate(overlapping) if not ov]
        dists = [_endpoint_distance(gallery, mains[i]) for i in idx]
        gaps = [float(temporal_gap(gallery, mains[i])) for i in idx]
        measures = [_normalize(dists), _normalize(gaps)]
    else:
        walks = [_switch_path(gallery, m) for m in mains]
        idx = [i for i, edges in enumerate(walks) if edges is not None]
        if not idx:
            return costs
        switch = [sum(walks[i]) / len(walks[i]) if walks[i] else 0.0
                  for i in idx]
        inter = [float(overlap_frames(gallery, mains[i])) for i in idx]
        measures = [_normalize(switch), _normalize(inter),
                    _normalize([ov / gallery.duration for ov in inter])]
    for k, i in enumerate(idx):
        costs[i] = float(np.mean([m[k] for m in measures]))
    return costs


def associate(tracklets: list[Tracklet3D], n_fish: int,
              params: StitchParams = StitchParams()) -> list[Track3D]:
    """Stitch tracklets into n_fish tracks (or pass them through unstitched
    when no concurrent seed set exists)."""
    usable = sorted((t for t in tracklets if len(t.frame)), key=lambda t: t.id)
    selected = select_initial(usable, n_fish, params)
    if selected is None:
        # No concurrent seed set: emit the raw tracklets so nothing is lost.
        log.warning("no concurrent seed set for n_fish=%d; passing %d "
                    "tracklets through unstitched", n_fish, len(usable))
        return [Track3D(fish_id=i + 1, frame=t.frame, point=t.point,
                        sources=[t.id]) for i, t in enumerate(usable)]
    mains, used = selected
    galleries = [t for t in usable if t.id not in used]
    while galleries:
        gallery = gallery_rank(galleries, mains)[0]
        galleries.remove(gallery)
        costs = assignment_cost(gallery, mains, params)
        ranked = sorted((c, i) for i, c in enumerate(costs) if c is not None)
        if not ranked:
            continue
        if len(ranked) > 1 and ranked[1][0] - ranked[0][0] < params.beta:
            continue  # ambiguous: drop rather than risk an ID switch
        # The main keeps its own point at a frame both have: np.unique
        # keeps a frame's first row.
        main = mains[ranked[0][1]]
        main.frame, first = np.unique(np.r_[main.frame, gallery.frame],
                                      return_index=True)
        main.point = np.concatenate([main.point, gallery.point])[first]
        main.sources.append(gallery.id)
    return mains
