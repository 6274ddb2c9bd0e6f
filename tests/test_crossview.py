import math
import statistics

import numpy as np
import pytest

from reference import graph_from_weights, project, tracklet, triangulate
from stereomot import (
    AssocParams,
    build_graph,
    edge_weight,
    extract_3d_tracklets,
    extract_paths,
    node_weight,
)
from stereomot.crossview import NodeCandidate


def wave_path(f):
    # smooth in-tank trajectory
    return np.array([15.0 + 8.0 * math.sin(f / 40.0),
                     15.0 + 8.0 * math.cos(f / 55.0),
                     7.0 + 3.0 * math.sin(f / 70.0)])


def projected_tracklet(rig, tid, view, frames, path=wave_path, decoys=()):
    cam = rig.camera(view)
    heads = [project(path(f), cam) for f in frames]
    cands = [[uv] + [(uv[0] + dx, uv[1] + dy) for dx, dy in decoys]
             for uv in heads]
    return tracklet(tid, view, frames, heads, cands=cands)


def test_node_weight_scores_only_shared_frames(rig, tank):
    # Interleaved frames: the top view has the even frames of 0-40 and the
    # front view every third frame of 0-60, so they share 0, 6, ..., 36.
    top = projected_tracklet(rig, 0, "top", range(0, 41, 2))
    front = projected_tracklet(rig, 1, "front", range(0, 61, 3))
    node = node_weight(top, front, rig, tank)
    assert sorted(node.points) == list(range(0, 37, 6))
    for f, p in node.points.items():
        assert np.linalg.norm(p - wave_path(f)) < 1e-8
    assert node.weight == pytest.approx(7 / (21 + 21 - 7), abs=1e-9)
    far = projected_tracklet(rig, 2, "front", range(41, 100, 2))
    assert node_weight(top, far, rig, tank) is None


def test_node_weight_partial_overlap(rig, tank):
    top = projected_tracklet(rig, 0, "top", range(0, 100))
    front = projected_tracklet(rig, 1, "front", range(50, 150))
    node = node_weight(top, front, rig, tank)
    assert node is not None
    # perfect projections: every overlap frame triangulates with ~zero error
    assert node.weight == pytest.approx(50.0 / 150.0, abs=1e-9)
    assert sorted(node.points) == list(range(50, 100))
    for f in sorted(node.points):
        assert np.linalg.norm(node.points[f] - wave_path(f)) < 1e-8


def test_node_weight_rejects_disjoint_and_outside(rig, tank):
    top = projected_tracklet(rig, 0, "top", range(0, 50))
    front = projected_tracklet(rig, 1, "front", range(60, 100))
    assert node_weight(top, front, rig, tank) is None

    outside = lambda f: np.array([34.0, 15.0, 7.0])  # past the x wall
    top = projected_tracklet(rig, 0, "top", range(0, 50), path=outside)
    front = projected_tracklet(rig, 1, "front", range(0, 50), path=outside)
    assert node_weight(top, front, rig, tank) is None


def test_node_weight_picks_best_candidate(rig, tank):
    # decoys shift u: the one direction the top view can cross-check
    top = projected_tracklet(rig, 0, "top", range(0, 40))
    front = projected_tracklet(rig, 1, "front", range(0, 40),
                               decoys=((40.0, 0.0), (-55.0, 10.0)))
    node = node_weight(top, front, rig, tank)
    assert node is not None
    assert sorted(node.points) == list(range(0, 40))
    for f in range(0, 40):
        assert np.linalg.norm(node.points[f] - wave_path(f)) < 1e-8


def test_node_weight_matches_direct_formula(rig, tank, rng):
    params = AssocParams()
    top = projected_tracklet(rig, 0, "top", range(0, 30),
                             decoys=((3.0, 1.0),))
    front = projected_tracklet(rig, 1, "front", range(10, 50),
                               decoys=((6.0, -4.0), (-9.0, 2.0)))
    node = node_weight(top, front, rig, tank, params)
    assert node is not None

    heads = dict(zip(top.frames.tolist(), top.detections.head.tolist()))
    cands = dict(zip(front.frames.tolist(), front.detections.cands.tolist()))
    weights = []
    for f in range(10, 30):
        uv_t = heads[f]
        best = None
        for cand in cands[f]:
            p, err = triangulate(uv_t, cand, rig.top, rig.front)
            if best is None or err < best[1]:
                best = (p, err)
        weights.append(math.exp(-params.lambda_err * best[1]))
    expect = statistics.median(weights) * len(weights) / len(set(range(0, 30)) | set(range(10, 50)))
    assert node.weight == pytest.approx(expect, rel=1e-12)


def make_node(top_id, front_id, frames, pts, weight):
    top = tracklet(top_id, "top", frames)
    front = tracklet(front_id, "front", frames)
    points = {f: np.asarray(p, dtype=float) for f, p in zip(frames, pts)}
    return NodeCandidate(top=top, front=front, points=points, weight=weight)


def test_edge_weight_hand_formula():
    params = AssocParams()
    src = make_node(0, 1, [5, 10], [(1.0, 2.0, 3.0), (2.0, 2.0, 3.0)], 0.4)
    dst = make_node(0, 2, [13, 20], [(5.0, 6.0, 3.0), (6.0, 6.0, 3.0)], 0.3)
    e = edge_weight(src, dst, params, fps=60.0)
    t_d = 13 - 10
    s = math.dist((2.0, 2.0, 3.0), (5.0, 6.0, 3.0)) / (t_d / 60.0)
    expect = math.exp(-params.lambda_s * s) * math.exp(-t_d / params.tau_p) * 0.7
    assert e == pytest.approx(expect, rel=1e-12)


def test_edge_weight_minimal_gap_clamp():
    params = AssocParams()
    src = make_node(0, 1, [10], [(1.0, 1.0, 1.0)], 0.5)
    dst = make_node(0, 2, [11], [(1.0, 1.0, 1.0)], 0.5)
    e = edge_weight(src, dst, params, fps=60.0)
    assert e == pytest.approx(math.exp(-1.0 / params.tau_p), rel=1e-12)


def split_front_scene(rig):
    """One continuous top tracklet, front tracklet split into two."""
    top = projected_tracklet(rig, 0, "top", range(0, 120))
    front_a = projected_tracklet(rig, 10, "front", range(0, 50))
    front_b = projected_tracklet(rig, 11, "front", range(60, 120))
    return top, front_a, front_b


def test_build_graph_split_scene(rig, tank):
    top, front_a, front_b = split_front_scene(rig)
    graph = build_graph([top], [front_a, front_b], rig, tank)
    assert set(graph.nodes) == {(0, 10), (0, 11)}
    assert list(graph.edges) == [((0, 10), (0, 11))]
    assert graph.edges[((0, 10), (0, 11))] > 0.0


def test_build_graph_alpha_filter(rig, tank):
    top, front_a, front_b = split_front_scene(rig)
    short = projected_tracklet(rig, 12, "front", range(50, 59))  # 9 < alpha
    graph = build_graph([top], [front_a, front_b, short], rig, tank)
    assert (0, 12) not in graph.nodes


def test_build_graph_blocks_overlapping_partners(rig, tank):
    top = projected_tracklet(rig, 0, "top", range(0, 120))
    front_a = projected_tracklet(rig, 10, "front", range(0, 60))
    front_b = projected_tracklet(rig, 11, "front", range(55, 120))
    graph = build_graph([top], [front_a, front_b], rig, tank)
    assert set(graph.nodes) == {(0, 10), (0, 11)}
    assert graph.edges == {}


def test_extract_paths_hand_example():
    graph = graph_from_weights(
        {0: 1.0, 1: 2.0, 2: 3.0}, {(0, 1): 1.0, (0, 2): 5.0})
    paths = extract_paths(graph)
    assert paths[0] == [0, 2]
    assert [1] in paths


def test_extract_paths_tie_breaks_smallest_ids():
    graph = graph_from_weights({0: 5.0, 1: 5.0}, {})
    assert extract_paths(graph)[0] == [0]
    graph = graph_from_weights(
        {0: 1.0, 1: 2.0, 2: 2.0, 3: 1.0}, {(0, 1): 1.0, (0, 2): 1.0,
                                           (1, 3): 1.0, (2, 3): 1.0})
    # both middle routes score the same; the lexicographically smaller wins
    assert extract_paths(graph)[0] == [0, 1, 3]


def test_edge_weight_that_underflows_is_followed(rig, tank):
    # The head jumps across the tank between frames 9 and 10: at 120 fps
    # the implied speed makes exp(-lambda_s * speed) underflow to 0.0.
    def jump(f):
        return np.array([1.0, 1.0, 1.0] if f < 10 else [29.0, 29.0, 14.0])

    top = projected_tracklet(rig, 0, "top", range(0, 20), path=jump)
    front_a = projected_tracklet(rig, 1, "front", range(0, 10), path=jump)
    front_b = projected_tracklet(rig, 2, "front", range(10, 20), path=jump)
    weights = {}
    for fps in (60.0, 120.0):
        graph = build_graph([top], [front_a, front_b], rig, tank, fps=fps)
        weights[fps] = graph.edges[((0, 1), (0, 2))]
        assert extract_paths(graph) == [[(0, 1), (0, 2)]]
        (tracklet,) = extract_3d_tracklets(graph)
        assert sorted(tracklet.points) == list(range(0, 20))
    assert 0.0 < weights[60.0] < 1e-200
    assert weights[120.0] == 0.0


def test_extract_3d_tracklets_bridges_front_split(rig, tank):
    top, front_a, front_b = split_front_scene(rig)
    graph = build_graph([top], [front_a, front_b], rig, tank)
    tracklets = extract_3d_tracklets(graph)
    assert len(tracklets) == 1
    t = tracklets[0]
    assert t.first_frame == 0
    assert t.last_frame == 119
    # frames covered by front gaps keep only their top source
    assert set(t.points) == set(range(0, 50)) | set(range(60, 120))
    for f in range(50, 60):
        assert t.sources[f] == (0, None)
    # each point names the pair it was triangulated from
    for f in range(60, 120):
        assert t.sources[f] == (0, front_b.id)
    for f in (0, 30, 80, 119):
        assert np.linalg.norm(t.points[f] - wave_path(f)) < 1e-6
        assert t.sources[f][0] == 0


def test_extraction_removes_sharing_nodes(rig, tank):
    top = projected_tracklet(rig, 0, "top", range(0, 60))
    front_true = projected_tracklet(rig, 10, "front", range(0, 60))
    # same span but offset pixels: triangulates worse, shares the top tracklet
    front_decoy = tracklet(11, "front", range(0, 60), [
        np.add(project(wave_path(f), rig.front), (6.0, 0.0))
        for f in range(0, 60)])
    graph = build_graph([top], [front_true, front_decoy], rig, tank)
    assert set(graph.nodes) == {(0, 10), (0, 11)}
    tracklets = extract_3d_tracklets(graph)
    assert len(tracklets) == 1
    assert all(src == (0, 10) for src in tracklets[0].sources.values())
