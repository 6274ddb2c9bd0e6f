"""Release gates for the tracking stack.

Each test pins one externally visible guarantee: frozen reference
statistics, exhaustive oracles for the optimizers, numeric tolerances for
the geometry and weighting layers, and end-to-end runs on the synthetic
rig. Every test also asserts its own wall-clock budget, so
`pytest -v tests/test_acceptance.py` prints one pass/fail line per gate.
"""

import copy
import itertools
import json
import math
import statistics
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from reference import graph_from_weights, project, tracklet, triangulate
from stereomot import (
    AssocParams,
    DegradeModel,
    GroundTruth,
    NodeCandidate,
    SimConfig,
    StitchParams,
    Track2DParams,
    annotate,
    associate,
    build_graph,
    build_tracklets,
    complexity_psi,
    complexity_stats,
    default_rig,
    degrade,
    edge_weight,
    evaluate_tracks,
    extract_3d_tracklets,
    extract_paths,
    hungarian,
    node_weight,
    oracle_tracks,
    perfect_detections,
    simulate,
    tracks_to_pred,
)
from stereomot.cli import (
    stage_associate,
    stage_simulate,
    stage_stitch,
    stage_track2d,
)
from stereomot.config import PipelineConfig
from stereomot.detect import (
    ENDPOINT_VALUES,
    JUNCTION_VALUES,
    entropy_threshold,
    intermodes_threshold,
    kernel_response,
    skeletonize,
)
from stereomot.formats import read_annotations_csv
from stereomot.geometry import (
    TankBounds,
    in_tank,
    project_batch,
    triangulate_batch,
)
from stereomot.metrics import ViewComplexity


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


# ---------------------------------------------------------------------------
# gate 1: the composite difficulty score reproduces the frozen reference
# table for eight benchmark recordings (per-view stats in, score out)

REFERENCE = {
    # name: ((oc, ol, tbo, ibo) top, (oc, ol, tbo, ibo) front, psi)
    "trn2": ((1.82, 0.41, 0.69, 0.29), (1.42, 0.51, 0.89, 0.26), 0.26),
    "trn5": ((3.60, 0.56, 1.00, 0.28), (2.93, 0.64, 1.21, 0.28), 0.50),
    "val2": ((0.93, 0.22, 1.79, 0.24), (0.47, 0.63, 3.20, 0.35), 0.03),
    "val5": ((2.67, 0.25, 1.64, 0.22), (3.80, 0.66, 0.73, 0.34), 0.63),
    "tst1": ((0.00, 0.00, 15.00, 0.00), (0.00, 0.00, 15.00, 0.00), 0.00),
    "tst2": ((0.67, 0.10, 2.41, 0.19), (0.67, 0.38, 2.18, 0.19), 0.01),
    "tst5": ((3.07, 0.25, 1.38, 0.25), (2.93, 0.36, 1.28, 0.23), 0.16),
    "tst10": ((4.40, 0.28, 1.86, 0.26), (6.53, 0.35, 1.40, 0.24), 0.28),
}


def test_criterion_01_difficulty_score_matches_reference_table():
    with budget(1.0):
        for name, (top, front, expected) in REFERENCE.items():
            psi = complexity_psi(ViewComplexity(*top), ViewComplexity(*front))
            assert abs(psi - expected) <= 0.01 + 1e-12, (name, psi, expected)


# ---------------------------------------------------------------------------
# gate 2: occlusion statistics from annotations match hand-computed values
# on a scheduled synthetic ground truth, including the eventless view where
# the time between occlusions equals the sequence duration

def scripted_gt(n_frames, n_fish, fps=60.0):
    gt = GroundTruth(fps=fps, n_frames=n_frames, ids=range(1, n_fish + 1))
    for view in ("top", "front"):
        gt.boxes[view][:] = (0.0, 0.0, 10.0, 10.0)
        gt.heads[view][:] = (5.0, 5.0)
    gt.points3d[:] = [[4.0 * i, 10.0, 5.0] for i in gt.fish_ids]
    return gt


def flag(gt, frames, fish, view):
    for f in frames:
        gt.occluded[view][f, fish - 1] = True


def test_criterion_02_annotation_statistics_match_hand_computation():
    with budget(1.0):
        gt = scripted_gt(900, 2)  # 15 s at 60 fps
        flag(gt, range(60, 120), 1, "top")
        flag(gt, range(60, 120), 2, "top")
        top = complexity_stats(gt, "top")
        # two events in 15 s, each 60 frames long, identical boxes overlap
        # fully; gaps per fish are 60 leading + 780 trailing frames
        assert abs(top.oc - 2 / 15) < 1e-9
        assert abs(top.ol - 1.0) < 1e-9
        assert abs(top.tbo - 7.0) < 1e-9
        assert abs(top.ibo - 1.0) < 1e-9
        front = complexity_stats(gt, "front")
        assert front.oc == 0.0
        assert front.ol == 0.0
        assert abs(front.tbo - 15.0) < 1e-9  # eventless: the full duration
        assert front.ibo == 0.0


# ---------------------------------------------------------------------------
# gate 3: the assignment solver is exact (brute-force permutation oracle)

@lru_cache(maxsize=None)
def _perm_table(n):
    return np.array(list(itertools.permutations(range(n))))


def brute_force_min_cost(cost):
    cost = np.asarray(cost, dtype=float)
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    m, n = cost.shape
    perms = _perm_table(n)
    totals = cost[np.arange(m)[None, :], perms[:, :m]].sum(axis=1)
    return float(totals.min())


def test_criterion_03_assignment_matches_brute_force():
    with budget(5.0):
        rng = np.random.default_rng(17)
        for _ in range(500):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            # integer-valued costs make float sums exactly comparable
            cost = rng.integers(0, 1000, size=(m, n)).astype(float)
            pairs = hungarian(cost)
            assert len(pairs) == min(m, n)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == brute_force_min_cost(cost)


# ---------------------------------------------------------------------------
# gate 4: greedy best-path extraction matches exhaustive enumeration

def exhaustive_best_path(nodes, edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    best_score, best_path = -math.inf, None
    stack = [([n], nodes[n]) for n in sorted(nodes)]
    while stack:
        path, score = stack.pop()
        if score > best_score or (score == best_score and path < best_path):
            best_score, best_path = score, list(path)
        for nxt in adj.get(path[-1], ()):
            stack.append((path + [nxt],
                          score + edges[(path[-1], nxt)] + nodes[nxt]))
    return best_score, best_path


def path_score(path, nodes, edges):
    score = nodes[path[0]]
    for a, b in zip(path, path[1:]):
        score += edges[(a, b)] + nodes[b]
    return score


def test_criterion_04_first_path_matches_exhaustive_search():
    with budget(5.0):
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            nodes = {i: float(rng.uniform(0.1, 5.0)) for i in range(n)}
            edges = {(i, j): float(rng.uniform(0.1, 5.0))
                     for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3}
            graph = graph_from_weights(nodes, edges)
            first = extract_paths(graph)[0]
            best_score, best_path = exhaustive_best_path(nodes, edges)
            assert set(first) == set(best_path)
            assert math.isclose(path_score(first, nodes, edges), best_score,
                                rel_tol=1e-12)


# ---------------------------------------------------------------------------
# gate 5: stereo geometry round-trips through both cameras

def test_criterion_05_geometry_round_trip():
    with budget(1.0):
        rig = default_rig()
        rng = np.random.default_rng(55)
        pts = rng.uniform([0, 0, 0], [30, 30, 15], size=(10_000, 3))
        uv_top = project_batch(pts, rig.top)
        uv_front = project_batch(pts, rig.front)
        rec, errs = triangulate_batch(uv_top, uv_front, rig.top, rig.front)
        assert np.linalg.norm(rec - pts, axis=1).max() < 1e-6  # cm
        assert errs.max() < 1e-6  # px
        assert np.abs(project_batch(rec, rig.top) - uv_top).max() < 1e-6
        assert np.abs(project_batch(rec, rig.front) - uv_front).max() < 1e-6


# ---------------------------------------------------------------------------
# gate 6: pairing and linking weights match a from-scratch evaluation of
# exp(-lambda * x) survival scores on randomized tracklet pairs

def random_projected_pair(rng, rig):
    path = np.clip(np.cumsum(rng.normal(0, 0.3, size=(60, 3)), axis=0)
                   + rng.uniform([4, 4, 3], [26, 26, 12]),
                   [1.0, 1.0, 1.0], [29.0, 29.0, 14.0])
    a0 = int(rng.integers(0, 15))
    a1 = a0 + int(rng.integers(15, 35))
    b0 = int(rng.integers(a0, a1 - 5))
    b1 = b0 + int(rng.integers(10, 35))
    top_frames = range(a0, min(a1, 60))
    top = tracklet(0, "top", top_frames,
                   [project(path[f], rig.top) for f in top_frames])
    front_frames = range(b0, min(b1, 60))
    heads, cands = [], []
    for f in front_frames:
        uv = project(path[f], rig.front)
        row = [uv]
        for _ in range(int(rng.integers(0, 3))):
            du = float(rng.choice([-1, 1]) * rng.uniform(25, 80))
            row.append((uv[0] + du, uv[1] + float(rng.uniform(-8, 8))))
        rng.shuffle(row)
        heads.append(row[0])
        cands.append(row)
    front = tracklet(1, "front", front_frames, heads,
                     cands=[c + [(math.nan, math.nan)] * (3 - len(c))
                            for c in cands])
    return top, front


def scratch_node_weight(top, front, rig, tank, params):
    vals = []
    heads = dict(zip(top.frames.tolist(), top.detections.head.tolist()))
    cands = dict(zip(front.frames.tolist(), front.detections.cands.tolist()))
    for f in sorted(heads.keys() & cands):
        best = None
        for cand in cands[f]:
            if math.isnan(cand[0]):  # a blank candidate slot
                continue
            p, e = triangulate(heads[f], cand, rig.top, rig.front)
            if best is None or e < best[1]:
                best = (p, e)
        if not math.isfinite(best[1]):
            continue
        if in_tank(best[0], tank):
            vals.append(math.exp(-params.lambda_err * best[1]))
    if not vals:
        return None
    union = len(heads.keys() | cands)
    return statistics.median(vals) * len(vals) / union


def synth_node(tid, fid, f0, f1, rng, weight):
    frames = list(range(f0, f1))
    pts = rng.uniform([2, 2, 2], [28, 28, 13], size=(len(frames), 3))
    return NodeCandidate(
        top=tracklet(tid, "top", frames),
        front=tracklet(fid, "front", frames),
        frame=np.array(frames), point=pts,
        weight=weight)


def test_criterion_06_weights_match_scratch_evaluation():
    with budget(1.0):
        rig = default_rig()
        tank = TankBounds()
        params = AssocParams()
        rng = np.random.default_rng(77)
        for _ in range(100):
            top, front = random_projected_pair(rng, rig)
            node = node_weight(top, front, rig, tank, params)
            expect = scratch_node_weight(top, front, rig, tank, params)
            assert node is not None and expect is not None
            assert abs(node.weight - expect) / expect < 1e-12

        fps = 60.0
        for _ in range(100):
            w1 = float(rng.uniform(0.05, 1.0))
            w2 = float(rng.uniform(0.05, 1.0))
            split = int(rng.integers(10, 40))
            gap = int(rng.integers(0, 30))
            src = synth_node(0, 1, 0, split, rng, w1)
            dst = synth_node(2, 3, split + gap, split + gap + 20, rng, w2)
            got = edge_weight(src, dst, params, fps=fps)
            t_d = max(1, (split + gap) - (split - 1))
            dist = math.dist(src.point[split - 1], dst.point[0])
            expect = (math.exp(-params.lambda_s * dist / (t_d / fps))
                      * math.exp(-t_d / params.tau_p) * (w1 + w2))
            assert abs(got - expect) / expect < 1e-12


# ---------------------------------------------------------------------------
# gate 7: detector building blocks hold their structural guarantees

def no_two_by_two(skel):
    on = skel > 0
    return not (on[:-1, :-1] & on[1:, :-1] & on[:-1, 1:] & on[1:, 1:]).any()


def paint_disk(img, cx, cy, r, value):
    h, w = img.shape
    ys, xs = np.ogrid[:h, :w]
    img[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = value


def test_criterion_07_detector_structural_guarantees():
    with budget(10.0):
        rng = np.random.default_rng(7)
        for _ in range(50):
            img = np.zeros((64, 64), dtype=np.uint8)
            for _ in range(int(rng.integers(2, 6))):
                paint_disk(img, int(rng.integers(10, 54)),
                           int(rng.integers(10, 54)),
                           int(rng.integers(3, 9)), 255)
            skel = skeletonize(img)
            assert no_two_by_two(skel)
            assert np.array_equal(skeletonize(skel), skel)

        assert ENDPOINT_VALUES == frozenset({116, 117, 118, 131})
        assert JUNCTION_VALUES == frozenset({148, 149, 150, 151})

        line = np.zeros((16, 16), dtype=np.uint8)
        line[8, 3:12] = 255
        resp = kernel_response(line)
        assert resp[8, 3] == 116 and resp[8, 11] == 116
        upright = np.zeros((16, 16), dtype=np.uint8)
        upright[3:12, 8] = 255
        resp = kernel_response(upright)
        assert resp[3, 8] == 116 and resp[11, 8] == 116
        diag = np.zeros((16, 16), dtype=np.uint8)
        for k in range(3, 12):
            diag[k, k] = 255
        resp = kernel_response(diag)
        assert resp[3, 3] in ENDPOINT_VALUES
        assert resp[11, 11] in ENDPOINT_VALUES

        tee = np.zeros((16, 16), dtype=np.uint8)
        tee[8, 4:13] = 255
        tee[9:13, 8] = 255
        assert kernel_response(tee)[8, 8] in JUNCTION_VALUES
        bent = np.zeros((16, 16), dtype=np.uint8)
        bent[8, 4:13] = 255
        for k in range(1, 5):
            bent[8 + k, 8 + k] = 255  # one arm leaves diagonally
        assert kernel_response(bent)[8, 8] in JUNCTION_VALUES

        # detector regime: dense dark background, sparse bright foreground;
        # a separating threshold keeps every background bin at or below it
        for seed in range(5):
            r = np.random.default_rng(seed)
            lo = r.integers(60, 81, 4000)
            hi = r.integers(170, 201, 800)
            hist = np.bincount(np.concatenate([lo, hi]), minlength=256)
            for threshold in (entropy_threshold(hist),
                              intermodes_threshold(hist)):
                assert lo.max() <= threshold < hi.min()


# ---------------------------------------------------------------------------
# gate 8: an occlusion-free two-fish run tracks perfectly end to end

CLEAN_CFG = """\
n_fish = 2
duration_s = 15.0
sim.confine_axis_slabs = true
"""


def test_criterion_08_clean_run_is_perfect(tmp_path):
    with budget(30.0):
        cfg = PipelineConfig.from_text(CLEAN_CFG)
        out = tmp_path
        stage_simulate(cfg, out)
        gt = read_annotations_csv(out / "annotations.csv")
        assert not any(gt.occluded[v].any() for v in ("top", "front"))
        stage_track2d(cfg, out / "detections.csv", out)
        stage_associate(cfg, out / "tracklets.csv",
                        out / "calibration.json", out)
        stage_stitch(cfg, out / "tracklets3d.csv", out)
        from stereomot.cli import stage_evaluate
        stage_evaluate(cfg, out / "annotations.csv", out,
                       tracks_path=out / "tracks.csv")
        report = json.loads((out / "report.json").read_text())
        assert report["mota"] == 100.0
        assert report["idsw"] == 0
        assert report["frag"] == 0


# ---------------------------------------------------------------------------
# gate 9: tracking quality degrades monotonically with lost evidence

def library_pipeline_mota(gt, dets, rig, tank, n_fish, fps):
    params = Track2DParams()
    per_view = {}
    for view in ("top", "front"):
        per_view[view] = build_tracklets(dets[view], params, view=view)
    graph = build_graph(per_view["top"], per_view["front"], rig, tank,
                        AssocParams(), fps=fps)
    tracks = associate(extract_3d_tracklets(graph), n_fish, StitchParams())
    return evaluate_tracks(tracks_to_pred(tracks), gt, 0.5).mota


def test_criterion_09_degradation_is_monotone():
    with budget(300.0):
        tank = TankBounds()
        motas = {0.0: [], 0.1: [], 0.3: []}
        for seed in range(10):
            cfg = SimConfig(n_fish=5, duration_s=10.0, fps=60.0, seed=seed)
            seq = simulate(cfg)
            gt = annotate(seq)
            clean = perfect_detections(gt)
            for rate in motas:
                dets = (clean if rate == 0.0 else
                        degrade(clean, DegradeModel(drop_rate=rate),
                                seed=seed))
                motas[rate].append(library_pipeline_mota(
                    gt, dets, seq.rig, tank, cfg.n_fish, cfg.fps))
        med = {rate: statistics.median(vals) for rate, vals in motas.items()}
        assert med[0.0] >= med[0.1] >= med[0.3], med

        # reference tracker: feeding it a superset of occlusion flags can
        # only remove matches, so its score never rises
        gt = annotate(simulate(SimConfig(n_fish=5, duration_s=10.0,
                                         fps=60.0, seed=99)))
        rng = np.random.default_rng(99)
        unflagged = [(f, i, v) for f in range(gt.n_frames)
                     for v in ("top", "front") for i in gt.fish_ids
                     if not gt.occluded[v][f, i - 1]]
        rng.shuffle(unflagged)
        last_mota = math.inf
        last_occluded = -1
        for extra in (0, 400, 800, 1200):
            flagged_gt = copy.deepcopy(gt)
            for f, i, v in unflagged[:extra]:
                flagged_gt.occluded[v][f, i - 1] = True
            n_occluded = int((flagged_gt.occluded["top"]
                              | flagged_gt.occluded["front"]).sum())
            pred = oracle_tracks(flagged_gt)
            mota = evaluate_tracks(pred, flagged_gt, 0.5).mota
            assert n_occluded > last_occluded
            assert mota <= last_mota + 1e-9
            last_mota, last_occluded = mota, n_occluded


# ---------------------------------------------------------------------------
# gate 10: the evaluation suite is self-consistent

def test_criterion_10_metric_self_consistency():
    with budget(10.0):
        gt = scripted_gt(900, 1)  # 15 s at 60 fps, one fish
        pred = {1: {f: gt.points3d[f, 0] for f in range(900)}}
        r = evaluate_tracks(pred, gt, 0.5)
        assert r.mota == 100.0
        assert r.motp == 0.0
        assert r.id_f1 == 100.0
        assert r.mt == 1 and r.ml == 0
        assert r.mtbf_strict == 900.0
        assert r.mtbf_monotone == 900.0

        gt3 = scripted_gt(120, 3)
        pred3 = {i: {f: gt3.points3d[f, i - 1] for f in range(120)}
                 for i in (1, 2, 3)}
        assert evaluate_tracks(pred3, gt3, 0.5).mt == 3

        gt2 = scripted_gt(120, 2)
        rng = np.random.default_rng(2026)
        for _ in range(100):
            pred = {}
            for fish in (1, 2):
                drop_p = float(rng.uniform(0.0, 0.35))
                split = (int(rng.integers(1, 119))
                         if rng.random() < 0.7 else None)
                for f in range(120):
                    if rng.random() < drop_p:
                        continue
                    pid = fish if split is None or f < split else 100 + fish
                    pred.setdefault(pid, {})[f] = gt2.points3d[f, fish - 1]
            r = evaluate_tracks(pred, gt2, 0.5)
            assert r.mtbf_monotone <= r.mtbf_strict + 1e-12
