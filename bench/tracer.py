"""Spans, counters and memory peaks recorded from outside the library.

`Tracer.install()` replaces public functions of the `stereomot` modules
with wrappers, at the name each caller looks up: the CLI's imported
names for calls the stages make, and a module's own globals for calls one
layer makes into another (`simulator.project_batch`, `track2d.mahalanobis`,
`crossview.node_weight`, `detect.preprocess`, ...). Nothing under `src/`
changes; `uninstall()` puts every original back.

Each wrapped call records a span (name, start, end, parent, trace id);
spans stay in memory until the run writes them out. `MemoryProbe`
measures tracemalloc peaks per stage in a separate pass, because
tracemalloc slows allocation and would distort the span times.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, trace_id]
        self.counts: dict[str, Counter] = {}   # trace_id -> counters
        self.trace_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stitch: dict = {}

    # -- recording ---------------------------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        self.counts.setdefault(self.trace_id, Counter())[name] += n

    def span_stage(self, stage: str):
        return self.span("stage." + stage)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.trace_id])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = orig(*args, **kwargs)
            tracer.add(name + "_calls")
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def _wrap_property(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__[attr]
        tracer = self

        def fget(obj):
            with tracer.span(name):
                result = orig.fget(obj)
            tracer.add(name + "_calls")
            return result

        setattr(cls, attr, property(fget))
        self._patches.append((cls, attr, orig))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from stereomot import cli, crossview, detect, metrics, simulator
        from stereomot import track2d, track3d

        add = self.add

        def wrote(args, kwargs, result):
            add("formats.bytes_written", os.path.getsize(args[0]))

        def read(args, kwargs, result):
            add("formats.bytes_read", os.path.getsize(args[0]))

        for attr in ("write_annotations_csv", "write_detections_csv",
                     "write_tracklets_csv", "write_tracklets3d_csv",
                     "write_tracks_csv", "write_report_json", "write_pgm"):
            self._wrap(cli, attr, "formats." + attr.replace("_csv", ""),
                       wrote)
        for attr in ("read_annotations_csv", "read_detections_csv",
                     "read_tracklets_csv", "read_tracklets3d_csv",
                     "read_tracks_csv", "read_pgm"):
            self._wrap(cli, attr, "formats." + attr.replace("_csv", ""), read)
        self._wrap(cli, "save_calibration", "geometry.save_calibration")
        self._wrap(cli, "load_calibration", "geometry.load_calibration")

        for attr in ("simulate", "annotate", "perfect_detections", "degrade",
                     "render"):
            self._wrap(cli, attr, "simulator." + attr)
        self._wrap(simulator, "project_batch", "geometry.project_batch")

        def detected(args, kwargs, result):
            add("detect.detections", len(result))
            add("detect.empty_frames", not result)

        self._wrap(cli, "estimate_background", "detect.background")
        self._wrap(cli, "detect_top", "detect.top", detected)
        self._wrap(cli, "detect_front", "detect.front", detected)
        self._wrap(detect, "preprocess", "detect.preprocess")

        def tracklets(args, kwargs, result):
            add("track2d.tracklets", len(result))

        self._wrap(cli, "build_tracklets", "track2d.build_tracklets",
                   tracklets)
        self._wrap(track2d, "mahalanobis", "track2d.mahalanobis")
        self._wrap(track2d, "hungarian", "track2d.hungarian")

        def graph(args, kwargs, result):
            add("crossview.nodes", len(result.nodes))
            add("crossview.edges", len(result.edges))

        def paths(args, kwargs, result):
            add("crossview.paths", len(result))

        def rows(args, kwargs, result):
            add("geometry.triangulate_rows", len(result[1]))

        self._wrap(cli, "build_graph", "crossview.build_graph", graph)
        self._wrap(cli, "extract_3d_tracklets",
                   "crossview.extract_3d_tracklets")
        self._wrap(crossview, "node_weight", "crossview.node_weight",
                   lambda args, kwargs, result: add("crossview.pairs_scored"))
        self._wrap(crossview, "extract_paths", "crossview.extract_paths",
                   paths)
        self._wrap(crossview, "triangulate_batch", "geometry.triangulate",
                   rows)

        def seeded(args, kwargs, result):
            usable = args[0]
            self._stitch = {"found": result is not None,
                            "galleries": (len(usable) - len(result[1])
                                          if result is not None else 0)}

        def stitched(args, kwargs, result):
            if not self._stitch.get("found"):
                return
            assigned = sum(len(t.sources) - 1 for t in result)
            add("track3d.seed_set_found", 1)
            add("track3d.galleries", self._stitch["galleries"])
            add("track3d.galleries_assigned", assigned)
            add("track3d.galleries_dropped",
                self._stitch["galleries"] - assigned)

        self._wrap(track3d, "select_initial", "track3d.select_initial",
                   seeded)
        self._wrap(track3d, "assignment_cost", "track3d.assignment_cost")
        self._wrap(cli, "associate", "track3d.associate", stitched)

        self._wrap(cli, "evaluate_tracks", "metrics.evaluate_tracks")
        self._wrap(metrics, "match_frames", "metrics.match_frames")
        self._wrap(metrics, "id_metrics", "metrics.id_metrics")
        self._wrap(cli, "complexity_report", "metrics.complexity_report")
        self._wrap_property(metrics.GroundTruth, "fish_ids",
                            "metrics.fish_ids")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries ---------------------------------------------------------

    def inclusive(self, trace_id: str) -> Counter:
        """Summed span time per name. No wrapped function calls itself, so
        no span is nested in one of the same name."""
        out: Counter = Counter()
        for name, start, end, _, tid in self.spans:
            if tid == trace_id:
                out[name] += end - start
        return out

    def layer_self(self, trace_id: str) -> Counter:
        """Self time per layer: a span's duration minus its children's,
        summed by the layer prefix of its name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] == trace_id and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span[4] == trace_id:
                layer = span[0].split(".", 1)[0]
                out[layer] += (span[2] - span[1]) - child[i]
        return out


class MemoryProbe:
    """tracemalloc peaks per stage, and per detector call.

    Stage peaks are the largest traced allocation above the level at the
    stage's start. The detector wrappers reset the peak around each call,
    so they first fold the peak reached so far into the stage's record.
    """

    def __init__(self):
        self.stage_peak: dict[str, float] = {}
        self.detect_peak = 0.0
        self._running = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from stereomot import cli

        for attr in ("detect_top", "detect_front"):
            orig = getattr(cli, attr)

            def wrapper(*args, _orig=orig, **kwargs):
                start, peak = tracemalloc.get_traced_memory()
                self._running = max(self._running, peak)
                tracemalloc.reset_peak()
                result = _orig(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
                self._running = max(self._running, peak)
                self.detect_peak = max(self.detect_peak,
                                       (peak - start) / MIB)
                return result

            setattr(cli, attr, wrapper)
            self._patches.append((cli, attr, orig))
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def stage(self, name: str):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        self._running = 0
        try:
            yield
        finally:
            peak = max(self._running, tracemalloc.get_traced_memory()[1])
            self.stage_peak[name] = max(self.stage_peak.get(name, 0.0),
                                        (peak - start) / MIB)
