"""Modular stereo 3D multi-object tracking of small aquatic animals.

Pipeline: 2D detection -> per-view tracklets -> cross-view DAG association
-> greedy 3D stitching, plus occlusion-complexity statistics, a tracking
evaluation suite, and a deterministic synthetic-scene simulator that serves
as an exact oracle for the whole chain.
"""

__version__ = "0.1.0"

from .geometry import (CameraModel, StereoRig, TankBounds, default_rig,
                       in_tank, load_calibration, project_batch,
                       save_calibration, triangulate_batch)
from .detect import (DetectError, DetectionTable, DetectParams, detect_front,
                     detect_top, estimate_background,
                     ingest_external_detections)
from .track2d import (Track2DParams, Tracklet2D, build_tracklets, hungarian,
                      mahalanobis)
from .crossview import (AssocParams, AssociationGraph, NodeCandidate,
                        Tracklet3D, build_graph, edge_weight,
                        extract_3d_tracklets, extract_paths, node_weight)
from .track3d import (StitchParams, Track3D, assignment_cost, associate,
                      gallery_rank, select_initial)
from .metrics import (ComplexityReport, EvalReport, GroundTruth, clear_mot,
                      complexity_psi, complexity_report, complexity_stats,
                      evaluate_tracks, id_metrics, match_frames, mt_ml, mtbf,
                      occlusion_events, oracle_tracks, tracks_to_pred)
from .simulator import (DegradeModel, SimConfig, SyntheticSequence, annotate,
                        degrade, perfect_detections, render, simulate)
from .config import ConfigError, PipelineConfig

__all__ = [
    "__version__",
    "CameraModel", "StereoRig", "TankBounds", "default_rig", "in_tank",
    "load_calibration", "project_batch", "save_calibration",
    "triangulate_batch",
    "DetectError", "DetectionTable", "DetectParams", "detect_front",
    "detect_top", "estimate_background", "ingest_external_detections",
    "Track2DParams", "Tracklet2D", "build_tracklets", "hungarian",
    "mahalanobis",
    "AssocParams", "AssociationGraph", "NodeCandidate",
    "Tracklet3D", "build_graph", "edge_weight", "extract_3d_tracklets",
    "extract_paths", "node_weight",
    "StitchParams", "Track3D", "assignment_cost", "associate",
    "gallery_rank", "select_initial",
    "ComplexityReport", "EvalReport", "GroundTruth", "clear_mot",
    "complexity_psi", "complexity_report", "complexity_stats",
    "evaluate_tracks", "id_metrics", "match_frames", "mt_ml", "mtbf",
    "occlusion_events", "oracle_tracks", "tracks_to_pred",
    "DegradeModel", "SimConfig", "SyntheticSequence", "annotate", "degrade",
    "perfect_detections", "render", "simulate",
    "ConfigError", "PipelineConfig",
]
