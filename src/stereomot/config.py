"""Flat key=value pipeline configuration.

Grammar: one `name = value` per line; blank lines and '#' comments ignored.
Each key's default, and so its type (int, float, bool true/false, or a
bare string), comes from the parameter dataclass or function that owns
it. Unknown and duplicate keys are rejected by name, and every
derived parameter object is constructed once at load time so bad values
fail early. `dump()` prints the complete canonical listing, so
load -> dump -> load is the identity.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from dataclasses import dataclass

from .crossview import AssocParams
from .detect import DetectParams, ingest_external_detections
from .formats import read_text
from .geometry import StereoRig, TankBounds, default_rig
from .simulator import DegradeModel, SimConfig
from .track2d import EUCLIDEAN_HEAD, Track2DParams
from .track3d import StitchParams


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class _Key:
    """One parameter. Its default, and with it its type, is the default of
    `owner`'s field or parameter `attr` (element `index` of it when that is
    a tuple), or `literal` for a key no parameter object owns."""

    name: str
    help: str
    owner: object = None
    attr: str = ""
    index: int | None = None
    literal: object = None


def _owned(owner, prefix: str = "", **helps: str) -> list[_Key]:
    """Keys `prefix + attr` for the fields or parameters `attr` of `owner`."""
    return [_Key(prefix + attr, text, owner, attr)
            for attr, text in helps.items()]


def _default(key: _Key):
    if key.owner is None:
        return key.literal
    if dataclasses.is_dataclass(key.owner):
        value = {f.name: f.default
                 for f in dataclasses.fields(key.owner)}[key.attr]
    else:
        value = inspect.signature(key.owner).parameters[key.attr].default
    return value if key.index is None else value[key.index]


_REGISTRY: list[_Key] = [
    *_owned(SimConfig,
            seed="master seed; every random draw derives from it",
            fps="frames per second of the sequence",
            n_fish="number of fish in the scene",
            duration_s="sequence length in seconds"),
    _Key("tank.x_min", "tank bounds, cm", TankBounds, "x", 0),
    _Key("tank.x_max", "tank bounds, cm", TankBounds, "x", 1),
    _Key("tank.y_min", "tank bounds, cm", TankBounds, "y", 0),
    _Key("tank.y_max", "tank bounds, cm", TankBounds, "y", 1),
    _Key("tank.z_min", "tank bounds, cm", TankBounds, "z", 0),
    _Key("tank.z_max", "water depth bound, cm", TankBounds, "z", 1),
    _Key("image_width", "synthetic camera image width, px", default_rig,
         "image_size", 0),
    _Key("image_height", "synthetic camera image height, px", default_rig,
         "image_size", 1),
    *_owned(default_rig, focal="synthetic camera focal length, px"),
    *_owned(SimConfig, "sim.",
            speed_mean="mean swim speed, cm/s",
            reversion_rate="velocity mean-reversion rate, 1/s",
            body_length="fish body length, cm",
            body_radius="fish body radius at the head, cm",
            taper="tail radius shrink fraction",
            n_spheres="spheres along the body model",
            confine_axis_slabs="confine each fish to its own x slab "
                               "(occlusion-free scenes)",
            slab_margin="margin shaved off each slab, cm"),
    *_owned(DegradeModel, "degrade.",
            drop_rate="detection dropout probability",
            jitter_px="head jitter std dev, px",
            ghost_rate="ghost detections per frame (Poisson)"),
    *_owned(DetectParams, "detect.",
            n_bg="frames sampled for the background model",
            downsample="detector downsampling factor",
            nms_thresh="keypoint suppression overlap, %",
            junction_divisor="junction keypoint weight penalty",
            min_keypoint_weight="discard keypoints below this",
            min_blob_area="min blob area at working resolution, px"),
    *_owned(ingest_external_detections, "detect.",
            min_confidence="confidence gate for ingested external detections"),
    *_owned(Track2DParams, "track2d.",
            delta_top="top-view assignment gate, px",
            delta_front="front-view gate: std-devs (mahalanobis) or px "
                        "(euclidean)",
            tau_k="frames a tracklet may idle before ending",
            top_mode="top-view distance: euclidean-head or "
                     "mahalanobis-centroid",
            front_mode="front-view distance: euclidean-head or "
                       "mahalanobis-centroid"),
    *_owned(AssocParams, "assoc.",
            alpha="min detections per 2D tracklet",
            tau_p="edge temporal decay, frames",
            lambda_err="reprojection-error decay rate, 1/px",
            lambda_s="speed decay rate, s/cm"),
    *_owned(StitchParams, "stitch.",
            beta="min margin between best two mains",
            top_fraction="fraction of tracklets used as seeds",
            overlap_scale="required pairwise seed overlap"),
    _Key("eval.dist_3d", "3D match gate, cm", literal=0.5),
    _Key("eval.dist_2d", "2D match gate, px", literal=20.0),
]
_DEFAULTS = {k.name: _default(k) for k in _REGISTRY}
_KEYS = {k.name: k for k in _REGISTRY}


def _parse_value(name: str, raw: str, where: str):
    kind = type(_DEFAULTS[name])
    if kind is bool:
        if raw in ("true", "false"):
            return raw == "true"
        raise ConfigError(f"{where}: parameter {name!r} must be true or "
                          f"false, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: parameter {name!r} must be "
                          f"{kind.__name__}, got {raw!r}") from None


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _euclidean_front_gate(values: dict, given) -> None:
    """Euclidean front gating is in pixels: a call that sets the front mode
    to it but sets no gate takes the pixel default, materialized so that
    dump() round-trips the effective configuration."""
    if (values["track2d.front_mode"] == EUCLIDEAN_HEAD
            and "track2d.front_mode" in given
            and "track2d.delta_front" not in given):
        values["track2d.delta_front"] = 15.0


@dataclass(frozen=True)
class PipelineConfig:
    values: dict

    @classmethod
    def defaults(cls) -> "PipelineConfig":
        cfg = cls(values=dict(_DEFAULTS))
        cfg.validate()
        return cfg

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "PipelineConfig":
        values = dict(_DEFAULTS)
        seen: dict[str, str] = {}  # name -> "source:line" that set it
        for line_no, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{source}:{line_no}: expected 'name = "
                                  f"value', got {body!r}")
            name, raw = (part.strip() for part in body.split("=", 1))
            if name not in _DEFAULTS:
                raise ConfigError(f"{source}:{line_no}: unknown parameter "
                                  f"{name!r}")
            if name in seen:
                raise ConfigError(f"{source}:{line_no}: duplicate parameter "
                                  f"{name!r}")
            seen[name] = f"{source}:{line_no}"
            values[name] = _parse_value(name, raw, seen[name])
        _euclidean_front_gate(values, seen)
        cfg = cls(values=values)
        cfg.validate(seen)
        return cfg

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_text(read_text(path), source=str(path))

    def get(self, name: str):
        return self.values[name]

    def with_overrides(self, **overrides) -> "PipelineConfig":
        values = dict(self.values)
        for name, v in overrides.items():
            if name not in _DEFAULTS:
                raise ConfigError(f"unknown parameter {name!r}")
            values[name] = v
        _euclidean_front_gate(values, overrides)
        cfg = PipelineConfig(values=values)
        cfg.validate()
        return cfg

    def dump(self) -> str:
        return "\n".join(f"{k.name} = {_format_value(self.values[k.name])}"
                         for k in _REGISTRY) + "\n"

    # -- derived parameter objects ------------------------------------

    def _args(self, owner) -> dict:
        """Keyword arguments for `owner` from the keys it owns."""
        args = {}
        for k in _REGISTRY:
            if k.owner is owner:
                v = self.values[k.name]
                # _REGISTRY lists a tuple's elements in index order.
                args[k.attr] = v if k.index is None else (
                    args.get(k.attr, ()) + (v,))
        return args

    def tank(self) -> TankBounds:
        return TankBounds(**self._args(TankBounds))

    def rig(self) -> StereoRig:
        return default_rig(**self._args(default_rig), tank=self.tank())

    def sim_config(self) -> SimConfig:
        return SimConfig(**self._args(SimConfig), tank=self.tank())

    def degrade_model(self) -> DegradeModel:
        return DegradeModel(**self._args(DegradeModel))

    def detect_params(self) -> DetectParams:
        return DetectParams(**self._args(DetectParams),
                            n_fish=self.values["n_fish"])

    def track2d_params(self) -> Track2DParams:
        return Track2DParams(**self._args(Track2DParams))

    def assoc_params(self) -> AssocParams:
        return AssocParams(**self._args(AssocParams))

    def stitch_params(self) -> StitchParams:
        return StitchParams(**self._args(StitchParams))

    def validate(self, where: dict[str, str] | None = None) -> None:
        """Check every value; a message leads with `where[name]`, if set."""
        where = where or {}

        def error(name: str, message: str) -> ConfigError:
            return ConfigError(f"{where[name]}: {message}" if name in where
                               else message)

        for name, v in self.values.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise error(name, f"parameter {name!r} must be finite, "
                                  f"got {v!r}")
        for owner, build in [(TankBounds, self.tank), (default_rig, self.rig),
                             (SimConfig, self.sim_config),
                             (DegradeModel, self.degrade_model),
                             (DetectParams, self.detect_params),
                             (Track2DParams, self.track2d_params),
                             (AssocParams, self.assoc_params),
                             (StitchParams, self.stitch_params)]:
            try:
                build()
            except ValueError as e:
                # Name the owner's key that the file set last, if any.
                names = [n for n in where if _KEYS[n].owner is owner]
                if not names:
                    raise ConfigError(str(e)) from None
                raise error(names[-1], f"parameter {names[-1]!r}: {e}") from None
        for name in ("eval.dist_3d", "eval.dist_2d"):
            if self.values[name] <= 0:
                raise error(name, f"parameter {name!r} must be positive")


def describe_defaults() -> str:
    """Annotated canonical configuration listing."""
    lines = PipelineConfig.defaults().dump().splitlines()
    return "".join(f"{line}  # {k.help}\n"
                   for line, k in zip(lines, _REGISTRY))
