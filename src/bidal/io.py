"""Persistence: frame files, configs, reports.

Frames are stored as newline-delimited JSON with base64 little-endian
float32 tensor payloads, so load(save(x)) round-trips bit-exactly for
float32 data. A frame record is declared once, as ``_Record``: ``save_frames``
writes it with ``core.canonical_json`` and ``load_frames`` reads it through
``core``'s schema walk, as configs are read (with ``_READERS`` for two config
types). A missing or unknown key, or a value of the wrong type, is rejected
with a message that names it (and, for a frame record, its line). A frame id
may appear once per file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (BudgetSchedule, ConfigError, Domain, FrameRecord, NonNegInt, SyntheticConfig,
                   _base, _build, _check_keys, _compile, _schema, canonical_json, decode_array,
                   encode_array, read_json, validate_frame)
from .pipeline import PipelineConfig
from .source_sampler import Proportion, SourceSelectionMode, Threshold, TopK


class FrameFormatError(ValueError):
    """Malformed frame file; message carries the offending line number."""


# per-round budgets and trigger epochs for the standard desk-scale presets
BUDGET_PRESETS = {
    "kitti-1pct": BudgetSchedule(2, (18, 18), (0, 5)),
    "kitti-5pct": BudgetSchedule(5, (37,) * 5, (0, 2, 4, 6, 8)),
    "nuscenes-1pct": BudgetSchedule(2, (140, 140), (0, 5)),
    "nuscenes-5pct": BudgetSchedule(5, (280,) * 5, (0, 2, 4, 6, 8)),
    "lyft-1pct": BudgetSchedule(2, (94, 94), (0, 5)),
    "lyft-5pct": BudgetSchedule(5, (188,) * 5, (0, 2, 4, 6, 8)),
}


@dataclass(frozen=True)
class _Shapes:
    """Each array's shape in a frame record; ``roi_confidences`` has ``roi_features``' first."""

    feature_map: Tuple[NonNegInt, NonNegInt, NonNegInt]
    objectness_map: Tuple[NonNegInt, NonNegInt, NonNegInt]
    roi_features: Tuple[NonNegInt, NonNegInt]


@dataclass(frozen=True)
class _Record:
    """One line of a frame file: four base64 little-endian float32 payloads and their shapes."""

    id: str
    domain: Domain
    shapes: _Shapes
    feature_map: str
    objectness_map: str
    roi_features: str
    roi_confidences: str
    hidden_label: Optional[NonNegInt] = None


def save_frames(frames: Sequence[FrameRecord], path: str) -> None:
    with open(path, "w") as fh:
        for frame in frames:
            rois = np.asarray(frame.roi_features)
            shapes = _Shapes(np.shape(frame.feature_map), np.shape(frame.objectness_map),
                             rois.shape if rois.ndim == 2 else (0, 0))
            fh.write(canonical_json(_Record(
                frame.id, frame.domain, shapes, encode_array(frame.feature_map, "<f4"),
                encode_array(frame.objectness_map, "<f4"), encode_array(rois, "<f4"),
                encode_array(frame.roi_confidences, "<f4"), frame.hidden_label)))
            fh.write("\n")


def load_frames(path: str) -> List[FrameRecord]:
    """The frames in ``path``, in file order; an id may appear on one line only, and any
    error names the line and the field."""
    frames = []
    first_line = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                r = _build(_Record, json.loads(line), "frame record", {})
                rois = r.shapes.roi_features
                arrays = {key: decode_array(getattr(r, key), shape, "<f4", key)
                          for key, shape in (("feature_map", r.shapes.feature_map),
                                             ("objectness_map", r.shapes.objectness_map),
                                             ("roi_features", rois),
                                             ("roi_confidences", rois[:1]))}
            except json.JSONDecodeError as exc:
                raise FrameFormatError("line %d: invalid JSON (%s)" % (line_no, exc))
            except ValueError as exc:  # ConfigError included
                raise FrameFormatError("line %d: %s" % (line_no, exc))
            frame = FrameRecord(r.id, r.domain, hidden_label=r.hidden_label, **arrays)
            errors = validate_frame(frame)
            if errors:
                raise FrameFormatError("line %d: invalid frame: %s" % (line_no, "; ".join(errors)))
            if first_line.setdefault(frame.id, line_no) != line_no:
                raise FrameFormatError("line %d: id %r repeats line %d"
                                       % (line_no, frame.id, first_line[frame.id]))
            frames.append(frame)
    return frames


_SOURCE_MODES = {"threshold": Threshold, "proportion": Proportion, "topk": TopK}


def parse_source_mode(spec: Union[str, Dict[str, Any]], context: str = "source_mode"):
    """Read ``"type[:value]"`` or ``{"type": ..., "value": ...}``; a float field gets a float."""
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        spec = {"type": kind}
        if arg:
            try:
                spec["value"] = json.loads(arg)
            except json.JSONDecodeError:
                raise ConfigError("%s value must be a number, got %r" % (context, arg))
    if not isinstance(spec, dict):
        raise ConfigError("%s must be a string or a JSON object, got %r" % (context, spec))
    _check_keys(spec, {"type", "value"}, context)
    cls = _SOURCE_MODES.get(spec.get("type")) if isinstance(spec.get("type"), str) else None
    if cls is None:
        raise ConfigError("%s type must be threshold|proportion|topk" % context)
    ((name, tp, _),) = _schema(cls)
    value = _compile(tp, ())(spec.get("value", getattr(cls, name, None)), context + " value", None)
    return _build(cls, {name: float(value) if _base(tp) is float else value}, context, {})


def parse_schedule(d: Union[str, Dict[str, Any]], context: str = "schedule") -> BudgetSchedule:
    """A ``BUDGET_PRESETS`` name or a ``BudgetSchedule`` object."""
    if not isinstance(d, str):  # not with _READERS, which would send ``d`` back here
        return _build(BudgetSchedule, d, context, {})
    if d not in BUDGET_PRESETS:
        raise ConfigError(
            "unknown schedule preset %r (known: %s)"
            % (d, ", ".join(sorted(BUDGET_PRESETS)))
        )
    return BUDGET_PRESETS[d]


# the field types that are not read by plain type checking
_READERS = {BudgetSchedule: parse_schedule, SourceSelectionMode: parse_source_mode}

_KINDS = {"pipeline": PipelineConfig, "synthetic": SyntheticConfig}


def load_config(path: str) -> Union[PipelineConfig, SyntheticConfig]:
    """Load a JSON config; the top-level "kind" key selects the schema."""
    d = read_json(path, "config")
    kind = d.pop("kind", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError('config requires "kind": "pipeline" or "synthetic"')
    return _build(_KINDS[kind], d, "%s config" % kind, _READERS)
