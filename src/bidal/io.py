"""Persistence: frame files, configs, reports.

Frames are stored as newline-delimited JSON with base64 little-endian
float32 tensor payloads, so load(save(x)) round-trips bit-exactly for
float32 data. Frame records and configs are read strictly: a missing or
unknown key, or a value of the wrong type, is rejected with a message that
names it (and, for a frame record, its line). A frame id may appear once per
file. Configs are read by ``core``'s schema walk, with ``_READERS`` for two types.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Union

import numpy as np

from .core import (BudgetSchedule, ConfigError, Domain, FrameRecord, SyntheticConfig, _build,
                   _check_keys, _schema, _typed, canonical_json, decode_array, encode_array,
                   read_json, validate_frame)
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


def frame_to_record(frame: FrameRecord) -> Dict[str, Any]:
    rois = np.asarray(frame.roi_features)
    record = {
        "id": frame.id,
        "domain": frame.domain.value,
        "shapes": {
            "feature_map": list(np.asarray(frame.feature_map).shape),
            "objectness_map": list(np.asarray(frame.objectness_map).shape),
            "roi_features": list(rois.shape) if rois.ndim == 2 else [0, 0],
        },
        "feature_map": encode_array(frame.feature_map, "<f4"),
        "objectness_map": encode_array(frame.objectness_map, "<f4"),
        "roi_features": encode_array(rois, "<f4"),
        "roi_confidences": encode_array(frame.roi_confidences, "<f4"),
    }
    if frame.hidden_label is not None:
        record["hidden_label"] = frame.hidden_label
    return record


# the required keys of a frame record, and the rank of each array's shape entry
_RECORD_KEYS = ("id", "domain", "shapes", "feature_map", "objectness_map", "roi_features",
                "roi_confidences")
_SHAPE_RANKS = {"feature_map": 3, "objectness_map": 3, "roi_features": 2}
_DOMAINS = tuple(d.value for d in Domain)


def _check_record_keys(d: Dict[str, Any], required, optional, prefix: str, line: int) -> None:
    unknown = sorted(d.keys() - set(required) - set(optional))
    if unknown:
        raise FrameFormatError("line %d: unknown key '%s%s'" % (line, prefix, unknown[0]))
    missing = [k for k in required if k not in d]
    if missing:
        raise FrameFormatError("line %d: missing key '%s%s'" % (line, prefix, missing[0]))


def record_to_frame(record: Dict[str, Any], line: int) -> FrameRecord:
    """A frame from one ndjson record; any error names the line and the field."""

    def fail(message):
        raise FrameFormatError("line %d: %s" % (line, message))

    if not isinstance(record, dict):
        fail("record must be a JSON object, got %s" % type(record).__name__)
    _check_record_keys(record, _RECORD_KEYS, ("hidden_label",), "", line)
    shapes = record["shapes"]
    if not isinstance(shapes, dict):
        fail("shapes must be a JSON object, got %s" % json.dumps(shapes))
    _check_record_keys(shapes, tuple(_SHAPE_RANKS), (), "shapes.", line)
    for key, rank in _SHAPE_RANKS.items():
        shape = shapes[key]
        # ``type(v) is int`` also turns away booleans
        if type(shape) is not list or len(shape) != rank or not all(
            type(v) is int and v >= 0 for v in shape
        ):
            fail("shapes.%s must be a list of %d non-negative integers, got %s"
                 % (key, rank, json.dumps(shape)))
    arrays = {}
    roi_shape = shapes["roi_features"]
    for key, shape in (("feature_map", shapes["feature_map"]),
                       ("objectness_map", shapes["objectness_map"]),
                       ("roi_features", roi_shape), ("roi_confidences", roi_shape[:1])):
        if not isinstance(record[key], str):
            fail("%s must be a base64 string, got %s" % (key, type(record[key]).__name__))
        try:
            arrays[key] = decode_array(record[key], shape, "<f4", key)
        except ValueError as exc:
            fail(str(exc))
    if not isinstance(record["id"], str):
        fail("id must be a string, got %s" % json.dumps(record["id"]))
    if record["domain"] not in _DOMAINS:
        fail("domain must be \"source\" or \"target\", got %s" % json.dumps(record["domain"]))
    label = record.get("hidden_label")
    if label is not None and (isinstance(label, bool) or not isinstance(label, int) or label < 0):
        fail("hidden_label must be a non-negative integer or null, got %s" % json.dumps(label))
    frame = FrameRecord(
        id=record["id"], domain=Domain(record["domain"]), hidden_label=label, **arrays
    )
    errors = validate_frame(frame)
    if errors:
        fail("invalid frame: %s" % "; ".join(errors))
    return frame


def save_frames(frames: Sequence[FrameRecord], path: str) -> None:
    with open(path, "w") as fh:
        for frame in frames:
            fh.write(canonical_json(frame_to_record(frame)))
            fh.write("\n")


def load_frames(path: str) -> List[FrameRecord]:
    """The frames in ``path``, in file order; an id may appear on one line only."""
    frames = []
    first_line = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FrameFormatError("line %d: invalid JSON (%s)" % (line_no, exc))
            frame = record_to_frame(record, line_no)
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
    ((name, (tp, _)),) = _schema(cls).items()
    value = _typed(spec.get("value", getattr(cls, name, None)), tp, context + " value", _READERS)
    return _build(cls, {name: float(value) if tp is float else value}, context, _READERS)


def parse_schedule(d: Union[str, Dict[str, Any]], context: str = "schedule") -> BudgetSchedule:
    """A ``BUDGET_PRESETS`` name or a ``BudgetSchedule`` object."""
    if not isinstance(d, str):
        return _build(BudgetSchedule, d, context, _READERS)
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
