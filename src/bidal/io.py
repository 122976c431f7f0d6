"""Persistence: frame files, configs, reports.

Frames are stored as newline-delimited JSON with base64 little-endian
float32 tensor payloads, so load(save(x)) round-trips bit-exactly for
float32 data. A frame record is declared once, as ``_Record``: ``save_frames``
writes it with ``core.canonical_json`` and ``load_frames`` reads it through
``core``'s schema walk, as configs are read (with ``_READERS`` for two config
types). A missing or unknown key, or a value of the wrong type, is rejected
with a message that names it (and, for a frame record, its line). A frame id
may appear once per file.

``load_frames`` reads a file in one pass. Each line is decoded as UTF-8, parsed,
walked and its four payloads decoded from canonical base64 (a junk character,
a line break or extra padding is rejected); the frames whose arrays have the
same shapes then share one block per field, and each frame's arrays are rows
of it. ``validate_frame``'s checks run once per block, and only the first frame
that fails them goes through ``validate_frame``, for its message. The first
faulty line in the file names the error, whatever the fault.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (BudgetSchedule, ConfigError, Domain, FrameRecord, NonNegInt, SyntheticConfig,
                   _base, _build, _check_keys, _compile, _payload, _schema, canonical_json,
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


# _Shapes and _Record are not frozen: a frozen dataclass's constructor costs about three
# times as much, once per line read
@dataclass
class _Shapes:
    """Each array's shape in a frame record; ``roi_confidences`` has ``roi_features``' first."""

    feature_map: Tuple[NonNegInt, NonNegInt, NonNegInt]
    objectness_map: Tuple[NonNegInt, NonNegInt, NonNegInt]
    roi_features: Tuple[NonNegInt, NonNegInt]


@dataclass
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


_FIELDS = ("feature_map", "objectness_map", "roi_features", "roi_confidences")

# validate_frame's value checks, elementwise, in _FIELDS order
_VALUE_CHECKS = (np.isfinite, lambda a: (a >= 0.0) & (a <= 1.0),
                 np.isfinite, lambda a: (a >= 0.0) & (a <= 1.0))


class _Group:
    """The records of one frame file whose arrays have the same shapes: each one's line, id,
    domain, label and decoded payloads."""

    def __init__(self, shapes: Tuple[Tuple[int, ...], ...]):
        fm, om, rois = shapes
        self.shapes = (fm, om, rois, rois[:1])
        self.nbytes = [4 * math.prod(shape) for shape in self.shapes]
        self.records: List[Tuple[int, str, Domain, Optional[int]]] = []
        self.payloads: List[List[bytes]] = []

    def add(self, line_no: int, r: _Record) -> None:
        """Decode ``r``'s payloads; a bad one raises ``ValueError`` naming its field."""
        self.payloads.append([_payload(getattr(r, key), n, key)
                              for key, n in zip(_FIELDS, self.nbytes)])
        self.records.append((line_no, r.id, r.domain, r.hidden_label))

    def frames(self) -> Tuple[List[Tuple[int, FrameRecord]], Optional[int]]:
        """Each record's line and frame, and the index of the first frame ``validate_frame``
        rejects (None if none). A frame's arrays are rows of one block per field, and each of
        ``validate_frame``'s checks runs once over the block."""
        m = len(self.records)
        blocks = [np.frombuffer(bytearray().join(raws), "<f4").reshape((m,) + shape)
                  for raws, shape in zip(zip(*self.payloads), self.shapes)]
        fm, om = self.shapes[:2]
        shape_fault = fm[1:] != om[1:] or 0 in fm or 0 in om
        bad = np.array([shape_fault or not frame_id for _, frame_id, _, _ in self.records])
        for check, block in zip(_VALUE_CHECKS, blocks):
            ok = check(block)
            if not ok.all():
                bad |= ~ok.all(axis=tuple(range(1, ok.ndim)))
        frames = [(line_no, FrameRecord(frame_id, domain, *arrays, label))
                  for (line_no, frame_id, domain, label), arrays
                  in zip(self.records, zip(*map(list, blocks)))]
        return frames, int(bad.argmax()) if bad.any() else None


def load_frames(path: str) -> List[FrameRecord]:
    """The frames in ``path``, in file order; an id may appear on one line only, and any
    error names the line and the field. The first faulty line wins; on one line, a bad
    payload comes before an invalid frame, and that before a repeated id. A line that
    cannot be read ends the file there."""
    read = _compile(_Record, ())
    groups: Dict[Tuple[Tuple[int, ...], ...], _Group] = {}
    # (line, rank, message) of the first line that cannot be read (rank 0), the first
    # invalid frame (1) and the first repeated id (2); the least is raised
    faults = []
    first_line = {}
    # a byte that is not UTF-8 is read as a lone surrogate, so its line can be named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                line = line.strip()
                if not line:
                    continue
                r = read(json.loads(line), "frame record", None)
                shapes = (r.shapes.feature_map, r.shapes.objectness_map, r.shapes.roi_features)
                group = groups.get(shapes) or _Group(shapes)
                group.add(line_no, r)
            except UnicodeDecodeError as exc:
                faults.append((line_no, 0, "line %d: not UTF-8 (%s)" % (line_no, exc)))
                break
            except json.JSONDecodeError as exc:
                faults.append((line_no, 0, "line %d: invalid JSON (%s)" % (line_no, exc)))
                break
            except ValueError as exc:  # ConfigError included
                faults.append((line_no, 0, "line %d: %s" % (line_no, exc)))
                break
            groups[shapes] = group
            if first_line.setdefault(r.id, line_no) != line_no and not faults:
                faults.append((line_no, 2, "line %d: id %r repeats line %d"
                               % (line_no, r.id, first_line[r.id])))
    framed = []
    for group in groups.values():
        frames, bad = group.frames()
        framed += frames
        if bad is not None:
            line_no, frame = frames[bad]
            faults.append((line_no, 1, "line %d: invalid frame: %s"
                           % (line_no, "; ".join(validate_frame(frame)))))
    if faults:
        raise FrameFormatError(min(faults)[2])
    framed.sort()
    return [frame for _, frame in framed]


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
