"""Core domain types shared by every module.

A FrameRecord is one scene's pre-digested detector output: a dense BEV-style
feature map, a per-anchor objectness map, and a list of ROI feature vectors
with confidences. Samplers never look at ``hidden_label``; it exists so the
simulator can play the role of the human annotator.

Each on-disk text format has one writer here: ``canonical_json`` (reports,
summaries, checkpoints, frame records) and ``write_ids`` (id-list files).

Configs, checkpoints and run reports are read by one schema walk, ``_build``:
each value of a JSON object is checked against its dataclass field's declared
type, with no coercion and no non-finite number, and a fault raises
``ConfigError`` naming the value's path.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from typing import (Any, Callable, Dict, Mapping, Sequence, Tuple, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np


class Domain(str, Enum):
    SOURCE = "source"
    TARGET = "target"


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """One scene's detector-side artifacts.

    feature_map: (C, H, W) activations.
    objectness_map: (C', H, W) foreground probabilities in [0, 1].
    roi_features: (k, d_roi) per-detection feature vectors; k may be 0.
    roi_confidences: (k,) confidences in [0, 1].
    """

    id: str
    domain: Domain
    feature_map: np.ndarray
    objectness_map: np.ndarray
    roi_features: np.ndarray
    roi_confidences: np.ndarray
    hidden_label: Any = None


def validate_frame(frame: FrameRecord) -> list:
    """Return a list of invariant violations (empty means the frame is valid)."""
    errors = []
    fm = np.asarray(frame.feature_map)
    om = np.asarray(frame.objectness_map)
    if fm.ndim != 3:
        errors.append("feature_map must have shape (C, H, W)")
    if om.ndim != 3:
        errors.append("objectness_map must have shape (C', H, W)")
    if fm.ndim == 3 and om.ndim == 3 and fm.shape[1:] != om.shape[1:]:
        errors.append("feature_map and objectness_map spatial shapes differ")
    if fm.ndim == 3 and 0 in fm.shape:
        errors.append("feature_map has an empty dimension")
    if om.ndim == 3 and 0 in om.shape:
        errors.append("objectness_map has an empty dimension")
    if not np.all((om >= 0.0) & (om <= 1.0)):
        errors.append("objectness_map out of [0,1]")
    if not np.all(np.isfinite(fm)):
        errors.append("feature_map contains non-finite values")
    rois = np.asarray(frame.roi_features)
    confs = np.asarray(frame.roi_confidences)
    if rois.ndim != 2 and rois.size:
        errors.append("roi_features must have shape (k, d_roi)")
    k = rois.shape[0] if rois.ndim == 2 else 0
    n_conf = confs.shape[0] if confs.ndim == 1 else confs.size
    if k != n_conf:
        errors.append("roi_features and roi_confidences length mismatch")
    if not np.all(np.isfinite(rois)):
        errors.append("roi_features contains non-finite values")
    if not np.all((confs >= 0.0) & (confs <= 1.0)):
        errors.append("roi_confidences out of [0,1]")
    if not frame.id:
        errors.append("frame id is empty")
    return errors


def _int_tuple(values: Sequence[Any], what: str) -> Tuple[int, ...]:
    """``values`` as a tuple of ints; Python and numpy integers only, never bools."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError("%s must hold integers, got %r" % (what, v))
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class BudgetSchedule:
    """Per-round annotation budgets and the pipeline epochs that trigger them."""

    rounds: int
    per_round: Tuple[int, ...]
    trigger_epochs: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_round", _int_tuple(self.per_round, "per_round"))
        object.__setattr__(
            self, "trigger_epochs", _int_tuple(self.trigger_epochs, "trigger_epochs")
        )
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if len(self.per_round) != self.rounds:
            raise ValueError("per_round length must equal rounds")
        if len(self.trigger_epochs) != self.rounds:
            raise ValueError("trigger_epochs length must equal rounds")
        if any(b <= 0 for b in self.per_round):
            raise ValueError("per-round budgets must be positive")
        if any(e < 0 for e in self.trigger_epochs):
            raise ValueError("trigger epochs must be non-negative")
        if any(
            a >= b for a, b in zip(self.trigger_epochs, self.trigger_epochs[1:])
        ):
            raise ValueError("trigger_epochs must be strictly increasing")

    @property
    def total_budget(self) -> int:
        return sum(self.per_round)

    @staticmethod
    def equal_split(budget: int, rounds: int, trigger_epochs: Sequence[int]) -> "BudgetSchedule":
        """Split a total budget across rounds as evenly as possible."""
        if rounds <= 0:
            return BudgetSchedule(0, (), ())
        base = budget // rounds
        extra = budget % rounds
        per_round = tuple(base + (1 if i < extra else 0) for i in range(rounds))
        if any(b <= 0 for b in per_round):
            raise ValueError("budget too small for the requested number of rounds")
        return BudgetSchedule(rounds, per_round, tuple(trigger_epochs))


@dataclass(frozen=True)
class SyntheticConfig:
    n_source: int = 400
    n_target: int = 400
    n_eval: int = 300
    clusters_per_domain: int = 3
    feature_dims: Tuple[int, int, int, int, int] = (16, 4, 4, 2, 16)  # C,H,W,C',d_roi
    domain_shift: float = 3.0
    label_noise: float = 0.0
    cluster_skew: float = 0.6
    roi_noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_source, self.n_target, self.n_eval) < 1:
            raise ValueError("dataset sizes must be positive")
        if self.clusters_per_domain < 1:
            raise ValueError("clusters_per_domain must be positive")
        if any(d < 1 for d in self.feature_dims):
            raise ValueError("feature dims must be positive")
        if self.domain_shift < 0:
            raise ValueError("domain_shift must be non-negative")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError("label_noise must lie in [0, 0.5)")
        if not 0.0 < self.cluster_skew <= 1.0:
            raise ValueError("cluster_skew must lie in (0, 1]")
        if self.roi_noise < 0:
            raise ValueError("roi_noise must be non-negative")


@dataclass(frozen=True)
class Score:
    frame_id: str
    value: float


def encode_array(arr: np.ndarray, dtype: str) -> str:
    """Base64 of the array's bytes in ``dtype`` (e.g. little-endian ``<f4``)."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype=dtype).tobytes()).decode("ascii")


def decode_array(blob: str, shape, dtype: str, what: str) -> np.ndarray:
    """Inverse of encode_array; bad base64 or a payload of the wrong length raises ValueError."""
    try:
        raw = base64.b64decode(blob)
    except ValueError as exc:  # binascii.Error included
        raise ValueError("%s is not valid base64 (%s)" % (what, exc))
    expected = np.dtype(dtype).itemsize * math.prod(shape) if shape else 0
    if len(raw) != expected:
        raise ValueError("%s payload is %d bytes, expected %d" % (what, len(raw), expected))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def canonical_json(obj: Any) -> str:
    """Sorted keys, no whitespace: the same value always gives the same bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_ids(path: str, ids: Sequence[str]) -> None:
    """Write one frame id per line."""
    with open(path, "w") as fh:
        fh.write("".join(i + "\n" for i in ids))


class ConfigError(ValueError):
    """A config, checkpoint or run report that does not match its schema; names the path."""


def read_json(path: str, what: str) -> Dict[str, Any]:
    """The JSON object in ``path``, a ``what`` file; anything else raises ``ConfigError``."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON in %s: %s" % (path, exc))
    if not isinstance(d, dict):
        raise ConfigError("%s %s must be a JSON object, got %s" % (what, path, _shown(d)))
    return d


def _shown(value: Any) -> str:
    """``repr(value)``, or its type alone when the repr is long (say, a base64 blob)."""
    text = repr(value)
    return text if len(text) <= 80 else "a %s" % type(value).__name__


def _check_keys(d: Dict[str, Any], allowed, context: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError("unknown %s keys: %s" % (context, ", ".join(unknown)))


def _schema(cls) -> Dict[str, Tuple[Any, bool]]:
    """Each field of dataclass ``cls``: its declared type and whether it has no default."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is MISSING) for f in fields(cls)}


def _typed(value: Any, tp: Any, where: str, readers: Mapping[Any, Callable]) -> Any:
    """``value`` checked against its field type ``tp``; never coerced, ``Any`` unchecked."""
    if tp in readers:
        return readers[tp](value, where)
    if tp is Any:
        return value
    if is_dataclass(tp):
        return _build(tp, value, where, readers)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        return None if value is None else _typed(value, args[0], where, readers)
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError("%s must be a JSON object, got %s" % (where, _shown(value)))
        return {k: _typed(v, args[1], "%s %s" % (where, k), readers) for k, v in value.items()}
    if origin in (tuple, list):
        item, *rest = args
        n = None if origin is list or rest == [Ellipsis] else 1 + len(rest)
        if not isinstance(value, list) or n not in (None, len(value)):
            length = "" if n is None else "%d " % n
            raise ConfigError(
                "%s must be a list of %s%s, got %s" % (where, length, item.__name__, _shown(value))
            )
        return origin(_typed(v, item, "%s[%d]" % (where, i), readers) for i, v in enumerate(value))
    # a float field takes ints; only a bool field takes booleans
    ok = isinstance(value, (int, float) if tp is float else tp)
    if not ok or isinstance(value, bool) != (tp is bool):
        raise ConfigError("%s must be %s, got %s" % (where, tp.__name__, _shown(value)))
    # JSON has no NaN or Infinity, although Python's json module reads both
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError("%s must be a finite number, got %s" % (where, _shown(value)))
    return value


def _build(cls, d: Any, context: str, readers: Mapping[Any, Callable]):
    """``cls(**d)``, each value checked against its field's type (or read by ``readers[type]``)."""
    if not isinstance(d, dict):
        raise ConfigError("%s must be a JSON object, got %s" % (context, _shown(d)))
    schema = _schema(cls)
    _check_keys(d, schema, context)
    for name, (_, required) in schema.items():
        if required and name not in d:
            raise ConfigError("%s requires %s" % (context, name))
    kwargs = {k: _typed(v, schema[k][0], "%s %s" % (context, k), readers) for k, v in d.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError("bad %s: %s" % (context, exc))
