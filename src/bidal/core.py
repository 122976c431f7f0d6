"""Core domain types shared by every module.

A FrameRecord is one scene's pre-digested detector output: a dense BEV-style
feature map, a per-anchor objectness map, and a list of ROI feature vectors
with confidences. Samplers never look at ``hidden_label``; it exists so the
simulator can play the role of the human annotator.

Each on-disk text format has one writer here: ``canonical_json`` (reports,
summaries, checkpoints and frame records, given as dataclasses or plain
values) and ``write_ids`` (id-list files).

Configs, checkpoints, run reports, bench summaries and frame records are read
by one schema walk, ``_build``: each value of a JSON object is checked against
its dataclass field's declared type, with no coercion and no non-finite
number, and a fault raises ``ConfigError`` naming the value's path. Each
type's walk is compiled once, into a check closure (``_compile``). A Python
caller's ``SyntheticConfig`` and ``TrainConfig`` reject a NaN or infinite
float field in the walk's words (``_require_finite``).
"""

from __future__ import annotations

import base64
import binascii
import functools
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
    if not ((om >= 0.0) & (om <= 1.0)).all():
        errors.append("objectness_map out of [0,1]")
    if not np.isfinite(fm).all():
        errors.append("feature_map contains non-finite values")
    rois = np.asarray(frame.roi_features)
    confs = np.asarray(frame.roi_confidences)
    if rois.ndim != 2 and rois.size:
        errors.append("roi_features must have shape (k, d_roi)")
    k = rois.shape[0] if rois.ndim == 2 else 0
    n_conf = confs.shape[0] if confs.ndim == 1 else confs.size
    if k != n_conf:
        errors.append("roi_features and roi_confidences length mismatch")
    if not np.isfinite(rois).all():
        errors.append("roi_features contains non-finite values")
    if not ((confs >= 0.0) & (confs <= 1.0)).all():
        errors.append("roi_confidences out of [0,1]")
    if not frame.id:
        errors.append("frame id is empty")
    return errors


def _check_finite(rows: np.ndarray, id_of: Callable[[int], str], what: str) -> None:
    """Raise ``ValueError`` naming ``id_of(i)`` for the first row i of ``rows`` that
    holds a NaN or an infinity; a pool's scores and banks rest on finite rows."""
    finite = np.isfinite(rows)
    if not finite.all():
        first = int(np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))[0])
        raise ValueError("frame %s has a non-finite %s" % (id_of(first), what))


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


def _require_finite(cfg: Any, *names: str) -> None:
    """Raise ``ValueError`` for the first float field of ``cfg`` in ``names`` that is NaN
    or infinite, in the words of the file walk."""
    for name in names:
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ValueError("%s must be a finite number, got %s" % (name, _shown(value)))


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
        _require_finite(self, "domain_shift", "roi_noise")
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
        raw = binascii.a2b_base64(blob)  # base64.b64decode without its wrapper's copy
    except ValueError as exc:  # binascii.Error included
        raise ValueError("%s is not valid base64 (%s)" % (what, exc))
    expected = np.dtype(dtype).itemsize * math.prod(shape) if shape else 0
    if len(raw) != expected:
        raise ValueError("%s payload is %d bytes, expected %d" % (what, len(raw), expected))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def canonical_json(obj: Any) -> str:
    """Sorted keys, no whitespace: the same value always gives the same bytes. A dataclass
    is the object of its fields, less those at the top level still at their defaults."""
    if is_dataclass(obj):
        obj = {name: getattr(obj, name) for name, _, default in _schema(type(obj))
               if default is MISSING or getattr(obj, name) != default}
    # ``vars`` of a nested dataclass is the object of its fields
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=vars)


def write_ids(path: str, ids: Sequence[str]) -> None:
    """Write one frame id per line."""
    with open(path, "w") as fh:
        fh.write("".join(i + "\n" for i in ids))


class ConfigError(ValueError):
    """A config, checkpoint, report or frame record not matching its schema; names the path."""


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


def _where(loc: Any, key: Any = None) -> str:
    """The path of ``key`` (a name or list index; None for ``loc`` itself) in ``loc``, a
    context string or the ``(loc, key)`` pair of the value that holds it."""
    path = _where(*loc) if type(loc) is tuple else loc
    return path if key is None else path + ("[%d]" % key if type(key) is int else " " + key)


def _fail(loc: Any, key: Any, expected: str, value: Any):
    raise ConfigError("%s must be %s, got %s" % (_where(loc, key), expected, _shown(value)))


def _check_keys(d: Dict[str, Any], allowed, loc: Any, key: Any = None) -> None:
    if not d.keys() <= allowed:
        unknown = sorted(d.keys() - allowed)
        raise ConfigError("unknown %s keys: %s" % (_where(loc, key), ", ".join(unknown)))


@functools.lru_cache(maxsize=None)
def _schema(cls) -> Tuple[Tuple[str, Any, Any], ...]:
    """Each field of dataclass ``cls``: name, declared type and default (``MISSING`` if none)."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default if f.default_factory is MISSING
                  else f.default_factory()) for f in fields(cls))


def _build(cls, d: Any, context: str, readers: Mapping[Any, Callable]):
    """``d`` read as a ``cls``: ``readers[cls](d, context)`` if there is one, else ``cls(**d)``
    with each value checked against its field's type (or read by ``readers[type]``)."""
    return _compile(cls, tuple(readers.items()))(d, context, None)


@functools.lru_cache(maxsize=None)
def _compile(tp: Any, readers: Tuple[Tuple[Any, Callable], ...]) -> Callable:
    """The check of a ``tp`` value, ``check(value, loc, key)``: the value at ``key`` in ``loc``
    (see ``_where``), never coerced (``Any`` is not checked), or a ``ConfigError`` naming it."""
    reader = dict(readers).get(tp)
    if reader is not None:
        return lambda value, loc, key: reader(value, _where(loc, key))
    if tp is Any:
        return lambda value, loc, key: value
    if is_dataclass(tp):
        schema = _schema(tp)
        checks = {name: _compile(field_tp, readers) for name, field_tp, _ in schema}
        required = frozenset(name for name, _, default in schema if default is MISSING)

        def build(d, loc, key):
            if not isinstance(d, dict):
                _fail(loc, key, "a JSON object", d)
            _check_keys(d, checks.keys(), loc, key)
            if not d.keys() >= required:
                missing = next(name for name in checks if name in required and name not in d)
                raise ConfigError("%s requires %s" % (_where(loc, key), missing))
            here = (loc, key)
            kwargs = {k: checks[k](v, here, k) for k, v in d.items()}
            try:
                return tp(**kwargs)
            except ValueError as exc:
                raise ConfigError("bad %s: %s" % (_where(loc, key), exc))

        return build
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        inner = _compile(args[0], readers)
        return lambda value, loc, key: None if value is None else inner(value, loc, key)
    if origin is dict:
        item = _compile(args[1], readers)

        def check_dict(value, loc, key):
            if not isinstance(value, dict):
                _fail(loc, key, "a JSON object", value)
            here = (loc, key)
            return {k: item(v, here, k) for k, v in value.items()}

        return check_dict
    if origin in (tuple, list):
        item_tp, *rest = args
        item = _compile(item_tp, readers)
        n = None if origin is list or rest == [Ellipsis] else 1 + len(rest)
        expected = "a list of %s%s" % ("" if n is None else "%d " % n, item_tp.__name__)

        def check_list(value, loc, key):
            if not isinstance(value, list) or n not in (None, len(value)):
                _fail(loc, key, expected, value)
            here = (loc, key)
            items = [item(v, here, i) for i, v in enumerate(value)]
            return items if origin is list else tuple(items)

        return check_list
    if issubclass(tp, Enum):  # a member's value gives the member
        members = {m.value: m for m in tp}

        def check_enum(value, loc, key):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an unhashable list or object
                _fail(loc, key, " or ".join(map(repr, members)), value)

        return check_enum
    # a float field takes ints; only a bool field takes booleans
    accepted = (int, float) if tp is float else tp
    exact = None if tp is float else tp  # a JSON value of this type needs no further check

    def check(value, loc, key):
        if type(value) is exact:
            return value
        if not isinstance(value, accepted) or isinstance(value, bool) != (tp is bool):
            _fail(loc, key, tp.__name__, value)
        # JSON has no NaN or Infinity, although Python's json module reads both
        if isinstance(value, float) and not math.isfinite(value):
            _fail(loc, key, "a finite number", value)
        return value

    return check
