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
number, and a fault raises ``ConfigError`` naming the value's path. A field
declares its bound once, in its type: a ``Range`` (``PosInt``, ``NonNegInt``),
a ``Literal`` or ``NonEmpty``. Each type's walk is compiled once, into a check
closure (``_compile``). A config (a ``Checked`` dataclass) runs the same
checks on its fields that hold no other config when it is built, in the
walk's words less the location: ``seed must be at least 0, got -1``.
"""

from __future__ import annotations

import base64
import binascii
import functools
import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from typing import (Annotated, Any, Callable, Dict, Literal, Mapping, Sequence, Tuple, Union,
                    get_args, get_origin, get_type_hints)

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


def _check_unique_ids(frames: Sequence[FrameRecord], where: str) -> None:
    """Raise ``ValueError`` naming the ids (the first five, sorted) that two
    frames of ``frames`` share."""
    repeated = sorted(i for i, n in Counter(f.id for f in frames).items() if n > 1)
    if repeated:
        raise ValueError("frame ids must be unique %s; repeated: %r" % (where, repeated[:5]))


def _check_finite(rows: np.ndarray, id_of: Callable[[int], str], what: str) -> None:
    """Raise ``ValueError`` naming ``id_of(i)`` for the first row i of ``rows`` that
    holds a NaN or an infinity; a pool's scores and banks rest on finite rows."""
    finite = np.isfinite(rows)
    if not finite.all():
        first = int(np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))[0])
        raise ValueError("frame %s has a non-finite %s" % (id_of(first), what))


@dataclass(frozen=True)
class Range:
    """A number field's bound, declared in its type: ``Annotated[float, Range(gt=0, le=1)]``."""

    ge: Any = None
    gt: Any = None
    le: Any = None
    lt: Any = None

    def holds(self, value) -> bool:
        return not ((self.ge is not None and value < self.ge)
                    or (self.gt is not None and value <= self.gt)
                    or (self.le is not None and value > self.le)
                    or (self.lt is not None and value >= self.lt))

    def __str__(self) -> str:
        limits = zip(("at least", "greater than", "at most", "less than"),
                     (self.ge, self.gt, self.le, self.lt))
        return " and ".join("%s %s" % (words, v) for words, v in limits if v is not None)


class NonEmpty:
    """A list field's bound, declared in its type: ``Annotated[Tuple[int, ...], NonEmpty()]``."""

    def holds(self, value) -> bool:
        return len(value) > 0

    def __str__(self) -> str:
        return "non-empty"


PosInt = Annotated[int, Range(ge=1)]
NonNegInt = Annotated[int, Range(ge=0)]


class Checked:
    """A dataclass whose constructor checks each field that holds no other dataclass, as the
    schema walk checks it: a Python or numpy integer is stored as an int, a sequence of a
    tuple field as a tuple, and a fault raises ``ConfigError`` naming the field."""

    def __post_init__(self):
        for name, check in _leaf_checks(type(self)).items():
            object.__setattr__(self, name, check(getattr(self, name), name, None))


@dataclass(frozen=True)
class BudgetSchedule(Checked):
    """Per-round annotation budgets and the pipeline epochs that trigger them."""

    rounds: NonNegInt
    per_round: Tuple[PosInt, ...]
    trigger_epochs: Tuple[NonNegInt, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.per_round) != self.rounds:
            raise ValueError("per_round length must equal rounds")
        if len(self.trigger_epochs) != self.rounds:
            raise ValueError("trigger_epochs length must equal rounds")
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
class SyntheticConfig(Checked):
    n_source: PosInt = 400
    n_target: PosInt = 400
    n_eval: PosInt = 300
    clusters_per_domain: PosInt = 3
    # C, H, W, C', d_roi
    feature_dims: Tuple[PosInt, PosInt, PosInt, PosInt, PosInt] = (16, 4, 4, 2, 16)
    domain_shift: Annotated[float, Range(ge=0)] = 3.0
    label_noise: Annotated[float, Range(ge=0, lt=0.5)] = 0.0
    cluster_skew: Annotated[float, Range(gt=0, le=1)] = 0.6
    roi_noise: Annotated[float, Range(ge=0)] = 0.5
    seed: NonNegInt = 0


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
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name], f.default if f.default_factory is MISSING
                  else f.default_factory()) for f in fields(cls))


def _base(tp: Any) -> Any:
    """``tp`` without its bound."""
    return get_args(tp)[0] if get_origin(tp) is Annotated else tp


def _is_leaf(tp: Any) -> bool:
    """Whether a value of type ``tp`` holds no dataclass."""
    return not (isinstance(tp, type) and is_dataclass(tp)) and all(map(_is_leaf, get_args(tp)))


@functools.lru_cache(maxsize=None)
def _leaf_checks(cls) -> Dict[str, Callable]:
    """The walk's check of each field of dataclass ``cls`` that holds no dataclass."""
    return {name: _compile(tp, ()) for name, tp, _ in _schema(cls) if _is_leaf(tp)}


def _checked(cls, name: str, value: Any) -> Any:
    """``value`` as the walk checks field ``name`` of dataclass ``cls``; a fault names ``name``."""
    return _leaf_checks(cls)[name](value, name, None)


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
    if origin is Annotated:  # a Range or NonEmpty bound on the checked value
        inner, bound = _compile(args[0], readers), args[1]
        expected = str(bound)

        def check_bound(value, loc, key):
            checked = inner(value, loc, key)
            if not bound.holds(checked):
                _fail(loc, key, expected, value)
            return checked

        return check_bound
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
        expected = "a list of %s%s" % ("" if n is None else "%d " % n, _base(item_tp).__name__)

        def check_list(value, loc, key):  # a constructor's tuple or array, too
            if not isinstance(value, (list, tuple, np.ndarray)) or n not in (None, len(value)):
                _fail(loc, key, expected, value)
            here = (loc, key)
            items = [item(v, here, i) for i, v in enumerate(value)]
            return items if origin is list else tuple(items)

        return check_list
    if origin is Literal or issubclass(tp, Enum):  # a choice; an Enum member's value gives it
        members = dict(zip(args, args)) if origin is Literal else {m.value: m for m in tp}

        def check_enum(value, loc, key):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an unhashable list or object
                _fail(loc, key, " or ".join(map(repr, members)), value)

        return check_enum
    # a float field takes ints, an int field numpy integers; only a bool field takes booleans
    accepted = (int, float) if tp is float else (int, np.integer) if tp is int else tp
    exact = None if tp is float else tp  # a JSON value of this type needs no further check

    def check(value, loc, key):
        if type(value) is exact:
            return value
        if not isinstance(value, accepted) or isinstance(value, bool) != (tp is bool):
            _fail(loc, key, tp.__name__, value)
        # JSON has no NaN or Infinity, although Python's json module reads both
        if isinstance(value, float) and not math.isfinite(value):
            _fail(loc, key, "a finite number", value)
        return int(value) if tp is int else value

    return check
