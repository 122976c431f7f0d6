"""Core domain types shared by every module.

A FrameRecord is one scene's pre-digested detector output: a dense BEV-style
feature map, a per-anchor objectness map, and a list of ROI feature vectors
with confidences. Samplers never look at ``hidden_label``; it exists so the
simulator can play the role of the human annotator.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence, Tuple

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
        errors.append("objectness out of [0,1]")
    if not np.all(np.isfinite(fm)):
        errors.append("feature_map contains non-finite values")
    rois = np.asarray(frame.roi_features)
    confs = np.asarray(frame.roi_confidences)
    if rois.ndim != 2 and rois.size:
        errors.append("roi_features must have shape (k, d_roi)")
    k = rois.shape[0] if rois.ndim == 2 else 0
    n_conf = confs.shape[0] if confs.ndim == 1 else confs.size
    if k != n_conf:
        errors.append("roi length mismatch")
    if not np.all(np.isfinite(rois)):
        errors.append("roi_features contains non-finite values")
    if not np.all((confs >= 0.0) & (confs <= 1.0)):
        errors.append("roi confidence out of [0,1]")
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
class PipelineState:
    """Immutable labeled-pool bookkeeping; updates produce new values."""

    selected_source: Tuple[str, ...] = ()
    labeled_target: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "selected_source", tuple(self.selected_source))
        object.__setattr__(self, "labeled_target", tuple(self.labeled_target))
        if len(set(self.labeled_target)) != len(self.labeled_target):
            raise ValueError("labeled_target contains duplicate ids")
        if set(self.selected_source) & set(self.labeled_target):
            raise ValueError("selected_source and labeled_target must be disjoint")


@dataclass(frozen=True)
class Score:
    frame_id: str
    value: float


def encode_array(arr: np.ndarray, dtype: str) -> str:
    """Base64 of the array's bytes in ``dtype`` (e.g. little-endian ``<f4``)."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype=dtype).tobytes()).decode("ascii")


def decode_array(blob: str, shape, dtype: str, what: str) -> np.ndarray:
    """Inverse of encode_array; a payload of the wrong length raises ValueError."""
    raw = base64.b64decode(blob)
    expected = np.dtype(dtype).itemsize * int(np.prod(shape)) if shape else 0
    if len(raw) != expected:
        raise ValueError("%s payload is %d bytes, expected %d" % (what, len(raw), expected))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
