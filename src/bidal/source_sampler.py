"""Domainness-aware source selection.

Scores the whole source pool with the discriminator in one batched pass
(``discriminator.domainness``) and keeps the most target-domain-like
frames, either by proportion, score threshold (expressed on the logit scale),
or a fixed top-k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

from .core import Domain, FrameRecord, Score
from .discriminator import DiscriminatorModel, domainness


@dataclass(frozen=True)
class Proportion:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("proportion must lie in (0,1]")


@dataclass(frozen=True)
class Threshold:
    """Keep frames whose domainness logit exceeds this value (0 means s > 0.5)."""

    logit: float = 0.0


@dataclass(frozen=True)
class TopK:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")


SourceSelectionMode = Union[Proportion, Threshold, TopK]


def score_source(
    frames: Sequence[FrameRecord], model: DiscriminatorModel
) -> List[Score]:
    """Domainness score per source frame, order-aligned with the input."""
    for f in frames:
        if f.domain != Domain.SOURCE:
            raise ValueError("frame %r is not source-tagged" % f.id)
    values = domainness(model, frames).tolist()
    return [Score(frame_id=f.id, value=v) for f, v in zip(frames, values)]


def _logit(value: float) -> float:
    return math.log(value / (1.0 - value))


def select_source(
    scores: Sequence[Score], mode: SourceSelectionMode
) -> List[str]:
    """Stable descending sort by score (ties by ascending id), then truncate."""
    ranked = sorted(scores, key=lambda s: (-s.value, s.frame_id))
    if isinstance(mode, Threshold):
        return [s.frame_id for s in ranked if _logit(s.value) > mode.logit]
    if not ranked:
        raise ValueError("scores must be non-empty for Proportion/TopK modes")
    if isinstance(mode, Proportion):
        n = math.ceil(mode.p * len(ranked))
    elif isinstance(mode, TopK):
        n = min(mode.k, len(ranked))
    else:
        raise TypeError("unknown selection mode: %r" % (mode,))
    return [s.frame_id for s in ranked[:n]]
