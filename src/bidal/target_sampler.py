"""Diversity-based target selection via a dynamic similarity bank.

Each unlabeled frame is summarized by its confidence-weighted ROI vector.
Frames stream through a bounded set of banks (one per budget slot): until the
cap is reached every frame founds a bank; afterwards a frame either joins its
nearest bank, or — when it is less similar to every prototype than the two
closest prototypes are to each other — triggers a count-weighted merge of the
most similar pair and founds a fresh bank. Finally the highest-domainness
member of each bank is selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import Domain, FrameRecord
from .discriminator import DiscriminatorModel, domainness

NORM_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ReweightedROI:
    """Confidence-weighted sum of a frame's ROI feature vectors."""

    frame_id: str
    vector: np.ndarray


@dataclass(eq=False)
class SimilarityBank:
    """One budget slot: a prototype vector plus its member frame ids."""

    prototype: np.ndarray
    members: List[str]

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(eq=False)
class BankSet:
    banks: List[SimilarityBank]
    capacity: int


@dataclass(frozen=True)
class BankConfig:
    """Knobs for the bank-maintenance variants.

    update_prototype_on_join: running-mean prototype update when a frame joins
    an existing bank (default off: prototypes move only through merges).
    pairwise_compare: aggregate of prototype pairwise similarity used in the
    merge condition; "min" is the default, "max" the sensitivity variant.
    """

    update_prototype_on_join: bool = False
    pairwise_compare: str = "min"

    def __post_init__(self):
        if self.pairwise_compare not in ("min", "max"):
            raise ValueError("pairwise_compare must be 'min' or 'max'")


def reweight(frame: FrameRecord, roi_dim: Optional[int] = None) -> ReweightedROI:
    """Confidence-weighted sum of ROI vectors; zero vector when there are none."""
    rois = np.asarray(frame.roi_features, dtype=np.float64)
    confs = np.asarray(frame.roi_confidences, dtype=np.float64)
    if rois.size == 0:
        if roi_dim is None:
            raise ValueError(
                "frame %r has no ROIs and no roi_dim was configured" % frame.id
            )
        return ReweightedROI(frame.id, np.zeros(roi_dim))
    if rois.ndim != 2 or rois.shape[0] != confs.shape[0]:
        raise ValueError("inconsistent ROI features/confidences in %r" % frame.id)
    if roi_dim is not None and rois.shape[1] != roi_dim:
        raise ValueError("ROI dimension mismatch in %r" % frame.id)
    return ReweightedROI(frame.id, confs @ rois)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with a norm floor: near-zero vectors score 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < NORM_FLOOR or nv < NORM_FLOOR:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def merge_banks(a: SimilarityBank, b: SimilarityBank) -> SimilarityBank:
    """Count-weighted prototype mean; members concatenated a-then-b."""
    if a.prototype.shape != b.prototype.shape:
        raise ValueError("prototype dimension mismatch")
    total = a.count + b.count
    prototype = (a.count * a.prototype + b.count * b.prototype) / total
    return SimilarityBank(prototype=prototype, members=list(a.members) + list(b.members))


def _pair_key(a: SimilarityBank, b: SimilarityBank):
    return tuple(sorted((min(a.members), min(b.members))))


def build_banks(
    rois: Sequence[ReweightedROI],
    capacity: int,
    config: BankConfig = BankConfig(),
) -> BankSet:
    """Stream re-weighted ROI vectors into at most ``capacity`` banks."""
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    banks: List[SimilarityBank] = []
    # prototypes only move on merges (or opt-in joins), so the pairwise
    # similarities are cached between structural changes
    pair_sims: List[tuple] = []
    pairs_stale = True
    for roi in rois:
        vec = np.asarray(roi.vector, dtype=np.float64)
        if len(banks) < capacity:
            banks.append(SimilarityBank(prototype=vec.copy(), members=[roi.frame_id]))
            pairs_stale = True
            continue

        sims = [cosine(vec, b.prototype) for b in banks]
        best = max(sims)
        if pairs_stale:
            pair_sims = [
                (cosine(banks[i].prototype, banks[j].prototype), i, j)
                for i in range(len(banks))
                for j in range(i + 1, len(banks))
            ]
            pairs_stale = False
        if pair_sims:
            agg = (min if config.pairwise_compare == "min" else max)(
                s for s, _, _ in pair_sims
            )
        else:
            agg = None

        if agg is not None and best < agg:
            # merge the most similar pair, then found a bank for the newcomer
            top = max(s for s, _, _ in pair_sims)
            candidates = [(i, j) for s, i, j in pair_sims if s == top]
            i, j = min(candidates, key=lambda ij: _pair_key(banks[ij[0]], banks[ij[1]]))
            merged = merge_banks(banks[i], banks[j])
            banks[i] = merged
            del banks[j]
            banks.append(SimilarityBank(prototype=vec.copy(), members=[roi.frame_id]))
            pairs_stale = True
        else:
            # ties resolve to the earliest bank
            idx = sims.index(best)
            nearest = banks[idx]
            nearest.members.append(roi.frame_id)
            if config.update_prototype_on_join:
                n = nearest.count
                nearest.prototype = ((n - 1) * nearest.prototype + vec) / n
                pairs_stale = True
    return BankSet(banks=banks, capacity=capacity)


def select_targets(banks: BankSet, scores: Dict[str, float]) -> List[str]:
    """Top-domainness member per bank, in bank order; ties go to the smaller id."""
    selected = []
    for bank in banks.banks:
        missing = [m for m in bank.members if m not in scores]
        if missing:
            raise KeyError("missing domainness score for %r" % missing[0])
        selected.append(
            min(bank.members, key=lambda m: (-scores[m], m))
        )
    return selected


def sample_round(
    unlabeled: Sequence[FrameRecord],
    model: DiscriminatorModel,
    budget: int,
    roi_dim: Optional[int] = None,
    config: BankConfig = BankConfig(),
) -> List[str]:
    """One sampling round: reweight, cluster into banks, pick one frame per bank."""
    for f in unlabeled:
        if f.domain != Domain.TARGET:
            raise ValueError("frame %r is not target-tagged" % f.id)
    if not unlabeled:
        return []
    rois = [reweight(f, roi_dim=roi_dim) for f in unlabeled]
    banks = build_banks(rois, budget, config=config)
    scores = {f.id: domainness(model, f).value for f in unlabeled}
    return select_targets(banks, scores)
