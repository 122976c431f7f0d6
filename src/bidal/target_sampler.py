"""Diversity-based target selection via a dynamic similarity bank.

Each unlabeled frame is summarized by its confidence-weighted ROI vector.
Frames stream through a bounded set of banks (one per budget slot): until the
cap is reached every frame founds a bank; afterwards a frame either joins its
nearest bank, or — when it is less similar to every prototype than the two
closest prototypes are to each other — triggers a count-weighted merge of the
most similar pair and founds a fresh bank. Finally the highest-domainness
member of each bank is selected. ``sample_round`` re-weights each frame and
scores the whole pool in one batched pass
(``discriminator._domainness_values``); its sibling ``_sample_round`` takes
both as functions, so a caller that keeps ROI vectors and scores across
rounds (``pipeline.run_bidomain``) runs the same code path.

The bank is incremental: the prototypes sit as rows of a (cap, d) matrix with
their norms, beside a cap x cap matrix of pair cosines whose aggregates (the
min, the max and the pairs tied at the max) are cached. Each frame after the
fill phase costs one O(cap*d) row pass and an ``argmax``. A merge drops the
absorbed bank's row and column, and a merge or a join with
``update_prototype_on_join`` rewrites one row and column in O(cap*d); either
then refreshes the aggregates in O(cap^2). Similarities follow ``cosine``'s norm
floor, but are elementwise products summed per row rather than BLAS products,
so identical prototypes score the same wherever they sit and exact ties break
as they always have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .core import Domain, FrameRecord
from .discriminator import DiscriminatorModel, _domainness_values

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


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=-1))


class _Prototypes:
    """Prototype rows in bank order, their norms and, after the fill phase,
    the pair-cosine matrix with its cached aggregates."""

    def __init__(self, capacity: int, dim: int):
        self.rows = np.empty((capacity, dim))
        self.norms = np.empty(capacity)
        self.size = 0
        self.pairs: Optional[np.ndarray] = None

    def cosines(self, vec: np.ndarray) -> np.ndarray:
        """Cosine of ``vec`` with every row, under ``cosine``'s norm floor."""
        rows, norms = self.rows[: self.size], self.norms[: self.size]
        sims = np.zeros(self.size)
        norm = _norms(vec)
        if not norm < NORM_FLOOR:
            # not BLAS ``rows @ vec``: each row is summed on its own, so
            # identical rows score bit-identically wherever they sit
            np.divide(
                (rows * vec).sum(axis=-1), norms * norm, out=sims,
                where=~(norms < NORM_FLOOR),
            )
        return sims

    def append(self, vec: np.ndarray) -> None:
        self.size += 1
        self.set(self.size - 1, vec)

    def set(self, k: int, vec: np.ndarray) -> None:
        self.rows[k] = vec
        self.norms[k] = _norms(vec)
        if self.pairs is not None:
            n = self.size
            self.pairs[k, :n] = self.pairs[:n, k] = self.cosines(vec)

    def delete(self, j: int) -> None:
        n = self.size
        self.rows[j : n - 1] = self.rows[j + 1 : n]
        self.norms[j : n - 1] = self.norms[j + 1 : n]
        if self.pairs is not None:
            self.pairs[j : n - 1, :n] = self.pairs[j + 1 : n, :n]
            self.pairs[:n, j : n - 1] = self.pairs[:n, j + 1 : n]
        self.size -= 1

    def start_pairs(self) -> None:
        """Fill the pair matrix; the bank count stays at its cap from here on."""
        n = self.size
        self.pairs = np.empty((n, n))
        for k in range(n):
            self.pairs[k] = self.cosines(self.rows[k])
        self._upper = np.triu_indices(n, 1)
        self.refresh()

    def refresh(self) -> None:
        """Recompute the pair aggregates after a prototype moved."""
        sims = self.pairs[self._upper]
        if not sims.size:
            self.pair_min = self.pair_max = None
            return
        self.pair_min, self.pair_max = sims.min(), sims.max()
        tied = np.flatnonzero(sims == self.pair_max)
        self.top_pairs = list(zip(self._upper[0][tied].tolist(), self._upper[1][tied].tolist()))


def build_banks(
    rois: Sequence[ReweightedROI],
    capacity: int,
    config: BankConfig = BankConfig(),
) -> BankSet:
    """Stream re-weighted ROI vectors into at most ``capacity`` banks.

    Each frame past the fill phase costs one O(cap*d) pass over the prototype
    rows; a merge or a prototype-moving join costs O(cap*d) to rewrite one row
    and column of the pair matrix plus an O(cap^2) aggregate refresh.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    banks: List[SimilarityBank] = []
    protos: Optional[_Prototypes] = None
    for roi in rois:
        vec = np.asarray(roi.vector, dtype=np.float64)
        if protos is None:
            if vec.ndim != 1:
                raise ValueError("ROI vectors must be one-dimensional")
            protos = _Prototypes(min(capacity, len(rois)), vec.shape[0])
        elif vec.shape != protos.rows.shape[1:]:
            raise ValueError("dimension mismatch")
        if len(banks) < capacity:
            banks.append(SimilarityBank(prototype=vec.copy(), members=[roi.frame_id]))
            protos.append(vec)
            continue

        if protos.pairs is None:
            protos.start_pairs()
        sims = protos.cosines(vec)
        idx = int(np.argmax(sims))  # ties resolve to the earliest bank
        agg = protos.pair_min if config.pairwise_compare == "min" else protos.pair_max
        if agg is not None and sims[idx] < agg:
            # merge the most similar pair, then found a bank for the newcomer
            i, j = min(protos.top_pairs, key=lambda ij: _pair_key(banks[ij[0]], banks[ij[1]]))
            banks[i] = merge_banks(banks[i], banks[j])
            del banks[j]
            banks.append(SimilarityBank(prototype=vec.copy(), members=[roi.frame_id]))
            protos.delete(j)
            protos.set(i, banks[i].prototype)
            protos.append(vec)
            protos.refresh()
        else:
            nearest = banks[idx]
            nearest.members.append(roi.frame_id)
            if config.update_prototype_on_join:
                n = nearest.count
                nearest.prototype = ((n - 1) * nearest.prototype + vec) / n
                protos.set(idx, nearest.prototype)
                protos.refresh()
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
    return _sample_round(
        unlabeled,
        lambda f: reweight(f, roi_dim=roi_dim),
        lambda frames: _domainness_values(model, frames).tolist(),
        budget,
        config,
    )


def _sample_round(
    unlabeled: Sequence[FrameRecord],
    rois: Callable[[FrameRecord], ReweightedROI],
    values: Callable[[Sequence[FrameRecord]], Sequence[float]],
    budget: int,
    config: BankConfig,
) -> List[str]:
    """``sample_round`` with a frame's re-weighted ROIs given by ``rois`` and the
    pool's domainness values, in order, by ``values``."""
    for f in unlabeled:
        if f.domain != Domain.TARGET:
            raise ValueError("frame %r is not target-tagged" % f.id)
    if not unlabeled:
        return []
    banks = build_banks([rois(f) for f in unlabeled], budget, config=config)
    return select_targets(banks, dict(zip([f.id for f in unlabeled], values(unlabeled))))
