"""Diversity-based target selection via a dynamic similarity bank.

Each unlabeled frame is summarized by its confidence-weighted ROI vector.
Frames stream through a bounded set of banks (one per budget slot): until the
cap is reached every frame founds a bank; afterwards a frame either joins its
nearest bank, or — when it is less similar to every prototype than the two
closest prototypes are to each other — triggers a count-weighted merge of the
most similar pair and founds a fresh bank. Finally the highest-domainness
member of each bank is selected. ``sample_round`` re-weights each frame and
scores the whole pool in one batched pass
(``discriminator.domainness``); its sibling ``_sample_round`` takes
both as functions, so a caller that keeps ROI vectors and scores across
rounds (``pipeline.run_bidomain``) runs the same code path.

The bank is incremental: the prototypes sit as rows of a (cap, d) matrix with
their norms, beside a cap x cap matrix of pair cosines whose aggregates (the
min, the max and the pairs tied at the max) are cached. After the fill phase
the stream is scored a block of frames at a time: one pass of
``_Prototypes.cosine_rows`` gives each frame's cosine with every row, and the
block's per-row ``argmax`` is walked in stream order. Frames join their
nearest bank up to the first one below the pair aggregate, which triggers the
merge; the rest of the block is scored again. The block grows while no merge
comes and starts small again after one, so a join costs a share of an
O(block*cap*d) pass rather than an O(cap*d) pass of its own. A merge drops the
absorbed bank's row and column, and a merge or a join with
``update_prototype_on_join`` (whose blocks are one row) rewrites one row and
column in O(cap*d); either then refreshes the aggregates in O(cap^2). The pair
matrix, the stream's blocks and single rows all go through ``cosine_rows``.
Similarities follow ``cosine``'s norm floor, but are elementwise products
summed per row rather than BLAS products, so identical prototypes score the
same wherever they sit, a frame scores the same in any block, and exact ties
break as they always have. The stream's vectors are stacked and checked for
finiteness once; a NaN would otherwise win every ``argmax`` and lose every
merge comparison, so ``build_banks`` raises ``ValueError`` naming its frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Literal, Optional, Sequence

import numpy as np

from .core import Checked, Domain, FrameRecord, _check_finite
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


@dataclass(frozen=True)
class BankConfig(Checked):
    """Knobs for the bank-maintenance variants.

    update_prototype_on_join: running-mean prototype update when a frame joins
    an existing bank (default off: prototypes move only through merges).
    pairwise_compare: aggregate of prototype pairwise similarity used in the
    merge condition; "min" is the default, "max" the sensitivity variant.
    """

    update_prototype_on_join: bool = False
    pairwise_compare: Literal["min", "max"] = "min"


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
    return _cosine(u, v, np.linalg.norm(u), np.linalg.norm(v))


def _cosine(u: np.ndarray, v: np.ndarray, nu: float, nv: float) -> float:
    """``cosine`` of two float64 vectors of one shape whose norms are ``nu`` and ``nv``."""
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


_BLOCK_START = 4
_BLOCK_BYTES = 2 << 20


def _block_rows(capacity: int, dim: int) -> int:
    """Most stream rows scored in one pass: their (rows, capacity, dim) product
    temporary stays within ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * capacity * max(dim, 1)))


class _Prototypes:
    """Prototype rows in bank order, their norms, and the pair-cosine matrix
    with its cached aggregates; built from the founding rows once the fill
    phase is over, after which the bank count stays at its cap."""

    def __init__(self, rows: np.ndarray, norms: np.ndarray):
        self.rows, self.norms, self.size = rows.copy(), norms.copy(), len(rows)
        n = self.size
        self.pairs = np.empty((n, n))
        step = _block_rows(n, rows.shape[1])
        for k in range(0, n, step):
            self.pairs[k : k + step] = self.cosine_rows(rows[k : k + step], norms[k : k + step])
        self._upper = np.triu_indices(n, 1)
        self.refresh()

    def cosine_rows(self, vecs: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """Cosine of each row of ``vecs`` (norms ``norms``) with every prototype,
        under ``cosine``'s norm floor: a (len(vecs), size) matrix."""
        rows, own = self.rows[: self.size], self.norms[: self.size]
        sims = np.zeros((len(vecs), self.size))
        # not BLAS ``vecs @ rows.T``: each product row is summed on its own, so
        # identical rows score bit-identically wherever they sit
        np.divide(
            (vecs[:, None, :] * rows).sum(axis=-1), norms[:, None] * own, out=sims,
            where=~(norms < NORM_FLOOR)[:, None] & ~(own < NORM_FLOOR),
        )
        return sims

    def cosines(self, vec: np.ndarray) -> np.ndarray:
        """Cosine of ``vec`` with every row: the one-row case of ``cosine_rows``."""
        return self.cosine_rows(vec[None], _norms(vec)[None])[0]

    def append(self, vec: np.ndarray) -> None:
        self.size += 1
        self.set(self.size - 1, vec)

    def set(self, k: int, vec: np.ndarray) -> None:
        n = self.size
        self.rows[k] = vec
        self.norms[k] = _norms(vec)
        self.pairs[k, :n] = self.pairs[:n, k] = self.cosines(vec)

    def delete(self, j: int) -> None:
        n = self.size
        self.rows[j : n - 1] = self.rows[j + 1 : n]
        self.norms[j : n - 1] = self.norms[j + 1 : n]
        self.pairs[j : n - 1, :n] = self.pairs[j + 1 : n, :n]
        self.pairs[:n, j : n - 1] = self.pairs[:n, j + 1 : n]
        self.size -= 1

    def refresh(self) -> None:
        """Recompute the pair aggregates after a prototype moved."""
        sims = self.pairs[self._upper]
        if not sims.size:
            self.pair_min = self.pair_max = None
            return
        self.pair_min, self.pair_max = sims.min(), sims.max()
        tied = np.flatnonzero(sims == self.pair_max)
        self.top_pairs = list(zip(self._upper[0][tied].tolist(), self._upper[1][tied].tolist()))


def _stacked(rois: Sequence[ReweightedROI]) -> np.ndarray:
    """The stream's vectors as the rows of one (n, d) finite matrix; the first
    bad vector in stream order raises."""
    vecs = [np.asarray(roi.vector, dtype=np.float64) for roi in rois]
    if not vecs:
        return np.empty((0, 0))
    if vecs[0].ndim != 1:
        raise ValueError("ROI vectors must be one-dimensional")
    if any(vec.shape != vecs[0].shape for vec in vecs):
        raise ValueError("dimension mismatch")
    stacked = np.array(vecs)
    _check_finite(stacked, lambda i: rois[i].frame_id, "ROI vector")
    return stacked


def build_banks(
    rois: Sequence[ReweightedROI],
    capacity: int,
    config: BankConfig = BankConfig(),
) -> BankSet:
    """Stream re-weighted ROI vectors into at most ``capacity`` banks.

    Past the fill phase the stream is scored a block of frames per
    O(block*cap*d) pass over the prototype rows. The frames before the
    block's first merge join their banks; the rest of the block is scored
    again against the prototypes the merge left. The block starts at
    ``_BLOCK_START`` rows, doubles after each block without a merge up to
    ``_block_rows``, and starts over after a merge; with
    ``update_prototype_on_join`` every join moves a prototype, so a block is
    one row. A merge or a prototype-moving join costs O(cap*d) to rewrite one
    row and column of the pair matrix plus an O(cap^2) aggregate refresh.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    vecs = _stacked(rois)
    ids = [roi.frame_id for roi in rois]
    fill = min(capacity, len(ids))
    banks = [SimilarityBank(prototype=vecs[k].copy(), members=[ids[k]]) for k in range(fill)]
    if len(ids) == fill:
        return BankSet(banks=banks)

    norms = _norms(vecs)
    protos = _Prototypes(vecs[:fill], norms[:fill])
    most = 1 if config.update_prototype_on_join else _block_rows(capacity, vecs.shape[1])
    t, block = fill, min(_BLOCK_START, most)
    while t < len(ids):
        end = min(t + block, len(ids))
        sims = protos.cosine_rows(vecs[t:end], norms[t:end])
        agg = protos.pair_min if config.pairwise_compare == "min" else protos.pair_max
        below = [] if agg is None else np.flatnonzero(sims.max(axis=1) < agg)
        joins = int(below[0]) if len(below) else end - t
        # ties resolve to the earliest bank
        for k, idx in enumerate(sims[:joins].argmax(axis=1).tolist(), start=t):
            nearest = banks[idx]
            nearest.members.append(ids[k])
            if config.update_prototype_on_join:
                n = nearest.count
                nearest.prototype = ((n - 1) * nearest.prototype + vecs[k]) / n
                protos.set(idx, nearest.prototype)
                protos.refresh()
        t += joins
        if t == end:
            block = min(2 * block, most)
            continue
        # merge the most similar pair, then found a bank for the newcomer
        i, j = min(protos.top_pairs, key=lambda ij: _pair_key(banks[ij[0]], banks[ij[1]]))
        banks[i] = merge_banks(banks[i], banks[j])
        del banks[j]
        banks.append(SimilarityBank(prototype=vecs[t].copy(), members=[ids[t]]))
        protos.delete(j)
        protos.set(i, banks[i].prototype)
        protos.append(vecs[t])
        protos.refresh()
        t, block = t + 1, min(_BLOCK_START, most)
    return BankSet(banks=banks)


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
        lambda frames: domainness(model, frames).tolist(),
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
