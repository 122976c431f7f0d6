"""Diversity-based target selection via a dynamic similarity bank.

Each unlabeled frame is summarized by its confidence-weighted ROI vector.
Frames stream through a bounded set of banks (one per budget slot): until the
cap is reached every frame founds a bank; afterwards a frame either joins its
nearest bank, or — when it is less similar to every prototype than the two
closest prototypes are to each other — triggers a count-weighted merge of the
most similar pair and founds a fresh bank. Finally the highest-domainness
member of each bank is selected. ``sample_round`` re-weights the pool and
scores it, each in one pass (``reweight``, ``discriminator.domainness``);
its sibling ``_sample_round`` takes both as pool functions, so a caller that
keeps ROI vectors and scores across rounds (``pipeline.run_bidomain``) runs
the same code path. A pool that repeats an id raises ``ValueError``.

``reweight`` is the one re-weighting function: it gives a pool's vectors as
the rows of one (n, d) matrix, which ``build_banks`` takes with the frames'
ids. It groups the frames by ROI shape (k, d) and takes one stacked
``(m, 1, k) @ (m, k, d)`` product per group: the BLAS gemv that one frame's
``confs @ rois`` makes, so each row keeps its bytes. The first malformed
frame in pool order raises, and then the first non-finite row, so a pool
with a NaN row before a frame of the wrong ROI width names the width.

The bank is incremental: the prototypes sit as the columns of a (d, cap)
matrix with their norms, beside a cap x cap matrix of pair cosines whose
aggregate (the min or the max, as the config compares) is cached. After the
fill phase the stream is scored a block of frames at a time: one pass of
``_Prototypes.cosine_rows`` gives each frame's cosine with every prototype,
and the block's per-row ``argmax`` is walked in stream order. Frames join
their nearest bank up to the first one below the pair aggregate, which
triggers the merge; the rest of the block is scored again. The block grows
while no merge comes and starts small again after one, so a join costs a
share of an O(block*cap*d) pass rather than an O(cap*d) pass of its own. A
merge drops the absorbed bank's row and column and scores the merged
prototype and the newcomer in one two-row pass; a join with
``update_prototype_on_join`` (whose blocks are one row) rewrites one row and
column. Either then refreshes the aggregate in O(cap^2); the pairs tied at the
max are found only at a merge. The pair matrix, the stream's blocks and
single rows all go through ``cosine_rows``.

Similarities follow ``cosine``'s norm floor, but are not BLAS products. The
kernel forms every elementwise product of a (d, rows, cap) block and sums it
over the d lanes (``_lane_sum``) in the order numpy's ``sum`` adds a
contiguous run: from 0.0; below 8 terms in sequence; up to 128 terms in eight
accumulators over blocks of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
before the rest is added in sequence; above that, split at n/2 rounded down to
a multiple of 8. Each lane add is one numpy add over the whole block, and the
lanes are stored in ``_lane_order`` so the combining adds are over contiguous
halves. A cosine thus has the bytes of ``(u * v).sum()`` divided by the norms:
identical prototypes score the same wherever they sit, a frame scores the same
in any block, exact ties break as they always have, and the bytes depend on
neither BLAS nor numpy's SIMD level. ``build_banks`` checks its matrix for
finiteness once; a NaN would otherwise win every ``argmax`` and lose every
merge comparison, so it raises ``ValueError`` naming the row's frame.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Literal, Optional, Sequence

import numpy as np

from .core import Checked, Domain, FrameRecord, _check_finite, _check_unique_ids
from .discriminator import DiscriminatorModel, domainness

NORM_FLOOR = 1e-12


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


def reweight(frames: Sequence[FrameRecord], roi_dim: Optional[int] = None) -> np.ndarray:
    """Each frame's confidence-weighted sum of its ROI vectors, as the rows of one
    float64 (n, d) matrix in pool order; a frame without ROIs gets a zero row.

    The frames are checked in pool order and the first malformed one raises;
    without ``roi_dim`` the first frame with ROIs sets the width. The matrix
    is then checked once, naming the first frame whose row is not finite.
    Frames are grouped by ROI shape (k, d), and each group is cast to float64
    and takes one stacked ``(m, 1, k) @ (m, k, d)`` product, written into its
    rows: the BLAS gemv that ``confs @ rois`` makes for one frame, so each row
    has the bytes of its own product."""
    width, groups = roi_dim, {}
    for n, frame in enumerate(frames):
        rois, confs = np.asarray(frame.roi_features), np.asarray(frame.roi_confidences)
        if rois.size == 0:
            if roi_dim is None:
                raise ValueError(
                    "frame %r has no ROIs and no roi_dim was configured" % frame.id
                )
            continue
        if rois.ndim != 2 or confs.ndim != 1 or rois.shape[0] != confs.shape[0]:
            raise ValueError("inconsistent ROI features/confidences in %r" % frame.id)
        width = rois.shape[1] if width is None else width
        if rois.shape[1] != width:
            raise ValueError("ROI dimension mismatch in %r" % frame.id)
        groups.setdefault(rois.shape, []).append((n, confs, rois))
    rows = np.zeros((len(frames), width or 0))
    for group in groups.values():
        at, confs, rois = zip(*group)
        confs, rois = np.array(confs, dtype=np.float64), np.array(rois, dtype=np.float64)
        rows[list(at)] = np.matmul(confs[:, None, :], rois)[:, 0]
    _check_finite(rows, lambda i: frames[i].id, "ROI vector")
    return rows


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


# numpy's pairwise sum keeps eight accumulators r0..r7 and combines them as
# ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); holding them in this order makes each
# combining step one add of a contiguous half onto the other
_ACCUMULATOR_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)


def _lane_order(d: int) -> np.ndarray:
    """The order ``_lane_sum`` takes d lanes in: each full block of 8 lanes in
    ``_ACCUMULATOR_ORDER`` when d >= 8, the rest as they come."""
    full = d - d % 8 if d >= 8 else 0
    return np.array([k - k % 8 + _ACCUMULATOR_ORDER[k % 8] for k in range(full)]
                    + list(range(full, d)), dtype=np.intp)


def _lane_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of lanes given in ``_lane_order``, with the bytes of
    numpy's sum over a contiguous run of the lanes in their own order, taken
    lane by lane; overwrites ``terms``.

    numpy adds its pairwise sum to a 0.0 start (so a sum of -0.0 terms is
    +0.0). Below 8 terms the pairwise sum adds them in sequence; up to 128 it
    keeps eight accumulators over blocks of 8, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the rest in sequence; above
    that it splits at n/2 rounded down to a multiple of 8 and sums each half.
    """
    n = len(terms)
    if n < 8:
        total = np.zeros(terms.shape[1:])
        for k in range(n):
            total += terms[k]
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _lane_sum(terms[:half]) + _lane_sum(terms[half:])
    acc, tail = terms[:8], n - n % 8
    for k in range(8, tail, 8):
        acc += terms[k : k + 8]
    acc[:4] += acc[4:]
    acc[:2] += acc[2:4]
    total = acc[0]
    total += acc[1]
    for k in range(tail, n):
        total += terms[k]
    total += 0.0
    return total


class _Prototypes:
    """Prototype rows in bank order, held as the columns of a (d, cap) matrix
    whose rows are the lanes in ``_lane_order``, their norms, and the
    pair-cosine matrix with the cached aggregate that ``compare`` names; built
    from the founding rows once the fill phase is over, after which the bank
    count stays at its cap."""

    def __init__(self, rows: np.ndarray, norms: np.ndarray, compare: str = "min"):
        self._order = _lane_order(rows.shape[1])
        self.lanes, self.norms = rows.T[self._order], norms.copy()
        self._live = ~(norms < NORM_FLOOR)
        self._compare = np.min if compare == "min" else np.max
        n = len(rows)
        self.pairs = np.empty((n, n))
        step = _block_rows(n, rows.shape[1])
        for k in range(0, n, step):
            self.pairs[k : k + step] = self.cosine_rows(rows[k : k + step], norms[k : k + step])
        self._upper = np.triu_indices(n, 1)
        self.refresh()

    def cosine_rows(self, vecs: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """Cosine of each row of ``vecs`` (norms ``norms``) with every prototype,
        under ``cosine``'s norm floor: a (len(vecs), cap) matrix."""
        products = vecs.T[self._order][:, :, None] * self.lanes[:, None, :]
        sims = np.zeros((len(vecs), self.lanes.shape[1]))
        # not BLAS ``vecs @ rows.T``: each pair's products are summed in one
        # written-out order, so identical rows score bit-identically wherever they
        # sit, on any BLAS and at any SIMD level
        np.divide(
            _lane_sum(products), norms[:, None] * self.norms, out=sims,
            where=~(norms < NORM_FLOOR)[:, None] & self._live,
        )
        return sims

    def set(self, k: int, vec: np.ndarray) -> None:
        """Move row ``k`` to ``vec`` and refresh the aggregate."""
        self._write([k], vec[None])

    def merge(self, i: int, j: int, merged: np.ndarray, newcomer: np.ndarray) -> None:
        """Drop row ``j`` (``i < j``), move row ``i`` to ``merged`` and append
        ``newcomer`` as the last row; both are scored in one two-row pass."""
        self.lanes[:, j:-1] = self.lanes[:, j + 1 :]
        self.norms[j:-1] = self.norms[j + 1 :]
        self.pairs[j:-1] = self.pairs[j + 1 :]
        self.pairs[:, j:-1] = self.pairs[:, j + 1 :]
        self._write([i, len(self.norms) - 1], np.array([merged, newcomer]))

    def _write(self, at: List[int], vecs: np.ndarray) -> None:
        self.lanes[:, at] = vecs.T[self._order]
        self.norms[at] = norms = _norms(vecs)
        self._live = ~(self.norms < NORM_FLOOR)
        for k, sims in zip(at, self.cosine_rows(vecs, norms)):
            self.pairs[k] = self.pairs[:, k] = sims
        self.refresh()

    def refresh(self) -> None:
        """Recompute the aggregate of the pair cosines, ``None`` below two rows."""
        self._sims = self.pairs[self._upper]
        self.aggregate = self._compare(self._sims) if self._sims.size else None

    def top_pairs(self) -> List[tuple]:
        """The (i, j) pairs, i < j, tied at the largest pair cosine, row by row."""
        tied = np.flatnonzero(self._sims == self._sims.max())
        return list(zip(self._upper[0][tied].tolist(), self._upper[1][tied].tolist()))


def build_banks(
    rois: np.ndarray,
    ids: Sequence[str],
    capacity: int,
    config: BankConfig = BankConfig(),
) -> BankSet:
    """Stream the rows of ``rois``, the re-weighted ROI vectors of the frames
    ``ids`` names in order, into at most ``capacity`` banks.

    ``rois`` must be an (n, d) matrix with one row per id and every entry
    finite; otherwise ``ValueError`` is raised, a non-finite row named by its
    id.

    Past the fill phase the stream is scored a block of frames per
    O(block*cap*d) pass over the prototype rows. The frames before the
    block's first merge join their banks; the rest of the block is scored
    again against the prototypes the merge left. The block starts at
    ``_BLOCK_START`` rows, doubles after each block without a merge up to
    ``_block_rows``, and starts over after a merge; with
    ``update_prototype_on_join`` every join moves a prototype, so a block is
    one row. A prototype-moving join costs O(cap*d) to rewrite one row and
    column of the pair matrix, a merge one two-row pass to rewrite two, and
    either an O(cap^2) refresh of the aggregate the config compares.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    vecs = np.ascontiguousarray(rois, dtype=np.float64)
    if vecs.ndim != 2:
        raise ValueError("ROI vectors must form an (n, d) matrix, got shape %s" % (vecs.shape,))
    if len(vecs) != len(ids):
        raise ValueError("%d ROI rows for %d ids" % (len(vecs), len(ids)))
    _check_finite(vecs, lambda i: ids[i], "ROI vector")
    fill = min(capacity, len(ids))
    banks = [SimilarityBank(prototype=vecs[k].copy(), members=[ids[k]]) for k in range(fill)]
    if len(ids) == fill:
        return BankSet(banks=banks)

    norms = _norms(vecs)
    protos = _Prototypes(vecs[:fill], norms[:fill], config.pairwise_compare)
    most = 1 if config.update_prototype_on_join else _block_rows(capacity, vecs.shape[1])
    t, block = fill, min(_BLOCK_START, most)
    while t < len(ids):
        end = min(t + block, len(ids))
        sims = protos.cosine_rows(vecs[t:end], norms[t:end])
        agg = protos.aggregate
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
        t += joins
        if t == end:
            block = min(2 * block, most)
            continue
        # merge the most similar pair, then found a bank for the newcomer
        i, j = min(protos.top_pairs(), key=lambda ij: _pair_key(banks[ij[0]], banks[ij[1]]))
        banks[i] = merge_banks(banks[i], banks[j])
        del banks[j]
        banks.append(SimilarityBank(prototype=vecs[t].copy(), members=[ids[t]]))
        protos.merge(i, j, banks[i].prototype, vecs[t])
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
        lambda frames: reweight(frames, roi_dim),
        lambda frames: domainness(model, frames).tolist(),
        budget,
        config,
    )


def _sample_round(
    unlabeled: Sequence[FrameRecord],
    rois: Callable[[Sequence[FrameRecord]], Sequence[np.ndarray]],
    values: Callable[[Sequence[FrameRecord]], Sequence[float]],
    budget: int,
    config: BankConfig,
) -> List[str]:
    """``sample_round`` with the pool's ROI rows given by ``rois`` and its
    domainness values by ``values``, each in pool order. A pool that repeats an
    id raises ``ValueError`` naming it: the scores are keyed by id."""
    for f in unlabeled:
        if f.domain != Domain.TARGET:
            raise ValueError("frame %r is not target-tagged" % f.id)
    _check_unique_ids(unlabeled, "in the target pool")
    if not unlabeled:
        return []
    ids = [f.id for f in unlabeled]
    banks = build_banks(rois(unlabeled), ids, budget, config=config)
    return select_targets(banks, dict(zip(ids, values(unlabeled))))
