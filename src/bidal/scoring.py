"""Foreground-aware scene scoring.

Turns a frame's (C', H, W) objectness map into a per-location base-2 binary
entropy map, combines the channel maxima of both into a spatial attention
factor in [1, 2], boosts the feature map with it, and average-pools the
result into a per-channel scene vector. ``enhance``, ``scene_vector`` and
``scene_vectors`` reject any other objectness shape, or one with no channels.

One formulation, written over leading axes, serves every entry point: a
frame (``scene_vector``, ``enhance``), a stack of frames (``scene_vectors``,
one pass per distinct map shape) and ``entropy_map`` on any shape. It casts
the objectness once into one float64 buffer holding p and q = 1 - p, checks
their range with one reduction, and takes one ``log2`` and one product over
both halves. That ``log2`` is masked (0*log(0) := 0) only when the buffer
holds an endpoint; elsewhere the plain log gives the same bytes. The
attention takes max_c' entropy as -min_c' (p*log2(p) + q*log2(q)), multiplies
the feature map in its own dtype and finishes in place; a scene vector never
builds an ``EnhancedFeature``. Every output has the bytes of the plain
step-by-step formula (``tests/test_scoring.py``), and ``scene_vectors`` gives
the bytes of ``scene_vector`` frame by frame; ``discriminator.fit`` uses it
for both pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import FrameRecord


@dataclass(frozen=True, eq=False)
class EnhancedFeature:
    """Attention-boosted feature map plus the (H, W) attention factor itself."""

    map: np.ndarray
    attention: np.ndarray


def _xlog2x(pq: np.ndarray) -> np.ndarray:
    """x * log2(x) over a float64 buffer whose first half holds p, with 0*log(0) := 0.

    Fills the second half with 1 - p first, and raises ``ValueError`` when p
    leaves [0, 1]: the buffer's minimum is below 0 exactly then. A NaN passes,
    as it passes a min/max check, and takes the masked log.
    """
    np.subtract(1.0, pq[:1], out=pq[1:])
    lo = np.minimum.reduce(pq, axis=None, initial=1.0)
    if lo < 0.0:
        raise ValueError("entropy_map input must lie in [0,1]")
    logs = np.log2(pq) if lo > 0.0 else np.log2(pq, out=np.zeros(pq.shape), where=pq > 0.0)
    logs *= pq
    return logs


def entropy_map(obj: np.ndarray) -> np.ndarray:
    """Elementwise binary entropy of a probability tensor.

    Uses base-2 logs, so the output lives in [0, 1]; the 0*log(0) := 0
    convention applies at both endpoints.
    """
    pq = np.empty((2,) + np.shape(obj))
    pq[0] = obj
    xl = _xlog2x(pq)
    return -xl[0] - xl[1]


def _check_chw(shape: Tuple[int, ...]) -> None:
    if len(shape) != 3 or shape[0] < 1:
        raise ValueError("objectness_map must be a non-empty (C', H, W) tensor")


def _objectness(obj) -> np.ndarray:
    """A (2, C', H, W) float64 buffer whose first half holds a frame's objectness."""
    shape = np.shape(obj)
    _check_chw(shape)
    pq = np.empty((2,) + shape)
    pq[0] = obj
    return pq


def _enhanced(pq: np.ndarray, fmap) -> Tuple[np.ndarray, np.ndarray]:
    """(attention, boosted feature map) of objectness buffers and feature maps over leading axes.

    attention = 1 + (max_c' p + max_c' entropy(p)) / 2. Here max_c' entropy is
    -min_c' (p*log2(p) + q*log2(q)): negation is exact, so it has the bytes of
    the max of ``entropy_map``'s -(p*log2(p)) - q*log2(q), but for the sign of
    a zero, which adding it to 1 erases. A float32 feature map is cast inside
    the product, with the bytes of a cast copy.
    """
    xl = _xlog2x(pq)
    terms = np.add(xl[0], xl[1], out=xl[0])
    # ufunc reductions are what the array methods call, minus their Python wrappers
    att = np.maximum.reduce(pq[0], axis=-3)
    att -= np.minimum.reduce(terms, axis=-3)
    att *= 0.5
    att += 1.0
    return att, np.multiply(att[..., None, :, :], fmap)


def _pool(m: np.ndarray) -> np.ndarray:
    """The spatial sum over the count, as np.mean computes it, minus its Python overhead."""
    v = np.add.reduce(m, axis=(-2, -1))
    v /= m.shape[-2] * m.shape[-1]
    return v


def enhance(frame: FrameRecord) -> EnhancedFeature:
    """Boost feature-map activations at likely-foreground locations.

    attention = 1 + (max_c' objectness + max_c' entropy(objectness)) / 2,
    broadcast across the channel axis of the feature map.
    """
    att, m = _enhanced(_objectness(frame.objectness_map), frame.feature_map)
    return EnhancedFeature(map=m, attention=att)


def pool(e: EnhancedFeature) -> np.ndarray:
    """Global average pool an enhanced map (or a stack of them) to scene vectors."""
    return _pool(np.asarray(e.map, dtype=np.float64))


def scene_vector(frame: FrameRecord) -> np.ndarray:
    """pool(enhance(frame)), with the same bytes."""
    return _pool(_enhanced(_objectness(frame.objectness_map), frame.feature_map)[1])


def scene_vectors(frames: Sequence[FrameRecord]) -> List[np.ndarray]:
    """``scene_vector`` of every frame, in order, from one pass per map shape."""
    groups: Dict[Tuple[tuple, tuple], List[int]] = {}
    for i, f in enumerate(frames):
        shapes = (np.shape(f.objectness_map), np.shape(f.feature_map))
        _check_chw(shapes[0])
        groups.setdefault(shapes, []).append(i)
    out: List[np.ndarray] = [None] * len(frames)
    for (obj_shape, _), idx in groups.items():
        pq = np.empty((2, len(idx)) + obj_shape)
        # cast as ``scene_vector``'s buffer assignment casts
        np.stack([frames[i].objectness_map for i in idx], out=pq[0], casting="unsafe")
        fmap = np.stack([frames[i].feature_map for i in idx])
        for i, v in zip(idx, _pool(_enhanced(pq, fmap)[1])):
            out[i] = v
    return out
