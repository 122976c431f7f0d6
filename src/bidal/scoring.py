"""Foreground-aware scene scoring.

Turns a frame's (C', H, W) objectness map into a per-location base-2 binary
entropy map, combines the channel maxima of both into a spatial attention
factor in [1, 2], boosts the feature map with it, and average-pools the
result into a per-channel scene vector. ``enhance``, ``scene_vector`` and
``scene_vectors`` reject any other objectness shape, or one with no channels.

The math is written over leading axes, so ``scene_vectors`` scores a whole
pool in one pass over its stacked maps (one pass per distinct map shape) and
gives the same bytes as ``scene_vector`` frame by frame; ``discriminator.fit``
uses it for both pools.
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


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p * log2(p), with 0*log(0) := 0."""
    return p * np.log2(p, out=np.zeros(p.shape), where=p > 0.0)


def entropy_map(obj: np.ndarray) -> np.ndarray:
    """Elementwise binary entropy of a probability tensor.

    Uses base-2 logs, so the output lives in [0, 1]; the 0*log(0) := 0
    convention applies at both endpoints.
    """
    p = np.asarray(obj, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("entropy_map input must lie in [0,1]")
    return -_xlog2x(p) - _xlog2x(1.0 - p)


def _check_chw(shape: Tuple[int, ...]) -> None:
    if len(shape) != 3 or shape[0] < 1:
        raise ValueError("objectness_map must be a non-empty (C', H, W) tensor")


def _enhance(obj: np.ndarray, fmap: np.ndarray) -> EnhancedFeature:
    """``enhance`` on float64 maps, one frame (C', H, W) or a stack (N, C', H, W)."""
    s_obj = obj.max(axis=-3)
    s_ent = entropy_map(obj).max(axis=-3)
    attention = 1.0 + (s_obj + s_ent) / 2.0
    return EnhancedFeature(map=attention[..., None, :, :] * fmap, attention=attention)


def enhance(frame: FrameRecord) -> EnhancedFeature:
    """Boost feature-map activations at likely-foreground locations.

    attention = 1 + (max_c' objectness + max_c' entropy(objectness)) / 2,
    broadcast across the channel axis of the feature map.
    """
    obj = np.asarray(frame.objectness_map, dtype=np.float64)
    _check_chw(obj.shape)
    return _enhance(obj, np.asarray(frame.feature_map, dtype=np.float64))


def pool(e: EnhancedFeature) -> np.ndarray:
    """Global average pool an enhanced map (or a stack of them) to scene vectors."""
    m = np.asarray(e.map, dtype=np.float64)
    # the spatial sum over the count, as np.mean computes it, minus its Python overhead
    return m.sum(axis=(-2, -1)) / (m.shape[-2] * m.shape[-1])


def scene_vector(frame: FrameRecord) -> np.ndarray:
    """Shorthand for pool(enhance(frame))."""
    return pool(enhance(frame))


def scene_vectors(frames: Sequence[FrameRecord]) -> List[np.ndarray]:
    """``scene_vector`` of every frame, in order, from one pass per map shape."""
    groups: Dict[Tuple[tuple, tuple], List[int]] = {}
    for i, f in enumerate(frames):
        shapes = (np.shape(f.objectness_map), np.shape(f.feature_map))
        _check_chw(shapes[0])
        groups.setdefault(shapes, []).append(i)
    out: List[np.ndarray] = [None] * len(frames)
    for idx in groups.values():
        obj = np.stack([frames[i].objectness_map for i in idx]).astype(np.float64, copy=False)
        fmap = np.stack([frames[i].feature_map for i in idx]).astype(np.float64, copy=False)
        for i, v in zip(idx, pool(_enhance(obj, fmap))):
            out[i] = v
    return out
