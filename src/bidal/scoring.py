"""Foreground-aware scene scoring.

Turns a frame's objectness map into a per-location uncertainty map, combines
both into a spatial attention factor in [1, 2], boosts the feature map with
it, and average-pools the result into a per-channel scene vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameRecord


@dataclass(frozen=True, eq=False)
class EnhancedFeature:
    """Attention-boosted feature map plus the (H, W) attention factor itself."""

    map: np.ndarray
    attention: np.ndarray


def entropy_map(obj: np.ndarray, log_base: float = 2.0) -> np.ndarray:
    """Elementwise binary entropy of a probability tensor.

    Uses base-2 logs by default so the output lives in [0, 1]; the
    0*log(0) := 0 convention applies at both endpoints.
    """
    p = np.asarray(obj, dtype=np.float64)
    if p.size and (np.min(p) < 0.0 or np.max(p) > 1.0):
        raise ValueError("entropy_map input must lie in [0,1]")
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(p > 0.0, p * np.log2(p), 0.0) - np.where(
            q > 0.0, q * np.log2(q), 0.0
        )
    if log_base != 2.0:
        out = out * (np.log(2.0) / np.log(log_base))
    return out


def channel_max(t: np.ndarray) -> np.ndarray:
    """Max over the leading (channel) axis of a (C', H, W) tensor."""
    t = np.asarray(t)
    if t.ndim != 3 or t.shape[0] < 1:
        raise ValueError("channel_max expects a non-empty (C', H, W) tensor")
    return np.max(t, axis=0)


def enhance(frame: FrameRecord, log_base: float = 2.0) -> EnhancedFeature:
    """Boost feature-map activations at likely-foreground locations.

    attention = 1 + (max_c' objectness + max_c' entropy(objectness)) / 2,
    broadcast across the channel axis of the feature map.
    """
    obj = np.asarray(frame.objectness_map, dtype=np.float64)
    s_obj = channel_max(obj)
    s_ent = channel_max(entropy_map(obj, log_base=log_base))
    attention = 1.0 + (s_obj + s_ent) / 2.0
    fmap = np.asarray(frame.feature_map, dtype=np.float64)
    return EnhancedFeature(map=attention[None, :, :] * fmap, attention=attention)


def pool(e: EnhancedFeature) -> np.ndarray:
    """Global average pool an enhanced map to a per-channel scene vector."""
    return np.mean(np.asarray(e.map, dtype=np.float64), axis=(1, 2))


def scene_vector(frame: FrameRecord, log_base: float = 2.0) -> np.ndarray:
    """Shorthand for pool(enhance(frame))."""
    return pool(enhance(frame, log_base=log_base))
