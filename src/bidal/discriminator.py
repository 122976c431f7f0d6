"""Binary domain classifier trained from scratch with numpy.

A small leaky-ReLU MLP ending in a sigmoid maps a scene vector to a
domainness score in (0, 1): '0' means source-like, '1' target-like. Training
is plain seeded mini-batch gradient descent on binary cross-entropy with an
L2 penalty, so every run is exactly reproducible and the gradients can be
checked against finite differences.

A training step computes only the gradients of the clamped BCE + L2 loss on
its batch and applies them; the loss itself is computed once per epoch, over
all vectors, for the history and the non-finite check. During ``train`` every
weight and bias is a view of one flat parameter vector and ``_grads`` writes
into views of one flat gradient vector, so a step's update is two numpy calls
with the same rounding as one ``w -= lr * g`` per array; the returned model
owns its arrays. ``loss_and_grads`` gives the per-batch loss beside the same
gradients. ``fit`` computes each pool's scene vectors in one batched pass
(``scoring.scene_vectors``).

One layer walk, ``_layers``, serves training, ``predict`` and per-row
scoring; only the shape of the products differs. Scoring is batched:
``_domainness_values`` scores a whole pool in one pass over its stacked scene
vectors, and ``forward`` and ``domainness`` are its one-row case. Each row
goes through one-row layer products, so a frame's score does not depend on
the pool it is scored with. ``predict``'s plain (n, d) products may round
some rows differently in the last bit; training and its loss history use
them.

A checkpoint is a ``_Checkpoint``, read by ``core``'s schema walk, at version
``CHECKPOINT_VERSION``, with layer widths of at least 1 and one finite weight
matrix and bias vector per pair of adjacent layers; ``load`` raises
``ValueError`` naming the file and the key otherwise.

``fit`` holds the pool rules that ``run`` and ``train-disc`` share: both
pools non-empty, frame ids unique across both pools, every frame tagged with
its own pool's domain, and one feature-map channel count. Each rule raises
``ValueError`` naming the offending frames. ``fit`` sorts both pools by id
first, so a checkpoint does not depend on the order of the frame files.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (Domain, FrameRecord, Score, _build, canonical_json, decode_array,
                   encode_array, read_json)
from .scoring import scene_vector, scene_vectors

PRED_EPS = 1e-7
CHECKPOINT_VERSION = 1
LEAK = 0.01


class NumericalError(RuntimeError):
    """Raised when training produces a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 300
    batch_size: int = 32
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")


class DiscriminatorModel:
    """Leaky-ReLU MLP with a sigmoid head; immutable once built."""

    def __init__(self, layer_dims, weights, biases, leak=LEAK, rng_seed=0):
        self.layer_dims = tuple(int(d) for d in layer_dims)
        dims = list(self.layer_dims)
        if len(dims) < 3:
            raise ValueError("layer_dims %s needs at least one hidden layer" % dims)
        if dims[-1] != 1:
            raise ValueError("layer_dims %s must end in an output width of 1" % dims)
        _check_widths(self.layer_dims)
        if not 0.0 < leak < 1.0:
            raise ValueError("leak must lie in (0,1)")
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        self.leak = float(leak)
        self.rng_seed = int(rng_seed)
        _check_counts(self.layer_dims, self.weights, self.biases)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.layer_dims[i], self.layer_dims[i + 1]):
                raise ValueError("weight shape mismatch at layer %d" % i)
            if b.shape != (self.layer_dims[i + 1],):
                raise ValueError("bias shape mismatch at layer %d" % i)

    @classmethod
    def initialize(cls, layer_dims, seed=0):
        """Glorot-uniform init, deterministic per seed."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(layer_dims, weights, biases, rng_seed=seed)

    def copy(self):
        return DiscriminatorModel(
            self.layer_dims,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            leak=self.leak,
            rng_seed=self.rng_seed,
        )

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.layer_dims[0]:
            raise ValueError(
                "input dimension %d != expected %d" % (X.shape[1], self.layer_dims[0])
            )
        return X

    def logits(self, X: np.ndarray) -> np.ndarray:
        return _layers(self, self._check_input(X))[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.logits(X))
        return np.clip(p, PRED_EPS, 1.0 - PRED_EPS)

    def save(self, path):
        ckpt = _Checkpoint(CHECKPOINT_VERSION, self.layer_dims,
                           tuple(encode_array(w, "<f8") for w in self.weights),
                           tuple(encode_array(b, "<f8") for b in self.biases),
                           self.leak, self.rng_seed)
        with open(path, "w") as fh:
            fh.write(canonical_json(ckpt))

    @classmethod
    def load(cls, path):
        where = "checkpoint %s" % path
        ckpt = _build(_Checkpoint, read_json(path, "checkpoint"), where, {})
        dims = ckpt.layer_dims
        try:
            if ckpt.version != CHECKPOINT_VERSION:
                raise ValueError("version is %d, expected %d" % (ckpt.version, CHECKPOINT_VERSION))
            _check_widths(dims)
            _check_counts(dims, ckpt.weights, ckpt.biases)
            weights = [decode_array(blob, dims[i:i + 2], "<f8", "weights[%d]" % i)
                       for i, blob in enumerate(ckpt.weights)]
            biases = [decode_array(blob, dims[i + 1:i + 2], "<f8", "biases[%d]" % i)
                      for i, blob in enumerate(ckpt.biases)]
            for name, arrays in (("weights", weights), ("biases", biases)):
                for i, a in enumerate(arrays):
                    if not np.all(np.isfinite(a)):
                        raise ValueError("%s[%d] holds non-finite values" % (name, i))
            return cls(dims, weights, biases, leak=ckpt.leak, rng_seed=ckpt.rng_seed)
        except ValueError as exc:
            raise ValueError("%s: %s" % (where, exc))


@dataclass(frozen=True)
class _Checkpoint:
    """The JSON object ``save`` writes and ``load`` reads through the schema walk."""

    version: int
    layer_dims: Tuple[int, ...]
    weights: Tuple[str, ...]
    biases: Tuple[str, ...]
    leak: float
    rng_seed: int


def _check_widths(layer_dims) -> None:
    """Every layer at least one unit wide."""
    if any(d < 1 for d in layer_dims):
        raise ValueError("layer_dims must hold widths of at least 1, got %s" % list(layer_dims))


def _check_counts(layer_dims, weights, biases) -> None:
    """One weight matrix and one bias vector per pair of adjacent layers."""
    for name, arrays in (("weights", weights), ("biases", biases)):
        if len(arrays) != len(layer_dims) - 1:
            raise ValueError(
                "%s holds %d arrays, expected %d for layer_dims %s"
                % (name, len(arrays), len(layer_dims) - 1, list(layer_dims))
            )


def _leaky_relu(z: np.ndarray, leak: float) -> np.ndarray:
    """z where z > 0, else leak * z: with 0 < leak < 1 the larger of the two, bit for bit."""
    return np.maximum(z, leak * z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _layers(model: DiscriminatorModel, X: np.ndarray) -> List[np.ndarray]:
    """``[X, hidden activations..., logits]`` of a batch whose rows lie along the last axis."""
    out = [X]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        out.append(_leaky_relu(out[-1] @ w + b, model.leak))
    out.append((out[-1] @ model.weights[-1] + model.biases[-1])[..., 0])
    return out


def forward(model: DiscriminatorModel, v: np.ndarray) -> float:
    """Domainness probability for a single scene vector, clamped away from 0/1."""
    return float(_forward_rows(model, np.asarray(v, dtype=np.float64)[None])[0])


def _forward_rows(model: DiscriminatorModel, X: np.ndarray) -> np.ndarray:
    """``forward`` of every row of an (n, d) float64 array, bit for bit."""
    _check_width(model, X.shape[1:])
    # The stacked product (n, 1, d) @ (d, h) runs numpy's one-row kernel once
    # per row, so row i rounds exactly as (1, d) @ (d, h) does on its own; a
    # plain (n, d) @ (d, h) product may round some rows differently.
    z = _layers(model, X[:, None, :])[-1][:, 0]
    return np.clip(_sigmoid(z), PRED_EPS, 1.0 - PRED_EPS)


def _domainness_values(model: DiscriminatorModel, frames: Sequence[FrameRecord]) -> np.ndarray:
    """``domainness(model, f).value`` of every frame, in order, from one batched pass."""
    d = model.layer_dims[0]
    vectors = [scene_vector(f) for f in frames]
    # one check for the pool, naming the first vector ``forward`` would reject
    _check_width(model, next((v.shape for v in vectors if v.shape != (d,)), (d,)))
    return _forward_rows(model, np.array(vectors).reshape(len(vectors), d))


def _check_width(model: DiscriminatorModel, shape: Tuple[int, ...]) -> None:
    """A scene vector's shape must be (d,), d the model's input width."""
    if shape != (model.layer_dims[0],):
        raise ValueError("input shape %s != expected (%d,)" % (shape, model.layer_dims[0]))


def bce_loss(preds: Sequence[float], labels: Sequence[int]) -> float:
    """Mean binary cross-entropy; label 0 = source, 1 = target."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("preds and labels must be equal-length and non-empty")
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def _grads(
    model: DiscriminatorModel,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
    out: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None,
) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Backprop of the clamped BCE + L2 loss on a checked float64 batch.

    Returns the unclamped sigmoid outputs and the weight and bias gradients,
    written into ``out``'s (weight, bias) arrays when it is given. A training
    step needs only the gradients, so it calls this directly.
    """
    n = X.shape[0]
    *activations, z_out = _layers(model, X)
    p_raw = _sigmoid(z_out)

    # unclamped rows have p == p_raw; clamped rows get no gradient
    clamped = (p_raw < PRED_EPS) | (p_raw > 1.0 - PRED_EPS)
    delta = np.where(clamped, 0.0, p_raw - y)[:, None] / n

    if out is None:
        out = ([np.empty_like(w) for w in model.weights], [np.empty_like(b) for b in model.biases])
    grads_w, grads_b = out
    back = delta
    for i in range(len(model.weights) - 1, -1, -1):
        if i < len(model.weights) - 1:
            back = back @ model.weights[i + 1].T
            # with 0 < leak < 1, leaky_relu(z) > 0 exactly where z > 0
            back = back * np.where(activations[i + 1] > 0, 1.0, model.leak)
        # the same rounding as ``activations[i].T @ back + l2 * W``
        np.matmul(activations[i].T, back, out=grads_w[i])
        grads_w[i] += l2 * model.weights[i]
        np.sum(back, axis=0, out=grads_b[i])
    return p_raw, grads_w, grads_b


def loss_and_grads(
    model: DiscriminatorModel, X: np.ndarray, y: np.ndarray, l2: float = 0.0
) -> Tuple[float, List[np.ndarray], List[np.ndarray]]:
    """BCE + L2 loss and its analytic gradients by backprop.

    Gradient through the prediction clamp is zero where the clamp is active,
    matching what finite differences see.
    """
    X = model._check_input(X)
    y = np.asarray(y, dtype=np.float64)
    p_raw, grads_w, grads_b = _grads(model, X, y, l2)
    loss = bce_loss(np.clip(p_raw, PRED_EPS, 1.0 - PRED_EPS), y)
    if l2:
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in model.weights)
    return loss, grads_w, grads_b


def _flat_views(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[np.ndarray]]:
    """One flat vector holding copies of ``arrays``, and a view of it shaped like each."""
    flat = np.concatenate([a.ravel() for a in arrays])
    views, start = [], 0
    for a in arrays:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


def train(
    model: DiscriminatorModel,
    source_vs: Sequence[np.ndarray],
    target_vs: Sequence[np.ndarray],
    cfg: TrainConfig,
) -> Tuple[DiscriminatorModel, List[float]]:
    """Seeded mini-batch gradient descent; returns a new model and per-epoch loss.

    Every weight and bias is a view of one parameter vector, and every
    gradient a view of one gradient vector, so a step's update is two calls.
    The returned model owns its arrays.
    """
    if len(source_vs) == 0 or len(target_vs) == 0:
        raise ValueError("both domains must contribute at least one vector")
    X = np.vstack([np.asarray(v, dtype=np.float64) for v in list(source_vs) + list(target_vs)])
    y = np.concatenate(
        [np.zeros(len(source_vs)), np.ones(len(target_vs))]
    )
    model = model.copy()
    if cfg.epochs == 0:
        return model, []

    X = model._check_input(X)
    layers = len(model.weights)
    theta, params = _flat_views(model.weights + model.biases)
    model.weights, model.biases = params[:layers], params[layers:]
    G, grads = _flat_views(params)  # only the shapes matter: _grads overwrites G
    out = (grads[:layers], grads[layers:])
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _grads(model, X[idx], y[idx], cfg.l2, out=out)
            # the same rounding as ``p -= lr * g`` per array
            G *= cfg.learning_rate
            theta -= G
        epoch_loss = bce_loss(model.predict(X), y)
        if not np.isfinite(epoch_loss):
            raise NumericalError(
                "non-finite loss after epoch %d (lr=%g)" % (len(history) + 1, cfg.learning_rate)
            )
        history.append(epoch_loss)
    return model.copy(), history


def fit(
    source: Sequence[FrameRecord],
    target: Sequence[FrameRecord],
    hidden_dims: Sequence[int],
    cfg: TrainConfig,
    seed: int,
) -> Tuple[DiscriminatorModel, List[float]]:
    """Stage 2: a ``(C,) + hidden_dims + (1,)`` model, seeded, trained on both id-sorted pools."""
    if not source or not target:
        raise ValueError("source and target pools must be non-empty")
    source = sorted(source, key=lambda f: f.id)
    target = sorted(target, key=lambda f: f.id)
    frames = source + target
    repeated = sorted(i for i, n in Counter(f.id for f in frames).items() if n > 1)
    if repeated:
        raise ValueError("frame ids must be unique across both pools; repeated: %r" % repeated[:5])
    mistagged = [f.id for f in source if f.domain != Domain.SOURCE]
    mistagged += [f.id for f in target if f.domain != Domain.TARGET]
    if mistagged:
        raise ValueError("frames tagged with the other pool's domain: %r" % mistagged[:5])
    channels = np.shape(source[0].feature_map)[0]
    for f in frames:
        if np.shape(f.feature_map)[0] != channels:
            raise ValueError(
                "frame %s feature_map has %d channels, expected %d"
                % (f.id, np.shape(f.feature_map)[0], channels)
            )
    src_vecs = scene_vectors(source)
    tgt_vecs = scene_vectors(target)
    dims = (len(src_vecs[0]),) + tuple(hidden_dims) + (1,)
    return train(DiscriminatorModel.initialize(dims, seed=seed), src_vecs, tgt_vecs, cfg)


def domainness(model: DiscriminatorModel, frame: FrameRecord) -> Score:
    """Score one frame: sigmoid output of the MLP on its pooled enhanced map."""
    return Score(frame_id=frame.id, value=float(_domainness_values(model, [frame])[0]))
