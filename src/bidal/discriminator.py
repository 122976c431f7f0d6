"""Binary domain classifier trained from scratch with numpy.

A small leaky-ReLU MLP ending in a sigmoid maps a scene vector to a
domainness score in (0, 1): '0' means source-like, '1' target-like. Training
is plain seeded mini-batch gradient descent on binary cross-entropy with an
L2 penalty, so every run is exactly reproducible and the gradients can be
checked against finite differences.

A training step computes only the gradients of the clamped BCE + L2 loss on
its batch and applies them; the loss itself is computed once per epoch, over
all vectors, for the history and the non-finite check. ``loss_and_grads``
gives the per-batch loss beside the same gradients. ``fit`` scores each pool
in one batched pass (``scoring.scene_vectors``). ``forward`` scores one
vector through the same layer products as ``predict``, with a scalar sigmoid
and clamp, and gives the same bytes.

A checkpoint must be a JSON object of the types ``save`` writes, with one
finite weight matrix and bias vector per pair of adjacent layers; ``load``
raises ``ValueError`` naming the file and the key otherwise. ``fit`` rejects
pools whose feature maps differ in channel count, naming the first such frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import FrameRecord, Score, _int_tuple, decode_array, encode_array
from .scoring import scene_vector, scene_vectors

PRED_EPS = 1e-7
CHECKPOINT_VERSION = 1


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

    def __init__(self, layer_dims, weights, biases, leak=0.01, rng_seed=0):
        if len(layer_dims) < 3:
            raise ValueError("need at least one hidden layer")
        if layer_dims[-1] != 1:
            raise ValueError("output dimension must be 1")
        if not 0.0 < leak < 1.0:
            raise ValueError("leak must lie in (0,1)")
        self.layer_dims = tuple(int(d) for d in layer_dims)
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
    def initialize(cls, layer_dims, seed=0, leak=0.01):
        """Glorot-uniform init, deterministic per seed."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(layer_dims, weights, biases, leak=leak, rng_seed=seed)

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

    def _logits(self, X: np.ndarray) -> np.ndarray:
        """Logits of a checked (n, d) float64 batch."""
        a = X
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ w + b
            a = _leaky_relu(z, self.leak)
        return (a @ self.weights[-1] + self.biases[-1])[:, 0]

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._logits(self._check_input(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.logits(X))
        return np.clip(p, PRED_EPS, 1.0 - PRED_EPS)

    def save(self, path):
        payload = {
            "version": CHECKPOINT_VERSION,
            "layer_dims": list(self.layer_dims),
            "leak": self.leak,
            "rng_seed": self.rng_seed,
            "weights": [encode_array(w, "<f8") for w in self.weights],
            "biases": [encode_array(b, "<f8") for b in self.biases],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(
                "checkpoint %s: top level must be a JSON object, got %s"
                % (path, type(payload).__name__)
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint version")
        try:
            dims = payload["layer_dims"]
            weights, biases = payload["weights"], payload["biases"]
            leak, rng_seed = payload["leak"], payload["rng_seed"]
        except KeyError as exc:
            raise ValueError("checkpoint %s lacks key %s" % (path, exc))
        try:
            _check_types(dims, weights, biases, leak, rng_seed)
            _check_counts(dims, weights, biases)
        except ValueError as exc:
            raise ValueError("checkpoint %s: %s" % (path, exc))
        weights = [
            decode_array(blob, (dims[i], dims[i + 1]), "<f8", "weights[%d]" % i)
            for i, blob in enumerate(weights)
        ]
        biases = [
            decode_array(blob, (dims[i + 1],), "<f8", "biases[%d]" % i)
            for i, blob in enumerate(biases)
        ]
        for name, arrays in (("weights", weights), ("biases", biases)):
            for i, a in enumerate(arrays):
                if not np.all(np.isfinite(a)):
                    raise ValueError(
                        "checkpoint %s: %s[%d] holds non-finite values" % (path, name, i)
                    )
        return cls(dims, weights, biases, leak=leak, rng_seed=rng_seed)


def _check_types(layer_dims, weights, biases, leak, rng_seed) -> None:
    """The JSON types of a checkpoint's values; the error names the key."""

    def reject(key, want, value):
        raise ValueError("%s must be %s, got %s" % (key, want, type(value).__name__))

    if not isinstance(layer_dims, list):
        reject("layer_dims", "a list", layer_dims)
    _int_tuple(layer_dims, "layer_dims")
    for name, blobs in (("weights", weights), ("biases", biases)):
        if not isinstance(blobs, list):
            reject(name, "a list", blobs)
        for i, blob in enumerate(blobs):
            if not isinstance(blob, str):
                reject("%s[%d]" % (name, i), "a base64 string", blob)
    if isinstance(leak, bool) or not isinstance(leak, (int, float)):
        reject("leak", "a number", leak)
    if isinstance(rng_seed, bool) or not isinstance(rng_seed, int):
        reject("rng_seed", "an integer", rng_seed)


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


def forward(model: DiscriminatorModel, v: np.ndarray) -> float:
    """Domainness probability for a single scene vector, clamped away from 0/1.

    The same bytes as ``model.predict(v[None, :])[0]``: the same (1, d) layer
    products, then ``_sigmoid``'s formula and the clamp on one scalar.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.shape != (model.layer_dims[0],):
        raise ValueError("input shape %s != expected (%d,)" % (x.shape, model.layer_dims[0]))
    z = model._logits(x[None, :])[0]
    e = np.exp(-abs(z))
    p = float((1.0 if z >= 0 else e) / (1.0 + e))
    return min(max(p, PRED_EPS), 1.0 - PRED_EPS)


def bce_loss(preds: Sequence[float], labels: Sequence[int]) -> float:
    """Mean binary cross-entropy; label 0 = source, 1 = target."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("preds and labels must be equal-length and non-empty")
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def _grads(
    model: DiscriminatorModel, X: np.ndarray, y: np.ndarray, l2: float
) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Backprop of the clamped BCE + L2 loss on a checked float64 batch.

    Returns the unclamped sigmoid outputs and the weight and bias gradients.
    A training step needs only the gradients, so it calls this directly.
    """
    n = X.shape[0]
    activations = [X]
    pre = []
    a = X
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = _leaky_relu(z, model.leak)
        activations.append(a)
    z_out = (a @ model.weights[-1] + model.biases[-1])[:, 0]
    p_raw = _sigmoid(z_out)

    # unclamped rows have p == p_raw; clamped rows get no gradient
    clamped = (p_raw < PRED_EPS) | (p_raw > 1.0 - PRED_EPS)
    delta = np.where(clamped, 0.0, p_raw - y)[:, None] / n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    grads_w[-1] = activations[-1].T @ delta + l2 * model.weights[-1]
    grads_b[-1] = delta.sum(axis=0)
    back = delta @ model.weights[-1].T
    for i in range(len(model.weights) - 2, -1, -1):
        back = back * np.where(pre[i] > 0, 1.0, model.leak)
        grads_w[i] = activations[i].T @ back + l2 * model.weights[i]
        grads_b[i] = back.sum(axis=0)
        if i > 0:
            back = back @ model.weights[i].T
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


def train(
    model: DiscriminatorModel,
    source_vs: Sequence[np.ndarray],
    target_vs: Sequence[np.ndarray],
    cfg: TrainConfig,
) -> Tuple[DiscriminatorModel, List[float]]:
    """Seeded mini-batch gradient descent; returns a new model and per-epoch loss."""
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
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, gw, gb = _grads(model, X[idx], y[idx], cfg.l2)
            for w, g in zip(model.weights, gw):
                w -= cfg.learning_rate * g
            for b, g in zip(model.biases, gb):
                b -= cfg.learning_rate * g
        epoch_loss = bce_loss(model.predict(X), y)
        if not np.isfinite(epoch_loss):
            raise NumericalError(
                "non-finite loss after epoch %d (lr=%g)" % (len(history) + 1, cfg.learning_rate)
            )
        history.append(epoch_loss)
    return model, history


def fit(
    source: Sequence[FrameRecord],
    target: Sequence[FrameRecord],
    hidden_dims: Sequence[int],
    cfg: TrainConfig,
    seed: int,
) -> Tuple[DiscriminatorModel, List[float]]:
    """Stage 2: a ``(C,) + hidden_dims + (1,)`` model, seeded, trained on both pools."""
    if not source or not target:
        raise ValueError("source and target pools must be non-empty")
    channels = np.shape(source[0].feature_map)[0]
    for f in list(source) + list(target):
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
    return Score(frame_id=frame.id, value=forward(model, scene_vector(frame)))
