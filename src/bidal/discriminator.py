"""Binary domain classifier trained from scratch with numpy.

A small leaky-ReLU MLP ending in a sigmoid maps a scene vector to a
domainness score in (0, 1): '0' means source-like, '1' target-like. Training
is plain seeded mini-batch gradient descent on binary cross-entropy with an
L2 penalty, so every run is exactly reproducible and the gradients can be
checked against finite differences.

A training step computes only the gradients of the clamped BCE + L2 loss on
its batch and applies them; the loss itself is computed once per epoch, over
all vectors, for the history and the non-finite check. ``_grads`` is the one
backprop, behind both ``train`` and ``loss_and_grads``. It works on a
``_Flat``: a copy of the model whose weights and biases are views of one
parameter vector, beside a gradient vector laid out alike, and one ``_Work``
of arrays per batch row count, made on first use. A fit sees at most three
counts: the batch size, the last batch's and the pool's. Every layer, slope,
backprop product, sigmoid step and the L2 product is written into those
arrays. The forward pass keeps each hidden layer's leaky-ReLU slope,
max(sign(z), leak), for the backward pass, and the L2 term is one call over
every weight. The clamp's mask is built only when one reduction over -|z|
finds a logit past ``Z_SAFE`` = 15; the clamp acts only past |z| of about
16.12, so the guard fires whenever some row is clamped. An update is two
calls with the same rounding as ``w -= lr * g`` per array. Each epoch
permutes the vectors once and steps through slices of that copy. Its loss
pass, like ``predict`` and scoring, takes each hidden layer as
max(z, leak * z), and it sums log(1 - p) over the source rows and log(p)
over the target rows: ``bce_loss``'s terms for labels 0 and 1, summed in the
same order. Every weight, bias and loss keeps the bytes of the plain
step-by-step loop; the returned model owns its arrays. ``fit`` computes each
pool's scene vectors in one batched pass (``scoring.scene_vectors``).

One layer walk, ``_layers``, serves training, ``predict`` and per-row
scoring; only the shape of the products, and where they are written,
differs. ``domainness`` is the one scoring function: it scores a pool of
frames in one pass over their stacked scene vectors, and every stage calls
it. Its kernel ``_forward_rows`` sends each row through one-row layer
products, so a frame's score does not depend on the pool it is scored with.
``predict``'s plain (n, d) products may round some rows differently in the
last bit; training and its loss history use them. Before scoring, the
stacked vectors are checked once for width and once for finiteness; either
check raises ``ValueError`` naming the first frame it rejects, so no NaN
gets a score.

A checkpoint is a ``_Checkpoint``, read by ``core``'s schema walk, at version
``CHECKPOINT_VERSION``, with one finite weight matrix and bias vector per
pair of adjacent layers; ``load`` raises ``ValueError`` naming the file and
the key otherwise. The constructor checks ``layer_dims``, ``leak`` and
``rng_seed`` against the bounds ``_Checkpoint`` declares, as the walk does.

``_check_pools`` holds the pool rules that every strategy's run and
``train-disc`` share: both pools non-empty, frame ids unique across both
pools, and every frame tagged with its own pool's domain. ``fit`` checks them,
then one feature-map channel count and finite scene vectors, once per pool
before training. Each rule raises ``ValueError`` naming the offending frames.
``fit`` sorts both pools by id first, so a checkpoint does not depend on the
order of the frame files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (Checked, Domain, FrameRecord, NonNegInt, PosInt, Range, _build, _check_finite,
                   _check_unique_ids, _checked, canonical_json, decode_array, encode_array,
                   read_json)
from .scoring import scene_vector, scene_vectors

PRED_EPS = 1e-7
# |z| past which a training step checks for clamped rows; only |z| > 16.1 clamps
Z_SAFE = 15.0
CHECKPOINT_VERSION = 1
LEAK = 0.01


class NumericalError(RuntimeError):
    """Raised when training produces a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig(Checked):
    learning_rate: Annotated[float, Range(gt=0)] = 1e-2
    epochs: NonNegInt = 300
    batch_size: PosInt = 32
    l2: Annotated[float, Range(ge=0)] = 1e-4
    seed: NonNegInt = 0


class DiscriminatorModel:
    """Leaky-ReLU MLP with a sigmoid head; immutable once built."""

    def __init__(self, layer_dims, weights, biases, leak=LEAK, rng_seed=0):
        self.layer_dims = _checked(_Checkpoint, "layer_dims", layer_dims)
        dims = list(self.layer_dims)
        if len(dims) < 3:
            raise ValueError("layer_dims %s needs at least one hidden layer" % dims)
        if dims[-1] != 1:
            raise ValueError("layer_dims %s must end in an output width of 1" % dims)
        self.leak = float(_checked(_Checkpoint, "leak", leak))
        self.rng_seed = _checked(_Checkpoint, "rng_seed", rng_seed)
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _predictions(self, self._check_input(X))

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
    layer_dims: Tuple[PosInt, ...]
    weights: Tuple[str, ...]
    biases: Tuple[str, ...]
    leak: Annotated[float, Range(gt=0, lt=1)]
    rng_seed: NonNegInt


def _check_counts(layer_dims, weights, biases) -> None:
    """One weight matrix and one bias vector per pair of adjacent layers."""
    for name, arrays in (("weights", weights), ("biases", biases)):
        if len(arrays) != len(layer_dims) - 1:
            raise ValueError(
                "%s holds %d arrays, expected %d for layer_dims %s"
                % (name, len(arrays), len(layer_dims) - 1, list(layer_dims))
            )


def _leaky_relu(
    z: np.ndarray,
    leak: float,
    slope: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """z where z > 0, else leak * z, bit for bit, written over z.

    With ``slope``, that array receives z's slope (1.0 or leak) for backprop
    and z is multiplied by it. Without, z becomes max(z, leak * z), with
    leak * z written to ``scratch`` when it is given; for 0 < leak < 1 the two
    forms agree bit for bit on every z, NaN included.
    """
    if slope is None:
        return np.maximum(z, np.multiply(z, leak, out=scratch), out=z)
    # sign(z) is 1 above 0 and -1, 0 or NaN elsewhere, so its maximum with leak
    # is where(z > 0, 1.0, leak) for every non-NaN z, without a bool cast
    np.sign(z, out=slope)
    np.maximum(slope, leak, out=slope)
    return np.multiply(z, slope, out=z)


class _Work:
    """The arrays one shape of batch is computed in, overwritten by every pass.

    ``layers`` holds each layer's output, the logits with their trailing axis
    of 1, and backprop writes its running product over them once read.
    ``hidden`` holds each hidden layer's slope in a training step, or its
    leak * z in a forward pass. ``neg_abs``, ``e`` and ``p`` hold -|z|,
    exp(-|z|) and the sigmoid of the logits.
    """

    def __init__(self, layer_dims: Sequence[int], rows: Tuple[int, ...]):
        self.layers = [np.empty(rows + (w,)) for w in layer_dims[1:]]
        self.hidden = [np.empty(a.shape) for a in self.layers[:-1]]
        self.neg_abs, self.e, self.p = (np.empty(rows) for _ in range(3))


def _sigmoid(z: np.ndarray, work: Optional[_Work] = None) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp never
    overflows; written to ``work.p``, with -|z| kept in ``work.neg_abs``, when
    ``work`` is given."""
    neg_abs, e, p = (work.neg_abs, work.e, work.p) if work else (None, None, None)
    e = np.exp(np.copysign(z, -1.0, out=neg_abs), out=e)
    # the numerator where(z >= 0, 1.0, e) without a mask: below 0, sign(z) = -1 < e;
    # at +-0, sign(z) = 0 < e = 1; above 0, e <= 1 = sign(z)
    p = np.sign(z, out=p)
    np.maximum(p, e, out=p)
    e += 1.0
    return np.divide(p, e, out=p)


def _layers(
    model: DiscriminatorModel,
    X: np.ndarray,
    work: Optional[_Work] = None,
    slopes: bool = False,
) -> List[np.ndarray]:
    """``[X, hidden activations..., logits]`` of a batch whose rows lie along the last axis.

    The layers are written into ``work``'s arrays when it is given, and into
    new arrays otherwise. With ``slopes``, each hidden layer's leaky-ReLU
    slope is kept in ``work.hidden`` for backprop.
    """
    n = len(model.weights)
    outs, hidden = (work.layers, work.hidden) if work else ([None] * n, [None] * (n - 1))
    acts = [X]
    for w, b, out, tmp in zip(model.weights[:-1], model.biases[:-1], outs, hidden):
        z = np.matmul(acts[-1], w, out=out)
        z += b
        acts.append(_leaky_relu(z, model.leak, slope=tmp) if slopes
                    else _leaky_relu(z, model.leak, scratch=tmp))
    z = np.matmul(acts[-1], model.weights[-1], out=outs[-1])
    z += model.biases[-1]
    acts.append(z[..., 0])
    return acts


def _predictions(
    model: DiscriminatorModel, X: np.ndarray, work: Optional[_Work] = None
) -> np.ndarray:
    """``predict`` of a checked batch: the sigmoid of its logits, clamped away from 0/1."""
    p = _sigmoid(_layers(model, X, work)[-1], work)
    return np.clip(p, PRED_EPS, 1.0 - PRED_EPS, out=p)


def _forward_rows(model: DiscriminatorModel, X: np.ndarray) -> np.ndarray:
    """The score of every row of an (n, d) float64 array; each row's bytes are
    ``predict``'s on that row alone."""
    # The stacked product (n, 1, d) @ (d, h) runs numpy's one-row kernel once
    # per row, so row i rounds exactly as (1, d) @ (d, h) does on its own; a
    # plain (n, d) @ (d, h) product may round some rows differently.
    return _predictions(model, X[:, None, :])[:, 0]


def _check_width(model: DiscriminatorModel, shape: Tuple[int, ...], frame_id: str) -> None:
    """A scene vector's shape must be (d,), d the model's input width."""
    if shape != (model.layer_dims[0],):
        raise ValueError(
            "input shape %s != expected (%d,) in frame %s" % (shape, model.layer_dims[0], frame_id)
        )


def bce_loss(preds: Sequence[float], labels: Sequence[int]) -> float:
    """Mean binary cross-entropy; label 0 = source, 1 = target."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("preds and labels must be equal-length and non-empty")
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def _grads(
    flat: _Flat, X: np.ndarray, y: np.ndarray, l2: float
) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Backprop of the clamped BCE + L2 loss on a checked float64 batch, into ``flat.grad``.

    Returns the unclamped sigmoid outputs and ``flat``'s weight and bias
    gradient views. A training step needs only the gradients, so it calls
    this directly. Every array is ``flat``'s, kept for the batch's row count.
    """
    model = flat.model
    work = flat.work(X.shape[0])
    grads_w, grads_b = flat.grads
    *activations, z_out = _layers(model, X, work, slopes=True)
    p_raw = _sigmoid(z_out, work)

    # the logits are read for the last time, so delta takes their array.
    # Unclamped rows have p == p_raw; clamped rows get no gradient. Only a row
    # with |z| > 16.1 is clamped, so the mask is built only past Z_SAFE.
    delta = np.subtract(p_raw, y, out=z_out)
    if np.minimum.reduce(work.neg_abs) < -Z_SAFE:
        delta[(p_raw < PRED_EPS) | (p_raw > 1.0 - PRED_EPS)] = 0.0
    delta /= X.shape[0]

    back = work.layers[-1]
    for i in range(len(model.weights) - 1, -1, -1):
        if i < len(model.weights) - 1:
            # layer i's output was last read by layer i + 1's weight gradient
            back = np.matmul(back, model.weights[i + 1].T, out=work.layers[i])
            back *= work.hidden[i]
        np.matmul(activations[i].T, back, out=grads_w[i])
        np.add.reduce(back, axis=0, out=grads_b[i])
    # the same rounding as ``g += l2 * W`` per weight array
    flat.grad_w += np.multiply(flat.theta_w, l2, out=flat.l2_w)
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
    p_raw, grads_w, grads_b = _grads(_Flat(model), X, y, l2)
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


class _Flat:
    """A copy of a model whose weights and biases are views of one vector ``theta``,
    weights first, and a gradient vector ``grad`` laid out alike.

    ``_grads`` overwrites ``grad`` through its views ``grads`` (weight arrays,
    bias arrays) and adds the L2 term over every weight in one call, so an SGD
    step is ``_grads`` and two calls over the pair. ``work(n)`` gives the
    arrays a batch of n rows is computed in, made on first use.
    """

    def __init__(self, model: DiscriminatorModel):
        layers = len(model.weights)
        self.model = model.copy()
        self.theta, params = _flat_views(model.weights + model.biases)
        self.model.weights, self.model.biases = params[:layers], params[layers:]
        self.grad, grads = _flat_views(params)  # only the shapes matter: _grads overwrites it
        self.grads = (grads[:layers], grads[layers:])
        n_w = sum(w.size for w in model.weights)
        self.theta_w, self.grad_w = self.theta[:n_w], self.grad[:n_w]
        self.l2_w = np.empty(n_w)
        self._work: Dict[int, _Work] = {}

    def work(self, n: int) -> _Work:
        if n not in self._work:
            self._work[n] = _Work(self.model.layer_dims, (n,))
        return self._work[n]


def train(
    model: DiscriminatorModel,
    source_vs: Sequence[np.ndarray],
    target_vs: Sequence[np.ndarray],
    cfg: TrainConfig,
) -> Tuple[DiscriminatorModel, List[float]]:
    """Seeded mini-batch gradient descent; returns a new model and per-epoch loss.

    Each epoch permutes the vectors once and steps through slices of the
    permuted copy. A step is ``_grads`` on a ``_Flat`` and two calls over its
    parameter and gradient vectors. The epoch's loss equals ``bce_loss`` of
    ``predict`` on every vector. The returned model owns its arrays.
    """
    if len(source_vs) == 0 or len(target_vs) == 0:
        raise ValueError("both domains must contribute at least one vector")
    X = np.vstack([np.asarray(v, dtype=np.float64) for v in list(source_vs) + list(target_vs)])
    y = np.concatenate(
        [np.zeros(len(source_vs)), np.ones(len(target_vs))]
    )
    if cfg.epochs == 0:
        return model.copy(), []

    X = model._check_input(X)
    flat = _Flat(model)
    rng = np.random.default_rng(cfg.seed)
    n, size, n_source = X.shape[0], cfg.batch_size, len(source_vs)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        X_epoch, y_epoch = X[order], y[order]
        for start in range(0, n, size):
            _grads(flat, X_epoch[start : start + size], y_epoch[start : start + size], cfg.l2)
            # the same rounding as ``p -= lr * g`` per array
            flat.grad *= cfg.learning_rate
            flat.theta -= flat.grad
        # bce_loss's terms for y in {0, 1}: -log(1 - p) on source rows and
        # -log(p) on target rows, summed in the same order
        q = _predictions(flat.model, X, flat.work(n))
        np.subtract(1.0, q[:n_source], out=q[:n_source])
        epoch_loss = float(-(np.add.reduce(np.log(q, out=q)) / n))
        if not np.isfinite(epoch_loss):
            raise NumericalError(
                "non-finite loss after epoch %d (lr=%g)" % (len(history) + 1, cfg.learning_rate)
            )
        history.append(epoch_loss)
    return flat.model.copy(), history


def _check_pools(source: Sequence[FrameRecord], target: Sequence[FrameRecord]) -> None:
    """Raise ``ValueError`` unless both pools are non-empty, no id repeats within or
    across them, and each frame carries its own pool's domain."""
    if not source or not target:
        raise ValueError("source and target pools must be non-empty")
    _check_unique_ids(list(source) + list(target), "across both pools")
    mistagged = [f.id for f in source if f.domain != Domain.SOURCE]
    mistagged += [f.id for f in target if f.domain != Domain.TARGET]
    if mistagged:
        raise ValueError("frames tagged with the other pool's domain: %r" % mistagged[:5])


def fit(
    source: Sequence[FrameRecord],
    target: Sequence[FrameRecord],
    hidden_dims: Sequence[int],
    cfg: TrainConfig,
    seed: int,
) -> Tuple[DiscriminatorModel, List[float]]:
    """Stage 2: a ``(C,) + hidden_dims + (1,)`` model, seeded, trained on both id-sorted pools."""
    source = sorted(source, key=lambda f: f.id)
    target = sorted(target, key=lambda f: f.id)
    _check_pools(source, target)
    frames = source + target
    channels = np.shape(source[0].feature_map)[0]
    for f in frames:
        if np.shape(f.feature_map)[0] != channels:
            raise ValueError(
                "frame %s feature_map has %d channels, expected %d"
                % (f.id, np.shape(f.feature_map)[0], channels)
            )
    src_vecs = np.array(scene_vectors(source))
    tgt_vecs = np.array(scene_vectors(target))
    _check_finite(src_vecs, lambda i: source[i].id, "scene vector")
    _check_finite(tgt_vecs, lambda i: target[i].id, "scene vector")
    dims = (len(src_vecs[0]),) + tuple(hidden_dims) + (1,)
    return train(DiscriminatorModel.initialize(dims, seed=seed), src_vecs, tgt_vecs, cfg)


def domainness(model: DiscriminatorModel, frames: Sequence[FrameRecord]) -> np.ndarray:
    """Each frame's domainness score, in order, from one batched pass: the sigmoid
    of the MLP on its scene vector, clamped away from 0/1."""
    d = model.layer_dims[0]
    vectors = [scene_vector(f) for f in frames]
    # one check for the pool, naming the first frame whose vector has the wrong width
    bad = next((i for i, v in enumerate(vectors) if v.shape != (d,)), None)
    if bad is not None:
        _check_width(model, vectors[bad].shape, frames[bad].id)
    X = np.array(vectors).reshape(len(vectors), d)
    _check_finite(X, lambda i: frames[i].id, "scene vector")
    return _forward_rows(model, X)
