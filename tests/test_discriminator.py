import dataclasses
import hashlib
import re

import numpy as np
import pytest

from bidal import (
    DiscriminatorModel,
    Domain,
    FrameRecord,
    NumericalError,
    SyntheticConfig,
    TrainConfig,
    domainness,
    generate,
    loss_and_grads,
    train,
)
from bidal.discriminator import (PRED_EPS, _Flat, _forward_rows, _grads, _layers, _leaky_relu,
                                 bce_loss, fit)
from bidal.scoring import scene_vector
from bidal.source_sampler import score_source
from bidal.target_sampler import BankConfig, _sample_round, reweight, sample_round

from .reference import ref_auc


def finite_diff_grads(model, X, y, l2, h=1e-6):
    """Central finite differences through loss_and_grads' loss value."""
    gw, gb = [], []
    for w in model.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            lp = loss_and_grads(model, X, y, l2=l2)[0]
            w[idx] = orig - h
            lm = loss_and_grads(model, X, y, l2=l2)[0]
            w[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        gw.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            lp = loss_and_grads(model, X, y, l2=l2)[0]
            b[idx] = orig - h
            lm = loss_and_grads(model, X, y, l2=l2)[0]
            b[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        gb.append(g)
    return gw, gb


def rel_err(a, b):
    num = np.linalg.norm(a - b)
    den = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return num / den


def two_blob_vectors(rng, n=60, dim=5, gap=4.0):
    src = rng.normal(size=(n, dim))
    tgt = rng.normal(size=(n, dim)) + gap
    return src, tgt


class TestModel:
    def test_initialize_is_deterministic(self):
        a = DiscriminatorModel.initialize((4, 8, 1), seed=3)
        b = DiscriminatorModel.initialize((4, 8, 1), seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_rejects_bad_architectures(self):
        with pytest.raises(ValueError):
            DiscriminatorModel.initialize((4, 1))  # no hidden layer
        with pytest.raises(ValueError):
            DiscriminatorModel.initialize((4, 8, 2))  # wide output

    @pytest.mark.parametrize("dims", [(16, 0, 1), (16, -4, 1)])
    def test_rejects_non_positive_widths(self, dims):
        weights = [np.zeros((max(a, 0), max(b, 0))) for a, b in zip(dims, dims[1:])]
        biases = [np.zeros(max(b, 0)) for b in dims[1:]]
        with pytest.raises(ValueError, match=r"^layer_dims\[1\] must be at least 1, got -?\d+$"):
            DiscriminatorModel(dims, weights, biases)

    @pytest.mark.parametrize("leak", [0.0, 1.0, -0.5, float("nan")])
    def test_rejects_a_leak_outside_0_1(self, leak):
        model = DiscriminatorModel.initialize((4, 8, 1), seed=0)
        words = "a finite number" if leak != leak else "greater than 0 and less than 1"
        with pytest.raises(ValueError, match=re.escape("leak must be %s, got %r" % (words, leak))):
            DiscriminatorModel(model.layer_dims, model.weights, model.biases, leak=leak)

    @pytest.mark.parametrize(
        "kind, layer, message",
        [("weights", 0, "weight shape mismatch at layer 0"),
         ("weights", 1, "weight shape mismatch at layer 1"),
         ("biases", 0, "bias shape mismatch at layer 0"),
         ("biases", 1, "bias shape mismatch at layer 1")],
    )
    def test_rejects_a_misshapen_layer(self, kind, layer, message):
        model = DiscriminatorModel.initialize((4, 8, 1), seed=0)
        arrays = {"weights": list(model.weights), "biases": list(model.biases)}
        a = arrays[kind][layer]
        arrays[kind][layer] = a.T if kind == "weights" else a[:-1]
        with pytest.raises(ValueError, match="^%s$" % message):
            DiscriminatorModel(model.layer_dims, arrays["weights"], arrays["biases"])

    def test_predict_is_clamped(self):
        model = DiscriminatorModel.initialize((2, 4, 1))
        # huge bias drives the raw sigmoid to 1; predict must stay inside (0,1)
        model.biases[-1][:] = 1e4
        p = model.predict(np.zeros((1, 2)))
        assert 0.0 < p[0] < 1.0

    @pytest.mark.parametrize("bias", [0.0, 30.0, -30.0, 1e4, -1e4])
    def test_forward_bytes_equal_predict(self, bias):
        """Both sigmoid branches (positive and negative logits) and both clamp ends."""
        model = DiscriminatorModel.initialize((6, 8, 4, 1), seed=2)
        model.biases[-1][:] = bias
        V = np.random.default_rng(3).normal(scale=4.0, size=(400, 6))
        logits = _layers(model, V)[-1]
        if bias == 0.0:
            assert (logits > 0).any() and (logits < 0).any()
        got = _forward_rows(model, V)
        assert got.tobytes() == np.array([model.predict(v[None, :])[0] for v in V]).tobytes()
        if abs(bias) > 1e3:
            assert set(got) == {PRED_EPS if bias < 0 else 1.0 - PRED_EPS}

    def test_input_dim_checked(self):
        model = DiscriminatorModel.initialize((3, 6, 1), seed=1)
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 4)))

    def test_save_load_roundtrip(self, tmp_path):
        model = DiscriminatorModel.initialize((4, 8, 3, 1), seed=9)
        path = str(tmp_path / "m.json")
        model.save(path)
        back = DiscriminatorModel.load(path)
        X = np.random.default_rng(0).normal(size=(10, 4))
        assert np.array_equal(_layers(model, X)[-1], _layers(back, X)[-1])

    @pytest.mark.parametrize("drop", ["weights", "biases"])
    def test_rejects_missing_layer(self, drop):
        model = DiscriminatorModel.initialize((4, 8, 3, 1), seed=0)
        arrays = {"weights": model.weights, "biases": model.biases}
        arrays[drop] = arrays[drop][:-1]
        with pytest.raises(ValueError, match="%s holds 2 arrays, expected 3" % drop):
            DiscriminatorModel(model.layer_dims, arrays["weights"], arrays["biases"])

    def test_load_rejects_unknown_version(self, tmp_path):
        model = DiscriminatorModel.initialize((4, 8, 1), seed=0)
        path = str(tmp_path / "m.json")
        model.save(path)
        import json

        payload = json.load(open(path))
        payload["version"] = 99
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError):
            DiscriminatorModel.load(path)


class TestLossAndGradients:
    def test_bce_known_value(self):
        # -log(0.8) for a confident correct pair, averaged
        want = -0.5 * (np.log(0.8) + np.log(0.8))
        assert bce_loss([0.8, 0.2], [1, 0]) == pytest.approx(want)

    def test_bce_rejects_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss([0.5], [1, 0])
        with pytest.raises(ValueError):
            bce_loss([], [])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            dims = (3, 5, 1) if trial % 2 else (4, 6, 3, 1)
            model = DiscriminatorModel.initialize(dims, seed=trial)
            X = rng.normal(size=(8, dims[0]))
            y = rng.integers(0, 2, size=8).astype(float)
            l2 = 0.0 if trial < 3 else 1e-3
            _, gw, gb = loss_and_grads(model, X, y, l2=l2)
            fw, fb = finite_diff_grads(model, X, y, l2)
            for a, b in zip(gw + gb, fw + fb):
                assert rel_err(a, b) <= 1e-4


def plain_loss_and_grads(model, X, y, l2):
    """Clamped BCE + L2 backprop written out with a masked sigmoid, as a byte oracle."""
    n = X.shape[0]
    acts, pre, a = [X], [], X
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.where(z > 0, z, model.leak * z)
        acts.append(a)
    z = (a @ model.weights[-1] + model.biases[-1])[:, 0]
    p_raw = np.empty_like(z)
    pos = z >= 0
    p_raw[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p_raw[~pos] = ez / (1.0 + ez)
    p = np.clip(p_raw, PRED_EPS, 1.0 - PRED_EPS)
    loss = float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))
    if l2:
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in model.weights)
    clamped = (p_raw < PRED_EPS) | (p_raw > 1.0 - PRED_EPS)
    delta = np.where(clamped, 0.0, p - y)[:, None] / n
    gw, gb = [None] * len(model.weights), [None] * len(model.biases)
    gw[-1] = acts[-1].T @ delta + l2 * model.weights[-1]
    gb[-1] = delta.sum(axis=0)
    back = delta @ model.weights[-1].T
    for i in range(len(model.weights) - 2, -1, -1):
        back = back * np.where(pre[i] > 0, 1.0, model.leak)
        gw[i] = acts[i].T @ back + l2 * model.weights[i]
        gb[i] = back.sum(axis=0)
        if i > 0:
            back = back @ model.weights[i].T
    return loss, gw, gb


class TestGradientStep:
    @pytest.mark.parametrize("leak", [0.01, 0.5, 1.0 - 2.0**-52])
    def test_leaky_relu_bytes_equal_where(self, leak):
        z = np.array([-np.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e300, np.inf, np.nan])
        want = np.where(z > 0, z, leak * z).tobytes()
        # the slope-free form max(z, leak * z), with and without a scratch array
        for scratch in (None, np.full_like(z, 7.0)):
            a = z.copy()
            assert _leaky_relu(a, leak, scratch=scratch) is a and a.tobytes() == want
        # the form that keeps the slope for backprop: where(z > 0, 1.0, leak),
        # and NaN where z is NaN
        a, slope = z.copy(), np.full_like(z, 7.0)
        assert _leaky_relu(a, leak, slope=slope) is a and a.tobytes() == want
        want_slope = np.where(z > 0, 1.0, leak)
        want_slope[np.isnan(z)] = np.nan
        assert slope.tobytes() == want_slope.tobytes()

    @pytest.mark.parametrize("dims, l2", [((5, 7, 1), 0.0), ((5, 8, 4, 1), 1e-3)])
    def test_gradients_bytes_equal_oracle(self, dims, l2):
        rng = np.random.default_rng(21)
        model = DiscriminatorModel.initialize(dims, seed=4)
        X = rng.normal(scale=2.0, size=(40, dims[0]))
        X[:6] *= 1e4  # drives these rows' sigmoid into the clamp at either end
        y = rng.integers(0, 2, size=40).astype(float)
        p_raw = _grads(_Flat(model), X, y, l2)[0]
        assert ((p_raw < PRED_EPS) | (p_raw > 1.0 - PRED_EPS)).sum() >= 2
        assert (p_raw < 0.5).any() and (p_raw > 0.5).any()
        # rows whose first pre-activations are exactly zero (zero rows under the
        # zero biases ``initialize`` gives) or subnormal, where the backprop mask
        # read off the activations must still agree with the oracle's z > 0
        edge = np.zeros((12, dims[0]))
        edge[4:8] = 1e-310 * rng.normal(size=(4, dims[0]))
        edge[8:10], edge[10:] = 5e-324, -5e-324
        pre = edge @ model.weights[0] + model.biases[0]
        assert (pre == 0).any() and ((pre != 0) & (np.abs(pre) < np.finfo(float).tiny)).any()
        for xs, ys in ((X, y), (edge, rng.integers(0, 2, size=12).astype(float))):
            want_loss, want_w, want_b = plain_loss_and_grads(model, xs, ys, l2)
            _, gw, gb = _grads(_Flat(model), xs, ys, l2)
            loss, lw, lb = loss_and_grads(model, xs, ys, l2=l2)
            assert loss == want_loss
            for got, lg, want in zip(gw + gb, lw + lb, want_w + want_b):
                assert got.tobytes() == lg.tobytes() == want.tobytes()
            # a training step's preallocated, non-zero gradient arrays are overwritten
            flat = _Flat(model)
            flat.grad[:] = 7.0
            out = flat.grads
            _, ow, ob = _grads(flat, xs, ys, l2)
            assert ow is out[0] and ob is out[1]
            for got, want in zip(ow + ob, want_w + want_b):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", [(5, 7, 1), (5, 8, 6, 4, 1)])
    @pytest.mark.parametrize("logit", [15.5, -15.5, 16.5, -16.5])
    def test_gradients_bytes_equal_oracle_near_the_clamp(self, dims, logit):
        """Every row inside 15 < |z| < 16.1, where the guard fires but no row is
        clamped, or past 16.2, where every row is clamped."""
        rng = np.random.default_rng(8)
        model = DiscriminatorModel.initialize(dims, seed=6)
        model.biases[-1][:] = logit
        X = 0.05 * rng.normal(size=(24, dims[0]))
        y = rng.integers(0, 2, size=24).astype(float)
        z = np.abs(_layers(model, X)[-1])
        assert (((z > 15.0) & (z < 16.1)) if abs(logit) < 16.0 else (z > 16.2)).all()
        want_loss, want_w, want_b = plain_loss_and_grads(model, X, y, 1e-3)
        _, gw, gb = _grads(_Flat(model), X, y, 1e-3)
        loss, lw, lb = loss_and_grads(model, X, y, l2=1e-3)
        assert loss == want_loss
        for got, lg, want in zip(gw + gb, lw + lb, want_w + want_b):
            assert got.tobytes() == lg.tobytes() == want.tobytes()


def oracle_train(model, source, target, cfg):
    """``train`` step by step: ``plain_loss_and_grads`` on each batch, ``p -= lr * g``
    per array, and the loss of every vector once per epoch.

    Returns the model, the loss history and every batch row's |logit| when
    its gradient was taken.
    """
    X = np.vstack([source, target])
    y = np.concatenate([np.zeros(len(source)), np.ones(len(target))])
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    history, logits = [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logits.append(np.abs(_layers(model, X[idx])[-1]))
            _, gw, gb = plain_loss_and_grads(model, X[idx], y[idx], cfg.l2)
            for p, g in zip(model.weights + model.biases, gw + gb):
                p -= cfg.learning_rate * g
        history.append(bce_loss(model.predict(X), y))
    return model, history, np.concatenate(logits)


def assert_same_fit(got, want):
    (model, history), (oracle, oracle_history) = got, want[:2]
    assert history == oracle_history
    for a, b in zip(model.weights + model.biases, oracle.weights + oracle.biases):
        assert a.tobytes() == b.tobytes()


class TestTrainingOracle:
    """``train`` gives the bytes of a plain step-by-step loop."""

    @pytest.mark.parametrize("dims, n_source, n_target, batch_size, l2", [
        ((5, 8, 4, 1), 23, 18, 8, 1e-3),  # 41 vectors: a last batch of 1
        ((5, 6, 1), 12, 8, 32, 0.0),  # one batch holds every vector
        ((5, 7, 3, 1), 30, 30, 32, 1e-4),  # the default batch, a last batch of 28
    ])
    def test_bytes_equal_step_by_step_loop(self, dims, n_source, n_target, batch_size, l2):
        rng = np.random.default_rng(n_source)
        src, tgt = rng.normal(size=(n_source, 5)), rng.normal(size=(n_target, 5)) + 1.0
        model = DiscriminatorModel.initialize(dims, seed=3)
        cfg = TrainConfig(learning_rate=0.05, epochs=4, batch_size=batch_size, l2=l2, seed=6)
        assert_same_fit(train(model, src, tgt, cfg), oracle_train(model, src, tgt, cfg))

    def test_bytes_equal_with_rows_past_the_clamp(self):
        rng = np.random.default_rng(12)
        src, tgt = two_blob_vectors(rng, n=25, gap=1.0)
        src[:5] *= 400.0  # logits far past the clamp at either end
        tgt[:3] *= -400.0
        model = DiscriminatorModel.initialize((5, 8, 4, 1), seed=12)
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=7, l2=1e-3, seed=2)
        want = oracle_train(model, src, tgt, cfg)
        assert (want[2] > 17.0).sum() >= 5
        assert_same_fit(train(model, src, tgt, cfg), want)

    @pytest.mark.parametrize("dims", [(5, 8, 1), (5, 8, 6, 4, 1)])
    # 40 vectors: no tail, a tail of 4, and one batch larger than the pool
    @pytest.mark.parametrize("batch_size", [8, 12, 64])
    @pytest.mark.parametrize("logit", [15.5, -15.5, 16.5, -16.5])
    def test_bytes_equal_near_and_past_the_clamp(self, dims, batch_size, logit):
        """Every row inside 15 < |z| < 16.1, where a step's guard fires but no row is
        clamped, or past 16.2, where every row is clamped."""
        rng = np.random.default_rng(len(dims))
        src, tgt = 0.05 * rng.normal(size=(22, 5)), 0.05 * rng.normal(size=(18, 5))
        model = DiscriminatorModel.initialize(dims, seed=5)
        model.biases[-1][:] = logit
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=batch_size, l2=1e-3, seed=4)
        want = oracle_train(model, src, tgt, cfg)
        z = want[2]
        assert (((z > 15.0) & (z < 16.1)) if abs(logit) < 16.0 else (z > 16.2)).all()
        assert_same_fit(train(model, src, tgt, cfg), want)

    def test_fits_of_other_shapes_in_between_keep_their_bytes(self):
        """No array a fit keeps or reuses carries over into the next fit."""
        rng = np.random.default_rng(13)
        src, tgt = two_blob_vectors(rng, n=20, gap=1.5)
        runs = [
            (DiscriminatorModel.initialize((5, 8, 4, 1), seed=1),
             TrainConfig(epochs=3, batch_size=6, l2=1e-3, seed=1)),
            (DiscriminatorModel.initialize((5, 16, 1), seed=2),
             TrainConfig(epochs=2, batch_size=16, seed=2)),
        ]
        want = [oracle_train(model, src, tgt, cfg) for model, cfg in runs]
        for _ in range(2):
            for (model, cfg), oracle in zip(runs, want):
                assert_same_fit(train(model, src, tgt, cfg), oracle)



# sha256 of fit's weights, biases and loss history for the configuration in
# test_fit_golden, recorded with numpy 2.4 and OpenBLAS on x86-64; it pins
# every float of a training run, so a different BLAS may need a new value
FIT_GOLDEN = "ff3b1af646444e8be058286e434371294f937478519b8e060d7a62fcd110418f"


def test_fit_golden():
    source, target, _ = generate(SyntheticConfig(n_source=40, n_target=60, n_eval=4, seed=3))
    model, history = fit(
        source, target, (8, 4), TrainConfig(epochs=12, batch_size=16, l2=1e-3, seed=5), seed=2
    )
    h = hashlib.sha256()
    for a in model.weights + model.biases:
        h.update(a.tobytes())
    h.update(np.asarray(history, dtype=np.float64).tobytes())
    assert h.hexdigest() == FIT_GOLDEN


class TestFitPoolRules:
    """``fit`` holds the pool rules that ``run`` and ``train-disc`` share."""

    def pools(self):
        source, target, _ = generate(SyntheticConfig(n_source=6, n_target=6, n_eval=1, seed=1))
        return source, target

    def fit(self, source, target):
        return fit(source, target, (4,), TrainConfig(epochs=1), seed=0)

    @pytest.mark.parametrize("empty", ["source", "target"])
    def test_pools_must_be_non_empty(self, empty):
        source, target = self.pools()
        pools = {"source": source, "target": target, empty: []}
        with pytest.raises(ValueError, match="source and target pools must be non-empty"):
            self.fit(pools["source"], pools["target"])

    @pytest.mark.parametrize("pool", ["within", "across"])
    def test_ids_must_be_unique_across_both_pools(self, pool):
        source, target = self.pools()
        twin = source[2] if pool == "within" else target[2]
        source.append(dataclasses.replace(twin, domain=Domain.SOURCE))
        message = "frame ids must be unique across both pools; repeated: ['%s']" % twin.id
        with pytest.raises(ValueError, match=re.escape(message)):
            self.fit(source, target)

    @pytest.mark.parametrize("pool", ["source", "target"])
    def test_frames_must_carry_their_pools_domain(self, pool):
        source, target = self.pools()
        frames = source if pool == "source" else target
        other = Domain.TARGET if pool == "source" else Domain.SOURCE
        frames[3] = dataclasses.replace(frames[3], domain=other)
        message = "frames tagged with the other pool's domain: ['%s']" % frames[3].id
        with pytest.raises(ValueError, match=re.escape(message)):
            self.fit(source, target)


class TestTraining:
    def test_separable_domains_reach_low_loss(self):
        rng = np.random.default_rng(2)
        src, tgt = two_blob_vectors(rng)
        model = DiscriminatorModel.initialize((5, 16, 1), seed=2)
        trained, history = train(model, src, tgt, TrainConfig(epochs=150, seed=2))
        assert history[-1] < 0.1
        auc = ref_auc(trained.predict(src), trained.predict(tgt))
        assert auc >= 0.99

    def test_identical_domains_stay_near_chance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 5))
        model = DiscriminatorModel.initialize((5, 16, 1), seed=3)
        _, history = train(model, X, X, TrainConfig(epochs=100, seed=3))
        assert history[-1] >= np.log(2.0) - 0.05

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(4)
        src, tgt = two_blob_vectors(rng, n=30)
        model = DiscriminatorModel.initialize((5, 8, 1), seed=4)
        cfg = TrainConfig(epochs=20, seed=4)
        a, ha = train(model, src, tgt, cfg)
        b, hb = train(model, src, tgt, cfg)
        assert ha == hb
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_train_does_not_mutate_input_model(self):
        rng = np.random.default_rng(5)
        src, tgt = two_blob_vectors(rng, n=20)
        model = DiscriminatorModel.initialize((5, 8, 1), seed=5)
        before = [w.copy() for w in model.weights]
        train(model, src, tgt, TrainConfig(epochs=5, seed=5))
        for w, orig in zip(model.weights, before):
            assert np.array_equal(w, orig)

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_returned_model_owns_its_arrays(self, epochs):
        rng = np.random.default_rng(8)
        src, tgt = two_blob_vectors(rng, n=10)
        model = DiscriminatorModel.initialize((5, 8, 4, 1), seed=8)
        trained, _ = train(model, src, tgt, TrainConfig(epochs=epochs, seed=8))
        for a in trained.weights + trained.biases:
            assert a.base is None and a.flags.owndata
        assert not any(np.shares_memory(a, b) for a in trained.weights for b in trained.biases)

    def test_zero_epochs_returns_copy(self):
        rng = np.random.default_rng(6)
        src, tgt = two_blob_vectors(rng, n=10)
        model = DiscriminatorModel.initialize((5, 8, 1), seed=6)
        trained, history = train(model, src, tgt, TrainConfig(epochs=0, seed=6))
        assert history == []
        for wa, wb in zip(trained.weights, model.weights):
            assert np.array_equal(wa, wb)

    def test_input_dim_checked(self):
        model = DiscriminatorModel.initialize((5, 8, 1), seed=0)
        with pytest.raises(ValueError, match="input dimension 4 != expected 5"):
            train(model, [np.zeros(4)], [np.ones(4)], TrainConfig(epochs=1))

    def test_empty_domain_rejected(self):
        model = DiscriminatorModel.initialize((5, 8, 1), seed=0)
        with pytest.raises(ValueError):
            train(model, [], [np.zeros(5)], TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_numerical_error(self):
        rng = np.random.default_rng(7)
        src, tgt = two_blob_vectors(rng, n=20, gap=50.0)
        model = DiscriminatorModel.initialize((5, 8, 1), seed=7)
        with pytest.raises(NumericalError):
            train(model, src, tgt, TrainConfig(learning_rate=1e20, epochs=5, seed=7))


class TestFrameScoring:
    def make_frame(self, fid, fill):
        return FrameRecord(
            id=fid,
            domain=Domain.TARGET,
            feature_map=np.full((3, 2, 2), fill),
            objectness_map=np.full((1, 2, 2), 0.5),
            roi_features=np.zeros((0, 4)),
            roi_confidences=np.zeros(0),
        )

    def test_domainness_carries_frame_id(self):
        """Each frame's score sits at that frame's position in the pool."""
        model = DiscriminatorModel.initialize((3, 4, 1), seed=0)
        frames = [self.make_frame("abc", 1.0), self.make_frame("xyz", -2.0)]
        values = domainness(model, frames)
        assert values.shape == (2,)
        assert values[0] != values[1]
        assert values.tolist() == [domainness(model, [f])[0] for f in frames]
        assert values[::-1].tolist() == domainness(model, frames[::-1]).tolist()
        assert all(0.0 < v < 1.0 for v in values)


class TestBatchedScorer:
    """``_forward_rows`` and ``domainness`` give every row the bytes it has when scored alone."""

    @staticmethod
    def per_row(model, X):
        """The pre-batching scorer: ``predict`` on one (1, d) row at a time."""
        return np.array([model.predict(x[None, :])[0] for x in X])

    @pytest.mark.parametrize("dims", [
        (6, 8, 1), (6, 1, 1), (1, 1, 1), (16, 64, 32, 1), (5, 1, 7, 1), (9, 12, 1, 6, 1),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    def test_bytes_equal_per_row_forward(self, dims, n):
        model = DiscriminatorModel.initialize(dims, seed=n)
        X = np.random.default_rng(n).normal(scale=3.0, size=(n, dims[0]))
        got = _forward_rows(model, X)
        assert got.shape == (n,)
        assert got.tobytes() == np.array([_forward_rows(model, x[None])[0] for x in X]).tobytes()
        assert got.tobytes() == self.per_row(model, X).tobytes()

    def test_rows_clamped_at_both_ends(self):
        model = DiscriminatorModel.initialize((4, 8, 3, 1), seed=4)
        model.weights[-1][:, 0] = [1e4, -1e4, 0.0]  # logits of either sign, mostly past the clamp
        X = np.random.default_rng(5).normal(size=(200, 4))
        logits = _layers(model, X)[-1]
        got = _forward_rows(model, X)
        # sigmoid(z) lies within PRED_EPS of 0 or 1 once |z| > 16.2
        assert (logits > 20).sum() > 20 and (logits < -20).sum() > 20
        assert set(got[logits > 20]) == {1.0 - PRED_EPS}
        assert set(got[logits < -20]) == {PRED_EPS}
        assert got.tobytes() == self.per_row(model, X).tobytes()

    @staticmethod
    def pool():
        source, target, _ = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=1, seed=6))
        model, _ = fit(source, target, (8, 4), TrainConfig(epochs=5, seed=1), seed=1)
        return source, target, model

    def test_pool_scores_equal_per_frame_domainness(self):
        source, target, model = self.pool()
        for frames in (source, target):
            want = [domainness(model, [f])[0] for f in frames]
            assert domainness(model, frames).tolist() == want
            oracle = self.per_row(model, np.array([scene_vector(f) for f in frames]))
            assert domainness(model, frames).tobytes() == oracle.tobytes()
        scores = score_source(source, model)
        assert [(s.frame_id, s.value) for s in scores] == [
            (f.id, domainness(model, [f])[0]) for f in source
        ]

    @pytest.mark.parametrize("config", [BankConfig(), BankConfig(pairwise_compare="max")])
    def test_sample_round_picks_equal_per_frame_scoring(self, config):
        _, target, model = self.pool()
        per_frame = _sample_round(
            target, lambda frames: np.array([reweight([f], roi_dim=16)[0] for f in frames]),
            lambda frames: [domainness(model, [f])[0] for f in frames], 7, config,
        )
        assert sample_round(target, model, 7, roi_dim=16, config=config) == per_frame

    def test_mixed_widths_name_the_first_rejected_vector(self):
        _, target, model = self.pool()
        narrow = dataclasses.replace(target[3], feature_map=target[3].feature_map[:5])
        with pytest.raises(ValueError, match=re.escape("input shape (5,) != expected (16,)")):
            domainness(model, target[:3] + [narrow] + target[4:])

    def test_empty_pool(self):
        _, _, model = self.pool()
        assert domainness(model, []).shape == (0,)
        assert score_source([], model) == []
        assert sample_round([], model, 3) == []


    def test_width_error_names_the_first_rejected_frame(self):
        _, target, model = self.pool()
        frames = list(target)
        for k in (5, 9):
            frames[k] = dataclasses.replace(frames[k], feature_map=frames[k].feature_map[:5])
        message = "input shape (5,) != expected (16,) in frame %s" % frames[5].id
        with pytest.raises(ValueError, match=re.escape(message)):
            domainness(model, frames)


def spoiled(frame, field, index, value=np.nan):
    """``frame`` with one value of one of its arrays replaced, the original untouched."""
    arr = np.array(getattr(frame, field))
    arr[index] = value
    return dataclasses.replace(frame, **{field: arr})


class TestNonFinitePools:
    """No NaN or infinity reaches scoring: each stacked pool is checked once, and the
    first offending frame in pool order is named."""

    @staticmethod
    def pools():
        source, target, _ = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=10, seed=0))
        model, _ = fit(source, target, (8, 4), TrainConfig(epochs=5, seed=0), seed=0)
        return source, target, model

    def test_roi_feature_in_sample_round(self):
        _, target, model = self.pools()
        target[0] = spoiled(target[0], "roi_features", (0, 0))
        with pytest.raises(ValueError, match="frame t00000 has a non-finite ROI vector"):
            sample_round(target, model, 5, roi_dim=16)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_feature_map_in_sample_round(self, value):
        _, target, model = self.pools()
        for k in (3, 7):
            target[k] = spoiled(target[k], "feature_map", (0, 1, 1), value)
        with pytest.raises(ValueError, match="frame t00003 has a non-finite scene vector"):
            sample_round(target, model, 5, roi_dim=16)

    def test_objectness_in_score_source(self):
        source, _, model = self.pools()
        source[4] = spoiled(source[4], "objectness_map", (1, 0, 2))
        with pytest.raises(ValueError, match="frame %s has a non-finite scene vector" % source[4].id):
            score_source(source, model)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_fit_names_the_frame_before_training(self, side):
        source, target, _ = self.pools()
        pool = source if side == "source" else target
        pool[6] = spoiled(pool[6], "feature_map", (2, 0, 0))
        with pytest.raises(ValueError, match="frame %s has a non-finite scene vector" % pool[6].id):
            fit(source, target, (8, 4), TrainConfig(epochs=5, seed=0), seed=0)


@pytest.mark.parametrize("field", ["learning_rate", "l2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_a_non_finite_float(field, value):
    message = "%s must be a finite number, got %r" % (field, value)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        TrainConfig(**{field: value})
