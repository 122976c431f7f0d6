import hashlib

import numpy as np
import pytest

from bidal import (
    DiscriminatorModel,
    Domain,
    FrameRecord,
    NumericalError,
    SyntheticConfig,
    TrainConfig,
    bce_loss,
    domainness,
    forward,
    generate,
    loss_and_grads,
    train,
)
from bidal.discriminator import PRED_EPS, _grads, _leaky_relu, fit

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

    def test_predict_is_clamped(self):
        model = DiscriminatorModel.initialize((2, 4, 1))
        # huge bias drives the raw sigmoid to 1; predict must stay inside (0,1)
        model.biases[-1][:] = 1e4
        p = model.predict(np.zeros((1, 2)))
        assert 0.0 < p[0] < 1.0

    def test_forward_matches_predict(self):
        model = DiscriminatorModel.initialize((3, 6, 1), seed=1)
        v = np.array([0.2, -1.0, 3.0])
        assert forward(model, v) == model.predict(v[None, :])[0]

    @pytest.mark.parametrize("bias", [0.0, 30.0, -30.0, 1e4, -1e4])
    def test_forward_bytes_equal_predict(self, bias):
        """Both sigmoid branches (positive and negative logits) and both clamp ends."""
        model = DiscriminatorModel.initialize((6, 8, 4, 1), seed=2)
        model.biases[-1][:] = bias
        V = np.random.default_rng(3).normal(scale=4.0, size=(400, 6))
        logits = model.logits(V)
        if bias == 0.0:
            assert (logits > 0).any() and (logits < 0).any()
        got = np.array([forward(model, v) for v in V])
        assert got.tobytes() == np.array([model.predict(v[None, :])[0] for v in V]).tobytes()
        if abs(bias) > 1e3:
            assert set(got) == {PRED_EPS if bias < 0 else 1.0 - PRED_EPS}

    def test_forward_checks_input_dim(self):
        model = DiscriminatorModel.initialize((3, 6, 1), seed=1)
        with pytest.raises(ValueError):
            forward(model, np.zeros(4))

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
        assert np.array_equal(model.logits(X), back.logits(X))

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
        assert _leaky_relu(z, leak).tobytes() == np.where(z > 0, z, leak * z).tobytes()

    @pytest.mark.parametrize("dims, l2", [((5, 7, 1), 0.0), ((5, 8, 4, 1), 1e-3)])
    def test_gradients_bytes_equal_oracle(self, dims, l2):
        rng = np.random.default_rng(21)
        model = DiscriminatorModel.initialize(dims, seed=4)
        X = rng.normal(scale=2.0, size=(40, dims[0]))
        X[:6] *= 1e4  # drives these rows' sigmoid into the clamp at either end
        y = rng.integers(0, 2, size=40).astype(float)
        p_raw = _grads(model, X, y, l2)[0]
        assert ((p_raw < PRED_EPS) | (p_raw > 1.0 - PRED_EPS)).sum() >= 2
        assert (p_raw < 0.5).any() and (p_raw > 0.5).any()
        want_loss, want_w, want_b = plain_loss_and_grads(model, X, y, l2)
        _, gw, gb = _grads(model, X, y, l2)
        loss, lw, lb = loss_and_grads(model, X, y, l2=l2)
        assert loss == want_loss
        for got, lg, want in zip(gw + gb, lw + lb, want_w + want_b):
            assert got.tobytes() == lg.tobytes() == want.tobytes()


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
        model = DiscriminatorModel.initialize((3, 4, 1), seed=0)
        s = domainness(model, self.make_frame("abc", 1.0))
        assert s.frame_id == "abc"
        assert 0.0 < s.value < 1.0
