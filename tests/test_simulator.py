import dataclasses
import hashlib
import json
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bidal import (
    BudgetSchedule,
    DiscriminatorModel,
    Domain,
    FrameRecord,
    ProxyDetector,
    SyntheticConfig,
    TrainConfig,
    benchmark,
    generate,
    reweight,
    sample_round,
    scene_vector,
    train,
    validate_frame,
)
import bidal.simulator
from bidal.core import _build
from bidal.simulator import (STRATEGIES, BenchFile, BenchmarkReport, BenchRow, _descend,
                             _one_hot, _summarize, default_schedule, frame_entropy,
                             paired_permutation_pvalue, run_strategy, sample_committee,
                             sample_entropy, sample_random, selection_diversity)
from bidal.target_sampler import cosine

from .reference import ref_binary_entropy, ref_rank_ids


class TestGenerate:
    def test_counts_domains_and_validity(self):
        cfg = SyntheticConfig(n_source=25, n_target=30, n_eval=9, seed=0)
        src, tgt, ev = generate(cfg)
        assert (len(src), len(tgt), len(ev)) == (25, 30, 9)
        assert all(f.domain == Domain.SOURCE for f in src)
        assert all(f.domain == Domain.TARGET for f in tgt + ev)
        for f in src + tgt + ev:
            assert validate_frame(f) == []
            assert f.hidden_label in (0, 1, 2)

    def test_deterministic_per_seed(self):
        cfg = SyntheticConfig(n_source=10, n_target=10, n_eval=6, seed=5)
        a = generate(cfg)
        b = generate(cfg)
        for pa, pb in zip(a, b):
            for fa, fb in zip(pa, pb):
                assert fa.id == fb.id
                assert np.array_equal(fa.feature_map, fb.feature_map)
                assert np.array_equal(fa.roi_features, fb.roi_features)
                assert fa.hidden_label == fb.hidden_label

    def test_different_seeds_differ(self):
        a = generate(SyntheticConfig(n_source=5, n_target=5, n_eval=3, seed=0))
        b = generate(SyntheticConfig(n_source=5, n_target=5, n_eval=3, seed=1))
        assert not np.array_equal(a[0][0].feature_map, b[0][0].feature_map)

    def test_eval_is_cluster_balanced(self):
        cfg = SyntheticConfig(n_source=5, n_target=5, n_eval=30, seed=2)
        _, _, ev = generate(cfg)
        counts = np.bincount([f.hidden_label for f in ev], minlength=3)
        assert counts.tolist() == [10, 10, 10]

    def test_domain_shift_separates_scene_vectors(self):
        cfg = SyntheticConfig(n_source=150, n_target=150, n_eval=3, domain_shift=6.0, seed=3)
        src, tgt, _ = generate(cfg)
        model = DiscriminatorModel.initialize((16, 16, 1), seed=3)
        trained, hist = train(
            model,
            [scene_vector(f) for f in src],
            [scene_vector(f) for f in tgt],
            TrainConfig(epochs=60, seed=3),
        )
        assert hist[-1] < 0.3

    def test_zero_shift_keeps_domains_mixed(self):
        cfg = SyntheticConfig(n_source=100, n_target=100, n_eval=3, domain_shift=0.0, seed=4)
        src, tgt, _ = generate(cfg)
        model = DiscriminatorModel.initialize((16, 16, 1), seed=4)
        _, hist = train(
            model,
            [scene_vector(f) for f in src],
            [scene_vector(f) for f in tgt],
            TrainConfig(epochs=40, seed=4),
        )
        assert hist[-1] > 0.4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_source=0)
        with pytest.raises(ValueError):
            SyntheticConfig(label_noise=0.7)
        with pytest.raises(ValueError):
            SyntheticConfig(cluster_skew=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(domain_shift=-1.0)

    @pytest.mark.parametrize("field", ["domain_shift", "roi_noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_config_rejects_a_non_finite_float(self, field, value):
        message = "%s must be a finite number, got %r" % (field, value)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            SyntheticConfig(**{field: value})


# sha256 of generate's output over seeds 0-7 per config variant: each frame's
# id, domain and hidden label, and each array's dtype, shape and bytes.
# Recorded before generate's per-frame path was rewritten, so that passing
# proves the rewrite byte-identical.
GENERATE_VARIANTS = {
    "default": {},
    "label-noise": {"label_noise": 0.2},
    "no-shift": {"domain_shift": 0.0},
    "wide-shift": {"domain_shift": 5.0},
    "skew": {"cluster_skew": 0.5},
    "one-cluster": {"clusters_per_domain": 1, "label_noise": 0.2},
    "small-dims": {"feature_dims": (3, 2, 5, 1, 4)},
    "more-clusters-than-dims": {
        "clusters_per_domain": 6, "feature_dims": (3, 2, 5, 1, 3), "label_noise": 0.3,
        "roi_noise": 0.3,
    },
    "roi-noise": {"roi_noise": 2.0},
    "pools-over-a-block": {"n_source": 300, "n_target": 520, "n_eval": 260, "label_noise": 0.1},
}
GENERATE_GOLDEN = {
    "default": "d15c286eb3a6b8857dada989fb04378cac56ef495d8d3751d6acf1f67211f24f",
    "label-noise": "ff4724a3ca7c0b02267b1aac9509da83542bf279602d90e5d414a694e296df75",
    "more-clusters-than-dims": "2e4ebc3fd5031489ad5b888ec049681c0bde6b26c700360109772a2ac23b6d96",
    "no-shift": "800f386f9135dfb087ae221697db83dc701c4982cc67310213587d1e64d0d519",
    "one-cluster": "5e3cc088f114ea45a2f5a51def1e3afd9a125d45ca5d5cff3ae36c64cd27ba6c",
    "pools-over-a-block": "d668e641ca0172e82e4c5c4bcea966db18dded90b147ee5991b9019fa035f8f4",
    "roi-noise": "7b6c9cb388f5e173cb8e0b20c6319eacedae9469ba8f83a9456ddd8fe643d7e6",
    "skew": "d644997259bac48bf5771fde7fc06cf08a8faec8814180aa936ff13737b9ca19",
    "small-dims": "aa60a3286cea021bb5431c23dd62742612891e2efc5d892bfda2bef879dfb959",
    "wide-shift": "9a2e94ffb5980d83af94d9a42118af5a7eb62a93d61ae0af1a7e517fbee79ea8",
}


def _generate_digest(overrides) -> str:
    h = hashlib.sha256()
    for seed in range(8):
        cfg = SyntheticConfig(**{"n_source": 20, "n_target": 20, "n_eval": 9, "seed": seed,
                                 **overrides})
        for frames in generate(cfg):
            for f in frames:
                h.update(repr((f.id, f.domain.value, f.hidden_label)).encode())
                for arr in (f.feature_map, f.objectness_map, f.roi_features,
                            f.roi_confidences):
                    h.update(repr((arr.dtype.str, arr.shape)).encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("variant", sorted(GENERATE_VARIANTS))
def test_generate_golden(variant):
    assert _generate_digest(GENERATE_VARIANTS[variant]) == GENERATE_GOLDEN[variant]


@pytest.mark.parametrize("block", [1, 7])
def test_generate_bytes_do_not_depend_on_its_block(monkeypatch, block):
    monkeypatch.setattr(bidal.simulator, "GENERATE_BLOCK", block)
    assert _generate_digest(GENERATE_VARIANTS["label-noise"]) == GENERATE_GOLDEN["label-noise"]


def _skewed(skew, k):
    p = skew ** np.arange(k)
    return p / p.sum()


class TestNumpyAssumptionsOfGenerate:
    """What generate's draws and arithmetic assume of numpy: each form gives the same bytes as
    the call it stands for, and a draw leaves the generator in the same state."""

    @pytest.mark.parametrize("p", [
        _skewed(0.6, 3), _skewed(0.5, 5), _skewed(1.0, 4), np.array([1.0]),
        np.array([0.1, 0.2, 0.7]),
    ], ids=["skew-0.6", "skew-0.5", "uniform", "one-cluster", "uneven"])
    def test_choice_with_p_is_a_cdf_search(self, p):
        cdf = bidal.simulator._cdf(p)
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                assert int(cdf.searchsorted(b.random(), side="right")) == a.choice(len(p), p=p)
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("low, high", [(0.2, 0.8), (0.0, 1.0)])
    def test_scalar_uniform_is_a_scaled_random(self, low, high):
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                want = a.uniform(low, high)
                assert repr(low + (high - low) * b.random()) == repr(want)
            assert a.bit_generator.state == b.bit_generator.state

    def test_uniform_array_is_a_scaled_random_array_scaled_later(self):
        """generate scales a block's ``random(k)`` draws at once, after other draws."""
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want, drawn = [], []
            for k in (1, 5, 3):
                want.append(a.uniform(0.3, 1.0, size=k))
                drawn.append(b.random(k))
            got = 0.3 + (1.0 - 0.3) * np.concatenate(drawn)
            assert got.tobytes() == np.concatenate(want).tobytes()
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("head, tail", [(16, (16, 4, 4)), (3, (3, 2, 5))])
    def test_one_normal_call_draws_two_calls_values(self, head, tail):
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = np.concatenate([a.normal(size=head), a.normal(size=tail).ravel()])
            got = b.normal(size=head + int(np.prod(tail)))
            assert got.tobytes() == want.tobytes()
            assert a.bit_generator.state == b.bit_generator.state

    def test_norm_forms(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            v = rng.normal(size=int(rng.integers(1, 20)))
            assert np.sqrt(v.dot(v)).tobytes() == np.linalg.norm(v).tobytes()
            x = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 20))))
            rows = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
            assert rows.tobytes() == np.linalg.norm(x, axis=1, keepdims=True).tobytes()

    def test_row_norms_of_a_block_are_each_frames_row_norms(self):
        """generate normalizes a block's stacked ROI rows in one reduction."""
        rng = np.random.default_rng(0)
        for d in (1, 3, 4, 16, 17, 64):
            frames = [rng.normal(size=(int(rng.integers(1, 6)), d)) for _ in range(300)]
            block = np.concatenate(frames)
            rows = np.sqrt(np.add.reduce(block * block, axis=1, keepdims=True))
            each = np.concatenate([np.linalg.norm(x, axis=1, keepdims=True) for x in frames])
            assert rows.tobytes() == each.tobytes()

    def test_clip_form(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0.2, 0.8) + 0.4 * rng.normal(size=(2, 4, 4))
            want = np.clip(x, 1e-4, 1.0 - 1e-4)
            np.minimum(np.maximum(x, 1e-4, out=x), 1.0 - 1e-4, out=x)
            assert x.tobytes() == want.tobytes()


class TestBaselineSamplers:
    def frames(self, n=20, seed=0):
        cfg = SyntheticConfig(n_source=5, n_target=n, n_eval=3, seed=seed)
        return generate(cfg)[1]

    def test_random_is_seeded_subset(self):
        frames = self.frames()
        a = sample_random(frames, 5, seed=1)
        b = sample_random(frames, 5, seed=1)
        c = sample_random(frames, 5, seed=2)
        assert a == b
        assert a != c
        assert len(set(a)) == 5
        assert set(a) <= {f.id for f in frames}

    def test_random_budget_edge_cases(self):
        frames = self.frames(n=4)
        assert sample_random(frames, 0, seed=0) == []
        assert sample_random(frames, 99, seed=0) == sorted(f.id for f in frames)

    def test_entropy_matches_brute_force(self):
        frames = self.frames(seed=1)
        got = sample_entropy(frames, 7, frame_entropy)
        want = ref_rank_ids([(f.id, frame_entropy(f)) for f in frames])[:7]
        assert got == want

    def test_frame_entropy_oracle(self):
        frames = self.frames(seed=2)
        for f in frames[:10]:
            want = np.mean(
                [ref_binary_entropy(float(c)) for c in f.roi_confidences]
            )
            assert frame_entropy(f) == pytest.approx(want, abs=1e-6)
        no_rois = dataclasses.replace(frames[0], roi_features=np.zeros((0, 16)),
                                      roi_confidences=np.zeros(0))
        assert frame_entropy(no_rois) == 0.0

    def test_committee_contract(self):
        cfg = SyntheticConfig(n_source=40, n_target=30, n_eval=3, seed=3)
        src, tgt, _ = generate(cfg)
        det = ProxyDetector(n_classes=3, roi_dim=16)
        X = det.roi_rows(src)
        y = np.array([f.hidden_label for f in src])
        a = sample_committee(tgt, det.roi_rows, X, y, 3, 6, seed=0)
        b = sample_committee(tgt, det.roi_rows, X, y, 3, 6, seed=0)
        assert a == b
        assert len(set(a)) == 6
        assert set(a) <= {f.id for f in tgt}
        assert sample_committee(tgt, det.roi_rows, X, y, 3, 0, seed=0) == []

    @pytest.mark.parametrize("label", [-1, 3])
    def test_committee_rejects_a_label_outside_its_classes(self, label):
        src, tgt, _ = generate(SyntheticConfig(n_source=8, n_target=4, n_eval=1, seed=3))
        det = ProxyDetector(n_classes=3, roi_dim=16)
        X = det.roi_rows(src)
        y = np.array([f.hidden_label for f in src])
        y[5] = label
        with pytest.raises(ValueError, match="committee label %d is not a class index below 3"
                                             % label):
            sample_committee(tgt, det.roi_rows, X, y, 3, 2, seed=0)


@pytest.mark.parametrize("label", [3, 7, -1, None])
def test_proxy_detector_rejects_a_label_outside_its_classes(label):
    src = generate(SyntheticConfig(n_source=8, n_target=2, n_eval=2, seed=0))[0]
    det = ProxyDetector(n_classes=3, roi_dim=16)
    labeled = [(f, f.hidden_label) for f in src]
    labeled[5] = (src[5], label)
    message = "frame %r has label %r, not a class index below the detector's 3 classes"
    with pytest.raises(ValueError, match=re.escape(message % (src[5].id, label))):
        det.finetune(det.pretrain(src[:5]), labeled, 1)
    src[5] = dataclasses.replace(src[5], hidden_label=label)
    with pytest.raises(ValueError, match=re.escape(message % (src[5].id, label))):
        det.pretrain(src)



@pytest.mark.parametrize("labels, n_classes", [
    ([0, 2, 1, 2, 0], 3), ([4], 5), ([], 3), ([1999, 0, 7, 7], 2000),
])
def test_one_hot_bytes_equal_identity_rows(labels, n_classes):
    labels = np.array(labels, dtype=int)
    got = _one_hot(labels, n_classes)
    assert got.shape == (len(labels), n_classes)
    assert got.tobytes() == np.eye(n_classes)[labels].tobytes()


def test_wide_detector_allocates_no_identity_matrix():
    """A 2000-class finetune on three used labels: np.eye(2000) alone would take 32 MB."""
    src = generate(SyntheticConfig(n_source=30, n_target=2, n_eval=2, seed=0))[0]
    det = ProxyDetector(n_classes=2000, roi_dim=16, pretrain_epochs=2)
    labeled = [(f, [0, 1, 1999][i % 3]) for i, f in enumerate(src)]
    tracemalloc.start()
    try:
        state = det.finetune(det.pretrain(src[:3]), labeled, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state["W"].shape == (16, 2000)
    assert peak < 4e6


def _plain_softmax(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _plain_descend(X, Y, w, W, b, l2, epochs):
    """``_descend`` as the plain expressions, each allocating its result."""
    n = X.shape[0]
    for _ in range(epochs):
        err = w[:, None] * (_plain_softmax(X @ W + b) - Y) / n
        W -= bidal.simulator.SOFTMAX_LR * (X.T @ err + l2 * W)
        b -= bidal.simulator.SOFTMAX_LR * err.sum(axis=0)


def _descend_inputs(K, n, seed, d=16):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = _one_hot(rng.integers(0, K, size=n), K)
    w = rng.uniform(0.2, 3.0, size=n)
    W = 0.1 * rng.normal(size=(d, K))
    return X, Y, w / w.mean(), W, 0.1 * rng.normal(size=K)


def _descend_both(X, Y, w, W, b, l2, epochs):
    """(plain, in place): each run's final W and b as bytes."""
    out = []
    for run in (_plain_descend, _descend):
        W_run, b_run = W.copy(), b.copy()
        run(X, Y, w, W_run, b_run, l2, epochs)
        out.append((W_run.tobytes(), b_run.tobytes()))
    return out


class TestDescend:
    """``_descend`` works in place and keeps the bytes of the plain expressions."""

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [1, 31, 150, 600])
    @pytest.mark.parametrize("K", [1, 2, 3, 8, 10, 40])
    def test_bytes_equal_the_plain_expressions(self, K, n, l2):
        plain, in_place = _descend_both(*_descend_inputs(K, n, seed=K * 1000 + n), l2, 6)
        assert in_place == plain

    def test_tied_and_zero_logits(self):
        """Rows whose logits tie, and rows whose max logit is a zero of either sign.

        The tiny rows' products underflow to zeros, negative ones for rows 8-11
        under a fused multiply-add gemm kernel; with ``b``'s signed zeros the top
        two logits of such a row are zeros of one sign or of both.
        """
        X, Y, w, W, _ = _descend_inputs(3, 40, seed=2)
        X[:8] = 0.0  # logits = b: a tie of the two top classes
        X[8:12] = 1e-200
        X[12:16] = -1e-200
        W[:, :2] = -1e-200
        X[16:20] = X[20:24]  # duplicate rows
        for b in ([-0.0, -0.0, -2.0], [-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [0.5, 0.5, 0.5]):
            b = np.array(b)
            logits = X @ W + b
            assert (logits[:16].max(axis=1) == b.max()).all()
            plain, in_place = _descend_both(X, Y, w, W, b, 1e-3, 4)
            assert in_place == plain

    @pytest.mark.parametrize("K", [1, 2, 3, 10, 40])
    def test_max_of_a_transposed_copy_is_the_row_max(self, K):
        Z = np.random.default_rng(K).normal(size=(97, K))
        Z[:10] = 0.25  # ties
        Z[10:20, :] = -0.0
        Z[20:30, 0] = 0.0
        rows = np.maximum.reduce(Z.T.copy(), axis=0)
        assert np.array_equal(rows, Z.max(axis=1))
        assert rows[30:].tobytes() == Z[30:].max(axis=1).tobytes()

    def test_exp_erases_the_sign_of_a_zero_shift(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, -3.5, -745.2, -750.0, 2.0, -np.inf])
        assert np.exp(x - 0.0).tobytes() == np.exp(x - (-0.0)).tobytes()


def _diversity_frame(fid, vec):
    return FrameRecord(
        id=fid, domain=Domain.TARGET, feature_map=np.zeros((2, 2, 2)),
        objectness_map=np.full((1, 2, 2), 0.5), roi_features=np.array([vec], dtype=np.float64),
        roi_confidences=np.array([1.0]),
    )


def test_selection_diversity_equals_mean_of_cosine_distances():
    """Near-zero vectors (under the norm floor) and exact duplicates included."""
    rng = np.random.default_rng(8)
    vecs = list(rng.normal(size=(30, 6)) * rng.uniform(0.01, 100.0, size=(30, 1)))
    vecs += [vecs[3], vecs[3], vecs[17], np.full(6, 1e-14), np.zeros(6), np.full(6, 2e-12)]
    frames = {"f%02d" % i: _diversity_frame("f%02d" % i, v) for i, v in enumerate(vecs)}
    ids = sorted(frames)
    rows = list(reweight([frames[i] for i in ids], roi_dim=6))
    assert sum(np.linalg.norm(r) < 1e-12 for r in rows) == 2
    want = float(np.mean([1.0 - cosine(rows[i], rows[j])
                          for i in range(len(rows)) for j in range(i + 1, len(rows))]))
    assert selection_diversity(np.stack(rows)) == want
    assert selection_diversity(np.stack(rows[:1])) == 0.0


class TestNoLabelLeakage:
    def test_samplers_ignore_hidden_label(self):
        # every sampler must produce identical output when labels are hidden
        rng = np.random.default_rng(0)
        for trial in range(10):
            cfg = SyntheticConfig(
                n_source=20, n_target=25, n_eval=3, seed=100 + trial
            )
            src, tgt, _ = generate(cfg)
            stripped = [dataclasses.replace(f, hidden_label=None) for f in tgt]
            budget = int(rng.integers(1, 6))
            seed = int(rng.integers(0, 1000))
            assert sample_random(tgt, budget, seed) == sample_random(
                stripped, budget, seed
            )
            assert sample_entropy(tgt, budget, frame_entropy) == sample_entropy(
                stripped, budget, frame_entropy
            )
            model = DiscriminatorModel.initialize((16, 8, 1), seed=seed)
            assert sample_round(tgt, model, budget, roi_dim=16) == sample_round(
                stripped, model, budget, roi_dim=16
            )


class TestStatistics:
    def test_pvalue_small_for_consistent_wins(self):
        diffs = [0.05, 0.04, 0.06, 0.05, 0.07, 0.04, 0.05, 0.06, 0.03, 0.05]
        assert paired_permutation_pvalue(diffs) < 0.01

    def test_pvalue_large_for_noise(self):
        rng = np.random.default_rng(0)
        diffs = rng.normal(0.0, 1.0, size=20)
        assert paired_permutation_pvalue(diffs) > 0.05

    def test_pvalue_is_deterministic(self):
        diffs = [0.1, -0.1, 0.2, 0.05]
        assert paired_permutation_pvalue(diffs) == paired_permutation_pvalue(diffs)


class TestScheduleAndBenchmark:
    def test_default_schedule_budget_conserved(self):
        for budget, frac in [(1, 0.01), (3, 0.01), (20, 0.05), (100, 0.05)]:
            s = default_schedule(budget, frac)
            assert s.total_budget == budget

    def test_run_strategy_unknown_rejected(self):
        cfg = SyntheticConfig(n_source=10, n_target=10, n_eval=3, seed=0)
        src, tgt, ev = generate(cfg)
        with pytest.raises(ValueError):
            run_strategy(
                "magic", src, tgt, ev, BudgetSchedule(1, (2,), (0,)),
                seed=0, oracle=ProxyDetector(n_classes=3, roi_dim=16),
            )

    def test_benchmark_smoke(self):
        cfg = SyntheticConfig(n_source=40, n_target=60, n_eval=30, seed=0)
        report = benchmark(
            cfg,
            strategies=("random", "bidomain"),
            seeds=(0, 1),
            budget_fracs=(0.05,),
            disc_epochs=30,
        )
        assert len(report.rows) == 4  # 2 strategies x 2 seeds x 1 budget
        assert set(report.summary["mean_accuracy"]) == {"random", "bidomain"}
        assert "bidomain" in report.summary["pvalue_vs_random"]
        text = report.to_json()
        assert text == report.to_json()  # stable serialization
        # what to_json writes matches its declaration, which ``bidal report`` reads
        _build(BenchFile, json.loads(text), "summary", {})

    @pytest.mark.parametrize(
        "field, message",
        [("seeds", "seed"), ("strategies", "strategy"), ("budget_fracs", "budget fraction")],
    )
    def test_benchmark_rejects_empty_lists(self, field, message):
        cfg = SyntheticConfig(n_source=10, n_target=10, n_eval=5, seed=0)
        kwargs = dict(strategies=("random",), seeds=(0,), budget_fracs=(0.05,))
        kwargs[field] = ()
        with pytest.raises(ValueError, match="need at least one %s" % message):
            benchmark(cfg, **kwargs)

    def test_benchmark_rejects_unknown_strategy_before_generating(self, monkeypatch):
        def generate_nothing(cfg):
            raise AssertionError("generate ran before the strategies were checked")

        monkeypatch.setattr(bidal.simulator, "generate", generate_nothing)
        cfg = SyntheticConfig(n_source=10, n_target=10, n_eval=5, seed=0)
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            benchmark(cfg, strategies=("random", "nope"), seeds=(0,), budget_fracs=(0.05,))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(seeds=(0, 1, 0)), "seed 0 is repeated"),
        (dict(strategies=("random", "bidomain", "random")), "strategy 'random' is repeated"),
        (dict(budget_fracs=(0.01, 0.02)),
         "budget fractions 0.01 and 0.02 both give budget 1 of 40 target frames"),
        (dict(budget_fracs=(0.05, 0.25, 0.05)),
         "budget fractions 0.05 and 0.05 both give budget 2 of 40 target frames"),
    ], ids=["seed", "strategy", "budget", "fraction"])
    def test_benchmark_rejects_a_repeated_cell_before_generating(self, monkeypatch, kwargs,
                                                                 message):
        def generate_nothing(cfg):
            raise AssertionError("generate ran before the cells were checked")

        monkeypatch.setattr(bidal.simulator, "generate", generate_nothing)
        cfg = SyntheticConfig(n_source=10, n_target=40, n_eval=5, seed=0)
        args = dict(strategies=("random",), seeds=(0,), budget_fracs=(0.05,))
        args.update(kwargs)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            benchmark(cfg, **args)

    @pytest.mark.parametrize("frac", [-0.5, 0.0, 1.5, float("nan")])
    def test_benchmark_rejects_fraction_outside_unit_interval(self, frac):
        cfg = SyntheticConfig(n_source=10, n_target=10, n_eval=5, seed=0)
        with pytest.raises(ValueError, match=r"budget fractions must lie in \(0, 1\]"):
            benchmark(cfg, strategies=("random",), seeds=(0,), budget_fracs=(0.05, frac))


# Picks and eval accuracies recorded before the baselines moved onto the
# pipeline's round loop (SyntheticConfig(30, 40, 20, seed=3), seed 4).
GOLDEN_RUNS = {
    ("random", 2): (["t00029", "t00020"], 0.75),
    ("entropy", 2): (["t00001", "t00004"], 0.8),
    ("committee", 2): (["t00013", "t00030"], 0.7),
    ("bidomain", 2): (["t00002", "t00022"], 0.8),
    ("random", 10): (
        ["t00028", "t00037", "t00023", "t00019", "t00035",
         "t00016", "t00027", "t00008", "t00026", "t00039"],
        0.8,
    ),
    ("entropy", 10): (
        ["t00001", "t00004", "t00035", "t00037", "t00010",
         "t00026", "t00008", "t00018", "t00003", "t00002"],
        0.95,
    ),
    ("committee", 10): (
        ["t00013", "t00020", "t00030", "t00032", "t00033",
         "t00029", "t00019", "t00034", "t00024", "t00012"],
        0.7,
    ),
    ("bidomain", 10): (
        ["t00022", "t00002", "t00036", "t00006", "t00008",
         "t00024", "t00026", "t00032", "t00021", "t00019"],
        0.9,
    ),
}


@pytest.mark.parametrize("strategy, budget", sorted(GOLDEN_RUNS))
def test_run_strategy_golden(strategy, budget):
    src, tgt, ev = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=20, seed=3))
    schedule = default_schedule(budget, 0.01 if budget == 2 else 0.25)
    report = run_strategy(
        strategy, src, tgt, ev, schedule, seed=4, oracle=ProxyDetector(n_classes=3, roi_dim=16),
        disc_epochs=20,
    )
    assert (report.labeled_target, report.final_metric) == GOLDEN_RUNS[strategy, budget]
    assert [r.round for r in report.rounds] == list(range(schedule.rounds))
    assert [r.budget for r in report.rounds] == list(schedule.per_round)
    assert [i for r in report.rounds for i in r.selected] == report.labeled_target


# sha256 of the report's JSON for test_benchmark_golden's sweep, recorded before
# each run kept its frames' ROI rows, entropies and domainness scores
BENCHMARK_GOLDEN = "56c30418fec9d8e624a9e7ddc027640a5527bfb32f9b215b45308fb4b448dd92"


def test_benchmark_golden():
    """All four strategies at 2 and 5 rounds (budgets 2 and 6 of 120 frames)."""
    report = benchmark(
        SyntheticConfig(n_source=40, n_target=120, n_eval=30, seed=2),
        strategies=("random", "entropy", "committee", "bidomain"),
        seeds=(0, 1),
        budget_fracs=(0.02, 0.05),
        disc_epochs=10,
    )
    assert {r["budget"] for r in report.rows} == {2, 6}
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == BENCHMARK_GOLDEN


@pytest.mark.parametrize(
    "strategy, counted", [("entropy", "frame_entropy"), ("random", "reweight")]
)
def test_per_frame_work_done_once_per_run(monkeypatch, strategy, counted):
    """Entropies and the detector's ROI rows are computed once per frame per run;
    ``frame_entropy`` takes one frame, ``reweight`` a pool."""
    calls = Counter()
    real = getattr(bidal.simulator, counted)

    def counting(frames, *args, **kwargs):
        calls.update(f.id for f in (frames if counted == "reweight" else [frames]))
        return real(frames, *args, **kwargs)

    monkeypatch.setattr(bidal.simulator, counted, counting)
    src, tgt, ev = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=20, seed=3))
    schedule = default_schedule(10, 0.25)
    assert schedule.rounds == 5
    run_strategy(strategy, src, tgt, ev, schedule, seed=4,
                 oracle=ProxyDetector(n_classes=3, roi_dim=16))
    assert calls and max(calls.values()) == 1
    assert strategy != "entropy" or set(calls) == {f.id for f in tgt}


def test_a_shared_detector_reweights_each_frame_once(monkeypatch):
    """The detector is the one source of ROI rows: two ``bidomain`` runs and a
    ``committee`` run that share it re-weight each frame once in total, under
    whichever module's name a caller reaches ``reweight``."""
    calls = Counter()

    def counting(frames, *args, **kwargs):
        calls.update(f.id for f in frames)
        return reweight(frames, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bidal" or name.startswith("bidal."):
            for attr, value in list(vars(module).items()):
                if value is reweight:
                    monkeypatch.setattr(module, attr, counting)
    src, tgt, ev = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=20, seed=3))
    det = ProxyDetector(n_classes=3, roi_dim=16)
    for strategy, seed in (("bidomain", 4), ("bidomain", 5), ("committee", 4)):
        run_strategy(strategy, src, tgt, ev, default_schedule(10, 0.25), seed=seed, oracle=det,
                     disc_epochs=5)
    assert set(calls) == {f.id for f in src + tgt + ev}
    assert max(calls.values()) == 1


def test_roi_rows_of_no_frames():
    assert ProxyDetector(n_classes=3, roi_dim=16).roi_rows([]).shape == (0, 16)


@pytest.mark.parametrize("strategy", ["committee", "entropy"])
def test_baselines_pick_through_the_public_samplers(monkeypatch, strategy):
    """Each round calls ``sample_<strategy>`` by its module name, so a wrapper sees it."""
    name = "sample_" + strategy
    calls = []
    real = getattr(bidal.simulator, name)

    def counting(unlabeled, *args):
        calls.append(len(unlabeled))
        return real(unlabeled, *args)

    monkeypatch.setattr(bidal.simulator, name, counting)
    src, tgt, ev = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=20, seed=3))
    schedule = default_schedule(2, 0.01)
    report = run_strategy(strategy, src, tgt, ev, schedule, seed=4,
                          oracle=ProxyDetector(n_classes=3, roi_dim=16))
    assert calls == [40, 39]
    assert (report.labeled_target, report.final_metric) == GOLDEN_RUNS[strategy, 2]


def _pretrain_fits(monkeypatch):
    """A list that gets one entry per pretrain fit (a finetune of pretrain's epoch count)."""
    fits = []
    real = ProxyDetector.finetune

    def counting(self, state, labeled, epochs):
        if epochs == self.pretrain_epochs:
            fits.append([f.id for f, _ in labeled])
        return real(self, state, labeled, epochs)

    monkeypatch.setattr(ProxyDetector, "finetune", counting)
    return fits


def test_benchmark_bytes_equal_a_fresh_detector_per_run(monkeypatch):
    """A seed's runs share one detector, with the bytes of one detector per run."""
    cfg = SyntheticConfig(n_source=40, n_target=60, n_eval=20, seed=5)
    seeds, fracs = (0, 1), (0.02, 0.05)
    rows = []
    for seed in seeds:
        src, tgt, ev = generate(dataclasses.replace(cfg, seed=cfg.seed + seed))
        for frac in fracs:
            budget = max(1, round(frac * cfg.n_target))
            for strategy in STRATEGIES:
                det = ProxyDetector(n_classes=3, roi_dim=16)
                report = run_strategy(strategy, src, tgt, ev, default_schedule(budget, frac),
                                      seed=seed, oracle=det, disc_epochs=10)
                by_id = {f.id: f for f in tgt}
                rows.append(dataclasses.asdict(BenchRow(
                    strategy, seed, budget, report.final_metric,
                    selection_diversity(det.roi_rows([by_id[i] for i in report.labeled_target])),
                )))
    expected = BenchmarkReport(rows, _summarize(rows, STRATEGIES, seeds)).to_json()
    fits = _pretrain_fits(monkeypatch)
    got = benchmark(cfg, strategies=STRATEGIES, seeds=seeds, budget_fracs=fracs, disc_epochs=10)
    assert got.to_json() == expected
    assert len(fits) == len(seeds)  # one pretrain per seed, not one per run


@pytest.mark.parametrize("strategy", ["random", "entropy", "committee"])
def test_baselines_pretrain_the_id_sorted_source_pool(monkeypatch, strategy):
    """A baseline pretrains the sequence ``bidomain`` does, whatever the input order,
    so a shared detector fits it once and the picks do not depend on that order."""
    src, tgt, ev = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=20, seed=3))
    shuffled = [src[i] for i in np.random.default_rng(0).permutation(len(src))]
    assert shuffled != sorted(src, key=lambda f: f.id)
    det = ProxyDetector(n_classes=3, roi_dim=16)
    fits = _pretrain_fits(monkeypatch)
    schedule = default_schedule(2, 0.01)
    run_strategy("bidomain", shuffled, tgt, ev, schedule, seed=4, oracle=det, disc_epochs=5)
    report = run_strategy(strategy, shuffled, tgt, ev, schedule, seed=4, oracle=det)
    assert fits == [sorted(f.id for f in src)]
    assert (report.labeled_target, report.final_metric) == GOLDEN_RUNS[strategy, 2]


class TestPretrainMemo:
    def world(self):
        return generate(SyntheticConfig(n_source=30, n_target=2, n_eval=2, seed=7))[0]

    def test_a_second_pretrain_returns_equal_bytes_in_new_arrays(self, monkeypatch):
        src = self.world()
        det = ProxyDetector(n_classes=3, roi_dim=16, pretrain_epochs=20)
        fits = _pretrain_fits(monkeypatch)
        first = det.pretrain(src)
        kept = {name: a.tobytes() for name, a in first.items()}
        first["W"][:] = 7.0
        first["b"] += 1.0
        second = det.pretrain(list(src))  # another list of the same frames
        assert len(fits) == 1
        assert {name: a.tobytes() for name, a in second.items()} == kept
        assert all(second[name] is not first[name] for name in second)
        fresh = ProxyDetector(n_classes=3, roi_dim=16, pretrain_epochs=20).pretrain(src)
        assert {name: a.tobytes() for name, a in fresh.items()} == kept

    def test_another_order_or_frame_is_another_fit(self, monkeypatch):
        src = self.world()
        det = ProxyDetector(n_classes=3, roi_dim=16, pretrain_epochs=20)
        det.pretrain(src)
        fits = _pretrain_fits(monkeypatch)
        for frames in (src[::-1], src[:-1] + [dataclasses.replace(src[-1])]):
            got = det.pretrain(frames)
            fresh = ProxyDetector(n_classes=3, roi_dim=16, pretrain_epochs=20).pretrain(frames)
            assert {k: a.tobytes() for k, a in got.items()} == {
                k: a.tobytes() for k, a in fresh.items()}
        assert len(fits) == 4

    def test_a_bad_label_raises_on_every_call(self):
        src = self.world()
        src[4] = dataclasses.replace(src[4], hidden_label=5)
        det = ProxyDetector(n_classes=3, roi_dim=16, pretrain_epochs=20)
        for _ in range(2):
            with pytest.raises(ValueError, match="frame %r has label 5" % src[4].id):
                det.pretrain(src)
        assert det.pretrain(src[:4])["W"].shape == (16, 3)


class TestNonFiniteROIs:
    """A NaN in one frame's ROI features raises ``ValueError`` naming that frame where
    the detector first reads its row, on every strategy (``bidomain`` runs through
    ``run_bidomain``), instead of a fit whose every weight turns NaN."""

    @staticmethod
    def run(strategy, pool):
        source, target, eval_frames = generate(
            SyntheticConfig(n_source=30, n_target=40, n_eval=10, seed=0))
        frames = {"source": source, "target": target, "eval": eval_frames}[pool]
        rois = np.array(frames[0].roi_features)
        rois[0, 0] = np.nan
        frames[0] = dataclasses.replace(frames[0], roi_features=rois)
        message = "^frame %s has a non-finite ROI vector$" % frames[0].id
        with pytest.raises(ValueError, match=message):
            run_strategy(strategy, source, target, eval_frames, default_schedule(4, 0.1), 0,
                         ProxyDetector(n_classes=3, roi_dim=16), disc_epochs=5)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_source_frame(self, strategy):
        self.run(strategy, "source")

    # random reads a target frame's row only if it picks the frame; bidomain's banks
    # read every target frame's row from the detector in the first round
    @pytest.mark.parametrize("strategy", ["entropy", "committee", "bidomain"])
    def test_target_frame(self, strategy):
        self.run(strategy, "target")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_eval_frame(self, strategy):
        self.run(strategy, "eval")
