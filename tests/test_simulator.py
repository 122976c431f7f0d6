import dataclasses
import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from bidal import (
    BudgetSchedule,
    DiscriminatorModel,
    Domain,
    ProxyDetector,
    SyntheticConfig,
    TrainConfig,
    benchmark,
    default_schedule,
    frame_entropy,
    generate,
    paired_permutation_pvalue,
    sample_committee,
    sample_entropy,
    sample_random,
    sample_round,
    scene_vector,
    train,
    validate_frame,
)
import bidal.simulator
from bidal.core import _build
from bidal.simulator import BenchFile, run_strategy

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
        got = sample_entropy(frames, 7)
        want = ref_rank_ids([(f.id, frame_entropy(f)) for f in frames])[:7]
        assert got == want

    def test_frame_entropy_oracle(self):
        frames = self.frames(seed=2)
        for f in frames[:10]:
            want = np.mean(
                [ref_binary_entropy(float(c)) for c in f.roi_confidences]
            )
            assert frame_entropy(f) == pytest.approx(want, abs=1e-6)

    def test_committee_contract(self):
        cfg = SyntheticConfig(n_source=40, n_target=30, n_eval=3, seed=3)
        src, tgt, _ = generate(cfg)
        det = ProxyDetector(n_classes=3, roi_dim=16)
        from bidal import reweight

        X = np.stack([reweight(f, roi_dim=16).vector for f in src])
        y = np.array([f.hidden_label for f in src])
        a = sample_committee(tgt, X, y, 3, 6, seed=0)
        b = sample_committee(tgt, X, y, 3, 6, seed=0)
        assert a == b
        assert len(set(a)) == 6
        assert set(a) <= {f.id for f in tgt}

    @pytest.mark.parametrize("label", [-1, 3])
    def test_committee_rejects_a_label_outside_its_classes(self, label):
        src, tgt, _ = generate(SyntheticConfig(n_source=8, n_target=4, n_eval=1, seed=3))
        from bidal import reweight

        X = np.stack([reweight(f, roi_dim=16).vector for f in src])
        y = np.array([f.hidden_label for f in src])
        y[5] = label
        with pytest.raises(ValueError, match="committee label %d is not a class index below 3"
                                             % label):
            sample_committee(tgt, X, y, 3, 2, seed=0)


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
            assert sample_entropy(tgt, budget) == sample_entropy(stripped, budget)
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
                seed=0, n_classes=3, roi_dim=16,
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

    @pytest.mark.parametrize("frac", [-0.5, 0.0, 1.5, float("nan")])
    def test_benchmark_rejects_fraction_outside_unit_interval(self, frac):
        cfg = SyntheticConfig(n_source=10, n_target=10, n_eval=5, seed=0)
        with pytest.raises(ValueError, match=r"budget fractions must lie in \(0, 1\]"):
            benchmark(cfg, strategies=("random",), seeds=(0,), budget_fracs=(0.05, frac))

    def test_benchmark_csv_output(self, tmp_path):
        cfg = SyntheticConfig(n_source=30, n_target=40, n_eval=15, seed=0)
        report = benchmark(
            cfg, strategies=("random",), seeds=(0,), budget_fracs=(0.05,),
        )
        path = str(tmp_path / "rows.csv")
        report.write_csv(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "strategy,seed,budget,accuracy,diversity"
        assert len(lines) == 2


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
        strategy, src, tgt, ev, schedule, seed=4, n_classes=3, roi_dim=16, disc_epochs=20
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
    """Entropies and the detector's ROI rows are computed once per frame per run."""
    calls = Counter()
    real = getattr(bidal.simulator, counted)

    def counting(frame, *args, **kwargs):
        calls[frame.id] += 1
        return real(frame, *args, **kwargs)

    monkeypatch.setattr(bidal.simulator, counted, counting)
    src, tgt, ev = generate(SyntheticConfig(n_source=30, n_target=40, n_eval=20, seed=3))
    schedule = default_schedule(10, 0.25)
    assert schedule.rounds == 5
    run_strategy(strategy, src, tgt, ev, schedule, seed=4, n_classes=3, roi_dim=16)
    assert calls and max(calls.values()) == 1
    assert strategy != "entropy" or set(calls) == {f.id for f in tgt}
