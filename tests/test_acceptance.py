"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (bypassing capture) so the gate's
status is readable straight off the pytest log.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from bidal import (
    BankConfig,
    DiscriminatorModel,
    Domain,
    FrameRecord,
    ReweightedROI,
    Score,
    SyntheticConfig,
    Threshold,
    TopK,
    TrainConfig,
    benchmark,
    build_banks,
    entropy_map,
    enhance,
    generate,
    loss_and_grads,
    run_bidomain,
    sample_round,
    scene_vector,
    select_source,
    select_targets,
    serialize_report,
    train,
)
from bidal.pipeline import PipelineConfig
from bidal.core import BudgetSchedule
from bidal.simulator import ProxyDetector, frame_entropy, sample_entropy, sample_random
from bidal.target_sampler import SimilarityBank, merge_banks

from .reference import ref_auc, ref_build_banks, ref_rank_ids


@pytest.fixture
def announce(capsys):
    start = time.monotonic()

    def _announce(num, name, ok, detail=""):
        elapsed = time.monotonic() - start
        line = "criterion %02d %-28s %s (%s%.1fs)" % (
            num,
            name,
            "PASS" if ok else "FAIL",
            detail + ", " if detail else "",
            elapsed,
        )
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


def random_frame(rng, C=4, H=3, W=3, obj=None):
    return FrameRecord(
        id="f",
        domain=Domain.TARGET,
        feature_map=rng.normal(size=(C, H, W)),
        objectness_map=rng.uniform(size=(2, H, W)) if obj is None else obj,
        roi_features=rng.normal(size=(2, 4)),
        roi_confidences=rng.uniform(size=2),
    )


def test_c01_entropy(announce):
    vals = entropy_map(np.array([0.0, 0.5, 1.0]))
    grid = np.linspace(0.0, 1.0, 10000)
    sym_err = float(np.max(np.abs(entropy_map(grid) - entropy_map(1.0 - grid))))
    ok = (
        vals[1] == 1.0
        and vals[0] == 0.0
        and vals[2] == 0.0
        and sym_err <= 1e-12
    )
    announce(1, "entropy endpoints/symmetry", ok, "sym err %.1e" % sym_err)


def test_c02_enhancement(announce):
    rng = np.random.default_rng(0)
    in_range = True
    for _ in range(1000):
        e = enhance(random_frame(rng))
        if e.attention.min() < 1.0 or e.attention.max() > 2.0:
            in_range = False
            break
    frame = random_frame(rng, obj=np.zeros((2, 3, 3)))
    e = enhance(frame)
    unchanged = (
        e.map.tobytes() == np.asarray(frame.feature_map, dtype=np.float64).tobytes()
    )
    announce(2, "attention range + identity", in_range and unchanged)


def test_c03_gradient_check(announce):
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    for trial in range(50):
        dims = [
            (int(rng.integers(2, 5)), int(rng.integers(3, 7)), 1),
            (int(rng.integers(2, 4)), int(rng.integers(3, 6)), int(rng.integers(2, 5)), 1),
        ][trial % 2]
        model = DiscriminatorModel.initialize(dims, seed=trial)
        X = rng.normal(size=(int(rng.integers(2, 10)), dims[0]))
        y = rng.integers(0, 2, size=X.shape[0]).astype(float)
        l2 = float(rng.choice([0.0, 1e-3]))
        _, gw, gb = loss_and_grads(model, X, y, l2=l2)
        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for p, g in zip(params, grads):
                fd = np.zeros_like(p)
                for idx in np.ndindex(p.shape):
                    orig = p[idx]
                    p[idx] = orig + h
                    lp = loss_and_grads(model, X, y, l2=l2)[0]
                    p[idx] = orig - h
                    lm = loss_and_grads(model, X, y, l2=l2)[0]
                    p[idx] = orig
                    fd[idx] = (lp - lm) / (2 * h)
                num = np.linalg.norm(g - fd)
                den = max(np.linalg.norm(g) + np.linalg.norm(fd), 1e-12)
                worst = max(worst, num / den)
    announce(3, "analytic vs numeric grads", worst <= 1e-4, "max rel err %.1e" % worst)


def test_c04_discriminator_separability(announce):
    rng = np.random.default_rng(42)
    dim = 8
    src = rng.normal(size=(200, dim))
    tgt = rng.normal(size=(200, dim))
    tgt[:, 0] += 6.0  # domain centers six noise-sigmas apart
    tr_s, ho_s = src[:150], src[150:]
    tr_t, ho_t = tgt[:150], tgt[150:]
    model = DiscriminatorModel.initialize((dim, 16, 1), seed=42)
    trained, history = train(model, tr_s, tr_t, TrainConfig(epochs=500, seed=42))
    final_loss = history[-1]
    auc = ref_auc(trained.predict(ho_s), trained.predict(ho_t))

    same = rng.normal(size=(200, dim))
    control = DiscriminatorModel.initialize((dim, 16, 1), seed=42)
    _, chist = train(control, same, same, TrainConfig(epochs=500, seed=42))
    ok = final_loss <= 0.1 and auc >= 0.99 and chist[-1] >= np.log(2.0) - 0.05
    announce(
        4,
        "separability + chance control",
        ok,
        "loss %.3f auc %.3f ctrl %.3f" % (final_loss, auc, chist[-1]),
    )


def test_c05_merge_invariant(announce):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        vecs = rng.normal(size=(100, 5))
        banks = [
            SimilarityBank(vecs[i].copy(), ["f%03d" % i]) for i in range(100)
        ]
        while len(banks) > 1:
            i, j = sorted(rng.choice(len(banks), size=2, replace=False))
            merged = merge_banks(banks[i], banks[j])
            banks = [b for k, b in enumerate(banks) if k not in (i, j)]
            banks.append(merged)
        worst = max(worst, float(np.max(np.abs(banks[0].prototype - vecs.mean(axis=0)))))
    announce(5, "merge preserves founder mean", worst <= 1e-9, "max dev %.1e" % worst)


def _banks_equal(got, want):
    if len(got.banks) != len(want):
        return False
    for bank, (proto, members) in zip(got.banks, want):
        if bank.members != members:
            return False
        if not np.allclose(bank.prototype, proto, atol=1e-12):
            return False
    return True


def test_c06_bank_oracle_equivalence(announce):
    grid = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 0.6, 0.0)]
    mismatches = 0
    for n in range(1, 9):
        for combo in itertools.product(range(3), repeat=n):
            vecs = [grid[c] for c in combo]
            ids = ["f%02d" % i for i in range(n)]
            rois = [ReweightedROI(i, np.array(v)) for i, v in zip(ids, vecs)]
            for cap in (1, 2, 3):
                got = build_banks(rois, cap)
                want = ref_build_banks(vecs, ids, cap)
                if not _banks_equal(got, want):
                    mismatches += 1
    rng = np.random.default_rng(3)
    for trial in range(10000):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        vecs = rng.normal(size=(n, d))
        if trial % 4 == 0:
            vecs[rng.integers(n)] = vecs[rng.integers(n)]
        ids = ["f%02d" % i for i in range(n)]
        rois = [ReweightedROI(i, v) for i, v in zip(ids, vecs)]
        cap = int(rng.integers(1, 4))
        cfg = BankConfig(
            update_prototype_on_join=bool(trial % 2),
            pairwise_compare="max" if trial % 5 == 0 else "min",
        )
        got = build_banks(rois, cap, config=cfg)
        want = ref_build_banks(
            vecs.tolist(),
            ids,
            cap,
            update_on_join=cfg.update_prototype_on_join,
            pairwise_compare=cfg.pairwise_compare,
        )
        if not _banks_equal(got, want):
            mismatches += 1
    announce(6, "bank oracle equivalence", mismatches == 0, "%d mismatches" % mismatches)


def test_c07_bank_and_selection_contracts(announce):
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(10000):
        n = int(rng.integers(0, 11))
        cap = int(rng.integers(1, 6))
        vecs = rng.normal(size=(n, 3))
        ids = ["f%02d" % i for i in range(n)]
        rois = [ReweightedROI(i, v) for i, v in zip(ids, vecs)]
        # cap respected at every streaming step, not just at the end
        for cut in range(1, n + 1):
            if len(build_banks(rois[:cut], cap).banks) > cap:
                ok = False
        if n == 0:
            continue
        banks = build_banks(rois, cap)
        members = [m for b in banks.banks for m in b.members]
        if sorted(members) != ids or len(set(members)) != len(members):
            ok = False
        scores = {i: float(rng.uniform()) for i in ids}
        delta = select_targets(banks, scores)
        if len(delta) != min(cap, n) or len(set(delta)) != len(delta):
            ok = False
        if not ok:
            break
    announce(7, "bank/selection contracts", ok)


def test_c08_source_sampling(announce):
    rng = np.random.default_rng(5)
    ok = True
    for trial in range(10000):
        n = int(rng.integers(1, 30))
        scores = [Score("f%03d" % i, float(rng.uniform())) for i in range(n)]
        if trial % 3 == 0 and n > 1:  # force score ties
            scores[0] = Score(scores[0].frame_id, scores[-1].value)
        k = int(rng.integers(1, n + 1))
        want = ref_rank_ids([(s.frame_id, s.value) for s in scores])
        if select_source(scores, TopK(k)) != want[:k]:
            ok = False
        if trial % 10 == 0:
            shuffled = [scores[i] for i in rng.permutation(n)]
            if select_source(shuffled, TopK(k)) != want[:k]:
                ok = False
        got = select_source(scores, Threshold(0.0))
        if set(got) != {s.frame_id for s in scores if s.value > 0.5}:
            ok = False
        if not ok:
            break
    announce(8, "source ranking vs brute force", ok)


def test_c09_diversity_benefit(announce):
    from bidal import domainness

    diverse_hits = 0
    greedy_hits = 0
    n_seeds = 100
    for s in range(200, 300):
        cfg = SyntheticConfig(
            n_source=150,
            n_target=1200,
            n_eval=30,
            clusters_per_domain=3,
            domain_shift=3.0,
            cluster_skew=1.0,
            roi_noise=0.25,
            seed=s,
        )
        src, tgt, _ = generate(cfg)
        disc = DiscriminatorModel.initialize((16, 64, 32, 1), seed=s)
        disc, _ = train(
            disc,
            [scene_vector(f) for f in src],
            [scene_vector(f) for f in tgt],
            TrainConfig(epochs=80, seed=s),
        )
        tgt = sorted(tgt, key=lambda f: f.id)
        by_id = {f.id: f for f in tgt}
        sel = sample_round(tgt, disc, 3, roi_dim=16)
        if len({by_id[i].hidden_label for i in sel}) == 3:
            diverse_hits += 1
        scores = zip(domainness(disc, tgt).tolist(), (f.id for f in tgt))
        top3 = [fid for _, fid in sorted(scores, key=lambda x: (-x[0], x[1]))[:3]]
        if len({by_id[i].hidden_label for i in top3}) == 3:
            greedy_hits += 1
    ok = diverse_hits >= 0.8 * n_seeds and greedy_hits <= 0.4 * n_seeds
    announce(
        9,
        "bank diversity vs greedy",
        ok,
        "all-cluster %d%% vs %d%%" % (diverse_hits, greedy_hits),
    )


def test_c10_benchmark(announce):
    cfg = SyntheticConfig(
        n_source=600, n_target=2000, n_eval=300, domain_shift=3.0, seed=0
    )
    report = benchmark(
        cfg,
        strategies=("random", "entropy", "committee", "bidomain"),
        seeds=tuple(range(20)),
        budget_fracs=(0.01, 0.05),
        disc_epochs=150,
    )
    pvals = report.summary["pvalue_vs_random"]["bidomain"]
    beats_random = all(p < 0.05 for p in pvals.values())
    monotone = True
    for strategy, per_budget in report.summary["mean_accuracy"].items():
        accs = [per_budget[b] for b in sorted(per_budget, key=int)]
        if any(a > b for a, b in zip(accs, accs[1:])):
            monotone = False
    announce(
        10,
        "benchmark wins + monotone",
        beats_random and monotone,
        "p=%s" % {k: round(v, 4) for k, v in pvals.items()},
    )


def test_c11_determinism(announce):
    cfg = SyntheticConfig(
        n_source=80, n_target=120, n_eval=40, domain_shift=2.0, seed=0
    )
    src, tgt, ev = generate(cfg)
    pcfg = PipelineConfig(
        schedule=BudgetSchedule(2, (5, 5), (0, 3)),
        source_mode=Threshold(0.0),
        discriminator=TrainConfig(epochs=60, seed=0),
        round_finetune_epochs=10,
    )
    reports = []
    for _ in range(2):
        oracle = ProxyDetector(n_classes=3, roi_dim=16)
        _, report = run_bidomain(src, tgt, oracle, pcfg, ev)
        reports.append(serialize_report(report).encode())
    announce(11, "byte-identical reports", reports[0] == reports[1])


def test_c12_no_label_leakage(announce):
    rng = np.random.default_rng(6)
    ok = True
    for run in range(100):
        cfg = SyntheticConfig(
            n_source=15,
            n_target=int(rng.integers(10, 30)),
            n_eval=3,
            domain_shift=float(rng.uniform(0.0, 4.0)),
            seed=1000 + run,
        )
        _, tgt, _ = generate(cfg)
        stripped = [dataclasses.replace(f, hidden_label=None) for f in tgt]
        budget = int(rng.integers(1, 6))
        seed = int(rng.integers(0, 10000))
        if sample_random(tgt, budget, seed) != sample_random(stripped, budget, seed):
            ok = False
        if sample_entropy(tgt, budget, frame_entropy) != sample_entropy(
            stripped, budget, frame_entropy
        ):
            ok = False
        disc = DiscriminatorModel.initialize((16, 8, 1), seed=seed)
        if sample_round(tgt, disc, budget, roi_dim=16) != sample_round(
            stripped, disc, budget, roi_dim=16
        ):
            ok = False
        if not ok:
            break
    announce(12, "samplers blind to labels", ok)
