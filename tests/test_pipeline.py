import dataclasses
import hashlib
import json
import os
import re
from collections import Counter

import numpy as np
import pytest

import bidal.pipeline
import bidal.simulator
import bidal.source_sampler
import bidal.target_sampler
from bidal import (
    BudgetSchedule,
    Domain,
    PipelineConfig,
    ProxyDetector,
    SyntheticConfig,
    TopK,
    TrainConfig,
    generate,
    run_bidomain,
    serialize_report,
)
from bidal.core import _build
from bidal.discriminator import fit
from bidal.pipeline import RunReport, _run
from bidal.simulator import STRATEGIES, run_strategy


def small_world(seed=0, n_target=40):
    cfg = SyntheticConfig(
        n_source=30, n_target=n_target, n_eval=12, domain_shift=2.0, seed=seed
    )
    return generate(cfg)


def small_pipeline_config(**kw):
    defaults = dict(
        schedule=BudgetSchedule(2, (3, 3), (0, 2)),
        source_mode=TopK(10),
        source_finetune_epochs=5,
        discriminator=TrainConfig(epochs=20, seed=0),
        round_finetune_epochs=5,
        hidden_dims=(8,),
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def oracle():
    return ProxyDetector(n_classes=3, roi_dim=16, pretrain_epochs=30)


class TestRunBidomain:
    def test_full_run_report_shape(self):
        src, tgt, ev = small_world()
        _, report = run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)
        assert report.stages == [
            "pretrain",
            "train-discriminator",
            "select-source",
            "target-rounds",
        ]
        assert len(report.rounds) == 2
        assert len(report.labeled_target) == 6
        assert 0.0 <= report.final_metric <= 1.0

    def test_rounds_are_disjoint_and_within_pool(self):
        src, tgt, ev = small_world(seed=1)
        _, report = run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)
        seen = set()
        tgt_ids = {f.id for f in tgt}
        for rnd in report.rounds:
            ids = set(rnd.selected)
            assert len(ids) == len(rnd.selected) == rnd.budget
            assert not ids & seen
            assert ids <= tgt_ids
            seen |= ids

    def test_repeated_runs_are_byte_identical(self):
        src, tgt, ev = small_world(seed=2)
        cfg = small_pipeline_config()
        reports = [
            serialize_report(run_bidomain(src, tgt, oracle(), cfg, ev)[1])
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_budget_clipping_warns(self):
        src, tgt, ev = small_world(seed=3, n_target=4)
        cfg = small_pipeline_config(schedule=BudgetSchedule(2, (3, 3), (0, 2)))
        _, report = run_bidomain(src, tgt, oracle(), cfg, ev)
        assert any("clipping" in w for w in report.warnings)
        assert len(report.labeled_target) == 4

    def test_unlabeled_selection_halts_with_manifest(self, tmp_path, monkeypatch):
        # the manifest is the halting round's picks; bidal run writes it, the library no file
        monkeypatch.chdir(tmp_path)
        src, tgt, ev = small_world(seed=4)
        tgt = [dataclasses.replace(f, hidden_label=None) for f in tgt]
        _, report = run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)
        assert report.halted == "selected frames lack labels; manifest emitted"
        assert report.labeled_target is None
        assert len(report.rounds) == 1 and len(report.rounds[0].selected) == 3
        assert list(tmp_path.iterdir()) == []

    def test_input_order_does_not_matter(self):
        src, tgt, ev = small_world(seed=6)
        cfg = small_pipeline_config()
        a = run_bidomain(src, tgt, oracle(), cfg, ev)[1]
        b = run_bidomain(src[::-1], tgt[::-1], oracle(), cfg, ev)[1]
        assert serialize_report(a) == serialize_report(b)

    def test_empty_pools_rejected(self):
        src, tgt, ev = small_world(seed=7)
        with pytest.raises(ValueError):
            run_bidomain([], tgt, oracle(), small_pipeline_config())
        with pytest.raises(ValueError):
            run_bidomain(src, [], oracle(), small_pipeline_config())

    @pytest.mark.parametrize("pool", ["within", "across"])
    def test_duplicate_frame_ids_rejected(self, pool):
        src, tgt, ev = small_world(seed=9)
        twin = src[0] if pool == "within" else tgt[0]
        src = src + [dataclasses.replace(twin, domain=src[0].domain)]
        with pytest.raises(ValueError, match="unique.*%s" % twin.id):
            run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)

    @pytest.mark.parametrize(
        "pool", ["target", "source"],
        ids=["source frame in target pool", "target frame in source pool"],
    )
    def test_mistagged_frame_rejected(self, pool):
        src, tgt, ev = small_world(seed=11)
        frames, other = (tgt, src) if pool == "target" else (src, tgt)
        frames[2] = dataclasses.replace(frames[2], domain=other[0].domain)
        with pytest.raises(ValueError, match="other pool's domain.*%s" % frames[2].id):
            run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)

    def test_unlabeled_source_frame_rejected(self):
        src, tgt, ev = small_world(seed=10)
        src[3] = dataclasses.replace(src[3], hidden_label=None)
        with pytest.raises(ValueError, match="source frames must carry labels.*%s" % src[3].id):
            run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unlabeled_eval_frame_rejected_before_stage_1(self, strategy, monkeypatch):
        src, tgt, ev = small_world(seed=10)
        ev[4] = dataclasses.replace(ev[4], hidden_label=None)

        def pretrain(self, frames):
            raise AssertionError("pretrained before the eval frames were checked")

        monkeypatch.setattr(ProxyDetector, "pretrain", pretrain)
        message = "eval frames must carry labels; unlabeled: [%r]" % ev[4].id
        with pytest.raises(ValueError, match=re.escape(message)):
            run_strategy(strategy, src, tgt, ev, BudgetSchedule(2, (3, 3), (0, 2)), seed=0,
                         oracle=ProxyDetector(n_classes=3, roi_dim=16), disc_epochs=20)

    def test_picked_label_outside_the_classes_rejected(self):
        src, tgt, ev = small_world(seed=10)
        tgt = [dataclasses.replace(f, hidden_label=9) for f in tgt]
        with pytest.raises(ValueError, match=r"frame 't\d+' has label 9, not a class index "
                                             r"below the detector's 3 classes"):
            run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)

    def test_source_selection_recorded_with_scores(self):
        src, tgt, ev = small_world(seed=8)
        _, report = run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)
        sel = report.source_selection
        assert len(sel.ids) == 10  # TopK(10)
        assert set(sel.ids) <= set(sel.scores)
        vals = [sel.scores[i] for i in sel.ids]
        assert vals == sorted(vals, reverse=True)


# each broken pool rule -> (how it breaks the pools, the message of the run's check)
INVALID_POOLS = {
    "empty-source": (lambda src, tgt: ([], tgt), "source and target pools must be non-empty"),
    "empty-target": (lambda src, tgt: (src, []), "source and target pools must be non-empty"),
    "id-across-pools": (
        lambda src, tgt: (src + [dataclasses.replace(tgt[0], domain=Domain.SOURCE)], tgt),
        "frame ids must be unique across both pools; repeated: ['t00000']"),
    "mistagged-frame": (
        lambda src, tgt: ([dataclasses.replace(src[0], domain=Domain.TARGET)] + src[1:], tgt),
        "frames tagged with the other pool's domain: ['s00000']"),
}


@pytest.mark.parametrize("case", sorted(INVALID_POOLS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_rejects_invalid_pools(strategy, case, monkeypatch):
    """Every strategy's run checks the pool rules before stage 1, with ``fit``'s messages."""
    src, tgt, ev = small_world(seed=10)
    breaks, message = INVALID_POOLS[case]

    def pretrain(self, frames):
        raise AssertionError("pretrained before the pools were checked")

    monkeypatch.setattr(ProxyDetector, "pretrain", pretrain)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        run_strategy(strategy, *breaks(src, tgt), ev, BudgetSchedule(2, (3, 3), (0, 2)), seed=0,
                     oracle=ProxyDetector(n_classes=3, roi_dim=16), disc_epochs=5)


# each faulty pick -> (picks per round, the message naming the faulty id)
FAULTY_PICKS = {
    "already-labeled": ([[0], [0]], "round 1 picked 't00000' a second time"),
    "same-id-twice": ([[0, 0]], "round 0 picked 't00000' a second time"),
    "outside-the-pool": ([["x"]], "round 0 picked 'x', which is not in the target pool"),
}


@pytest.mark.parametrize("fault", sorted(FAULTY_PICKS))
def test_faulty_pick_raises_naming_the_id(fault):
    """The run function checks every pick, whichever strategy's stage hook made it."""
    src, tgt, ev = small_world()
    tgt = sorted(tgt, key=lambda f: f.id)
    rounds, message = FAULTY_PICKS[fault]

    def pick(unlabeled, budget, k, det_state):
        return [tgt[i].id if isinstance(i, int) else i for i in rounds[k]], {}

    def stages(source, target, oracle, cfg, det_state, report):
        return det_state, [(f, f.hidden_label) for f in source], pick

    schedule = BudgetSchedule(len(rounds), tuple(map(len, rounds)), tuple(range(len(rounds))))
    cfg = small_pipeline_config(schedule=schedule, round_finetune_epochs=1)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        _run(src, tgt, oracle(), cfg, stages, ev)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_clips_an_oversized_schedule(strategy):
    """Every strategy runs one skeleton, so a schedule past the target pool is clipped
    alike: one warning, the same rounds and the same fine-tuned epochs."""
    src, tgt, ev = generate(SyntheticConfig(n_source=30, n_target=10, n_eval=20, seed=3))
    report = run_strategy(strategy, src, tgt, ev, BudgetSchedule(3, (5, 5, 5), (0, 2, 4)),
                          seed=4, oracle=ProxyDetector(n_classes=3, roi_dim=16), disc_epochs=5)
    assert report.warnings == ["budget 15 exceeds target pool size 10; clipping"]
    assert [(r.round, r.budget) for r in report.rounds] == [(0, 5), (1, 5)]
    assert [m.epoch for m in report.metrics] == [0, 1, 2]
    assert sorted(report.labeled_target) == sorted(f.id for f in tgt)


# sha256 of serialize_report for test_target_frames_scored_once_per_run's run,
# recorded before the run kept one domainness score per frame object
THREE_ROUND_REPORT = "eadbc8a83961a5fc791243c114ad16bf6da9dada868b0962ad6570cdd524ad3c"


def test_target_frames_scored_once_per_run(monkeypatch):
    """A run scores each target frame once, and its detector re-weights each frame it
    reads once: the source pool, the target pool and the eval frames."""
    calls, reweighted = [], Counter()
    real_values, real_reweight = bidal.pipeline.domainness, bidal.simulator.reweight

    def counting_values(model, frames):
        calls.extend(f.id for f in frames)
        return real_values(model, frames)

    def counting_reweight(frames, roi_dim=None):
        reweighted.update(f.id for f in frames)
        return real_reweight(frames, roi_dim)

    monkeypatch.setattr(bidal.pipeline, "domainness", counting_values)
    monkeypatch.setattr(bidal.simulator, "reweight", counting_reweight)
    src, tgt, ev = small_world()
    cfg = small_pipeline_config(schedule=BudgetSchedule(3, (3, 3, 3), (0, 2, 4)))
    _, report = run_bidomain(src, tgt, oracle(), cfg, ev)
    assert sorted(calls) == sorted(f.id for f in tgt)
    assert set(reweighted) == {f.id for f in src + tgt + ev}
    assert max(reweighted.values()) == 1
    digest = hashlib.sha256(serialize_report(report).encode()).hexdigest()
    assert digest == THREE_ROUND_REPORT


def test_every_stage_scores_through_domainness(monkeypatch):
    """Source selection, each round of a run and ``sample_round`` score their
    frames with one call of ``domainness`` per new pool, by that name."""
    calls = []
    real = bidal.pipeline.domainness

    def counting(where):
        def scored(model, frames):
            calls.append((where, [f.id for f in frames]))
            return real(model, frames)
        return scored

    for module in (bidal.pipeline, bidal.source_sampler, bidal.target_sampler):
        monkeypatch.setattr(module, "domainness", counting(module.__name__))
    src, tgt, ev = small_world()
    cfg = small_pipeline_config(schedule=BudgetSchedule(3, (3, 3, 3), (0, 2, 4)))
    _, report = run_bidomain(src, tgt, oracle(), cfg, ev)
    source_ids, target_ids = sorted(f.id for f in src), sorted(f.id for f in tgt)
    # stage 3 scores the source pool once; round 0 scores the target pool, and
    # the later rounds find no frame they have not scored, so they call nothing
    assert calls == [("bidal.source_sampler", source_ids), ("bidal.pipeline", target_ids)]
    assert len(report.labeled_target) == 9

    calls.clear()
    model, _ = fit(src, tgt, (8,), TrainConfig(epochs=5, seed=0), seed=0)
    bidal.source_sampler.score_source(src, model)
    bidal.target_sampler.sample_round(tgt, model, 3, roi_dim=16)
    assert calls == [("bidal.source_sampler", [f.id for f in src]),
                     ("bidal.target_sampler", [f.id for f in tgt])]


# each report shape run_bidomain writes -> (keys present, keys absent)
REPORT_SHAPES = {
    "completed": ({"metrics", "final_metric", "labeled_target"}, {"halted"}),
    "halted-at-round-0": ({"halted"}, {"metrics", "final_metric", "labeled_target"}),
    "no-eval-frames": ({"labeled_target"}, {"metrics", "final_metric", "halted"}),
    "budget-clipped": ({"metrics", "final_metric", "labeled_target"}, {"halted"}),
    "0-epoch-discriminator": ({"discriminator_final_loss", "labeled_target"}, {"halted"}),
}


@pytest.mark.parametrize("shape", sorted(REPORT_SHAPES))
def test_report_round_trips_through_the_schema(shape):
    """Reading a written report through the schema and writing it again gives its bytes."""
    src, tgt, ev = small_world(seed=5, n_target=4 if shape == "budget-clipped" else 40)
    cfg = small_pipeline_config()
    if shape == "halted-at-round-0":
        tgt = [dataclasses.replace(f, hidden_label=None) for f in tgt]
    elif shape == "no-eval-frames":
        ev = []
    elif shape == "0-epoch-discriminator":
        cfg = small_pipeline_config(discriminator=TrainConfig(epochs=0, seed=0))
    text = serialize_report(run_bidomain(src, tgt, oracle(), cfg, ev)[1])
    payload = json.loads(text)
    present, absent = REPORT_SHAPES[shape]
    assert present <= set(payload) and not absent & set(payload)
    assert payload["warnings"] if shape == "budget-clipped" else not payload["warnings"]
    assert (payload["discriminator_final_loss"] is None) == (shape == "0-epoch-discriminator")
    assert serialize_report(_build(RunReport, payload, "report", {})) == text
