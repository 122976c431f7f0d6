import dataclasses
import os

import numpy as np
import pytest

from bidal import (
    BudgetSchedule,
    PipelineConfig,
    PipelineState,
    ProxyDetector,
    SyntheticConfig,
    TopK,
    TrainConfig,
    generate,
    run_bidomain,
    serialize_report,
    update_labeled_pool,
)


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


class TestUpdateLabeledPool:
    def test_appends_and_advances_round(self):
        state = PipelineState(labeled_target=("t1",))
        new = update_labeled_pool(state, ["t2", "t3"])
        assert new.labeled_target == ("t1", "t2", "t3")

    def test_rejects_double_labeling(self):
        state = PipelineState(labeled_target=("t1",))
        with pytest.raises(ValueError):
            update_labeled_pool(state, ["t1"])


class TestRunBidomain:
    def test_full_run_report_shape(self):
        src, tgt, ev = small_world()
        _, state, report = run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)
        assert report["stages"] == [
            "pretrain",
            "train-discriminator",
            "select-source",
            "target-rounds",
        ]
        assert len(report["rounds"]) == 2
        assert len(state.labeled_target) == 6
        assert 0.0 <= report["final_metric"] <= 1.0
        assert report["labeled_target"] == list(state.labeled_target)

    def test_rounds_are_disjoint_and_within_pool(self):
        src, tgt, ev = small_world(seed=1)
        _, state, report = run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)
        seen = set()
        tgt_ids = {f.id for f in tgt}
        for rnd in report["rounds"]:
            ids = set(rnd["selected"])
            assert len(ids) == len(rnd["selected"]) == rnd["budget"]
            assert not ids & seen
            assert ids <= tgt_ids
            seen |= ids

    def test_repeated_runs_are_byte_identical(self):
        src, tgt, ev = small_world(seed=2)
        cfg = small_pipeline_config()
        reports = [
            serialize_report(run_bidomain(src, tgt, oracle(), cfg, ev)[2])
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_budget_clipping_warns(self):
        src, tgt, ev = small_world(seed=3, n_target=4)
        cfg = small_pipeline_config(schedule=BudgetSchedule(2, (3, 3), (0, 2)))
        _, state, report = run_bidomain(src, tgt, oracle(), cfg, ev)
        assert any("clipping" in w for w in report["warnings"])
        assert len(state.labeled_target) == 4

    def test_unlabeled_selection_halts_with_manifest(self, tmp_path):
        src, tgt, ev = small_world(seed=4)
        tgt = [dataclasses.replace(f, hidden_label=None) for f in tgt]
        manifest = str(tmp_path / "to_label.txt")
        _, state, report = run_bidomain(
            src, tgt, oracle(), small_pipeline_config(), ev, manifest_path=manifest
        )
        assert "halted" in report
        assert state.labeled_target == ()
        with open(manifest) as fh:
            listed = [line.strip() for line in fh if line.strip()]
        assert listed == report["rounds"][0]["selected"]

    def test_input_order_does_not_matter(self):
        src, tgt, ev = small_world(seed=6)
        cfg = small_pipeline_config()
        a = run_bidomain(src, tgt, oracle(), cfg, ev)[2]
        b = run_bidomain(src[::-1], tgt[::-1], oracle(), cfg, ev)[2]
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

    def test_source_selection_recorded_with_scores(self):
        src, tgt, ev = small_world(seed=8)
        _, _, report = run_bidomain(src, tgt, oracle(), small_pipeline_config(), ev)
        sel = report["source_selection"]
        assert len(sel["ids"]) == 10  # TopK(10)
        assert set(sel["ids"]) <= set(sel["scores"])
        vals = [sel["scores"][i] for i in sel["ids"]]
        assert vals == sorted(vals, reverse=True)
