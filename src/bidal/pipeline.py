"""Four-stage bi-domain sampling-and-training orchestration.

Stages: (1) pretrain the detector oracle on the source pool, (2) train the
domain discriminator on pooled enhanced features of both pools with the
detector frozen, (3) select target-like source frames and fine-tune on them,
(4) loop over epochs, firing a target sampling round at each trigger epoch
and fine-tuning on the union of both labeled pools. Stage 4 is
``run_rounds``; its bi-domain pick is ``sample_round``, baselines pass their own.

The annotator is simulated by revealing ``hidden_label``. If a selected
frame carries no label the run writes a selection manifest and halts before
fine-tuning so the frames can be annotated offline.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .core import BudgetSchedule, Domain, FrameRecord, PipelineState
from .discriminator import TrainConfig, domainness, fit, train  # noqa: F401, see cli.py
from .source_sampler import SourceSelectionMode, Threshold, score_source, select_source
from .target_sampler import BankConfig, sample_round


class DetectorOracle(Protocol):
    """Stand-in for a full detector; the pipeline only needs these four calls."""

    def pretrain(self, frames: Sequence[FrameRecord]) -> Any: ...

    def finetune(
        self, state: Any, labeled: Sequence[Tuple[FrameRecord, Any]], epochs: int
    ) -> Any: ...

    def evaluate(self, state: Any, frames: Sequence[FrameRecord]) -> float: ...

    def features(self, state: Any, frame: FrameRecord) -> FrameRecord: ...


@dataclass(frozen=True)
class PipelineConfig:
    schedule: BudgetSchedule
    source_mode: SourceSelectionMode = Threshold(0.0)
    source_finetune_epochs: int = 15
    discriminator: TrainConfig = TrainConfig()
    seed: int = 0
    round_finetune_epochs: int = 1
    hidden_dims: Tuple[int, ...] = (64, 32)
    bank_config: BankConfig = BankConfig()

    def __post_init__(self):
        if self.source_finetune_epochs < 0:
            raise ValueError("source_finetune_epochs must be non-negative")
        if self.round_finetune_epochs < 0:
            raise ValueError("round_finetune_epochs must be non-negative")


def update_labeled_pool(state: PipelineState, delta: Sequence[str]) -> PipelineState:
    """Add newly labeled target ids; rejects double-labeling."""
    overlap = set(delta) & set(state.labeled_target)
    if overlap:
        raise ValueError("frames already labeled: %r" % sorted(overlap)[:5])
    return PipelineState(
        selected_source=state.selected_source,
        labeled_target=state.labeled_target + tuple(delta),
    )


def run_bidomain(
    source: Sequence[FrameRecord],
    target: Sequence[FrameRecord],
    oracle: DetectorOracle,
    cfg: PipelineConfig,
    eval_frames: Sequence[FrameRecord] = (),
    manifest_path: Optional[str] = None,
) -> Tuple[Any, PipelineState, Dict[str, Any]]:
    """Run the full bi-domain pipeline; returns (model state, pool state, report)."""
    if not source or not target:
        raise ValueError("source and target pools must be non-empty")
    source = sorted(source, key=lambda f: f.id)
    target = sorted(target, key=lambda f: f.id)
    by_id = {f.id: f for f in source + target}
    repeated = sorted(i for i, n in Counter(f.id for f in source + target).items() if n > 1)
    if repeated:
        raise ValueError("frame ids must be unique across both pools; repeated: %r" % repeated[:5])
    mistagged = [f.id for f in source if f.domain != Domain.SOURCE]
    mistagged += [f.id for f in target if f.domain != Domain.TARGET]
    if mistagged:
        raise ValueError("frames tagged with the other pool's domain: %r" % mistagged[:5])
    unlabeled = [f.id for f in source if f.hidden_label is None]
    if unlabeled:
        raise ValueError("source frames must carry labels; unlabeled: %r" % unlabeled[:5])

    report: Dict[str, Any] = {
        "config": _config_echo(cfg),
        "seed": cfg.seed,
        "stages": [],
        "warnings": [],
        "rounds": [],
    }

    # stage 1: pretrain on the full source pool
    det_state = oracle.pretrain(source)
    report["stages"].append("pretrain")

    # stage 2: discriminator on pooled enhanced features, detector frozen
    disc, history = fit(source, target, cfg.hidden_dims, cfg.discriminator, cfg.seed)
    report["stages"].append("train-discriminator")
    report["discriminator_final_loss"] = history[-1] if history else None

    # stage 3: domainness-aware source selection + fine-tune
    src_scores = score_source(source, disc)
    selected_source = select_source(src_scores, cfg.source_mode)
    report["stages"].append("select-source")
    report["source_selection"] = {
        "ids": list(selected_source),
        "scores": {s.frame_id: s.value for s in src_scores},
    }
    state = PipelineState(selected_source=tuple(selected_source))
    src_labeled = [(by_id[i], by_id[i].hidden_label) for i in selected_source]
    det_state = oracle.finetune(det_state, src_labeled, cfg.source_finetune_epochs)

    # stage 4: per-round target sampling and joint fine-tuning
    schedule = _clip_schedule(cfg.schedule, len(target), report)
    roi_dim = _roi_dim(source + target)

    def pick(unlabeled, budget, k, det_state):
        current = {f.id: oracle.features(det_state, f) for f in unlabeled}
        delta = sample_round(list(current.values()), disc, budget, roi_dim, cfg.bank_config)
        return delta, {i: domainness(disc, current[i]).value for i in delta}

    det_state, state = run_rounds(
        oracle, det_state, state, target, src_labeled, schedule, pick,
        cfg.round_finetune_epochs, report, eval_frames, manifest_path,
    )
    return det_state, state, report


def run_rounds(
    oracle: DetectorOracle,
    det_state: Any,
    state: PipelineState,
    target: Sequence[FrameRecord],
    src_labeled: List[Tuple[FrameRecord, Any]],
    schedule: BudgetSchedule,
    pick: Callable[[List[FrameRecord], int, int, Any], Tuple[List[str], Dict[str, float]]],
    epochs: int,
    report: Dict[str, Any],
    eval_frames: Sequence[FrameRecord] = (),
    manifest_path: Optional[str] = None,
) -> Tuple[Any, PipelineState]:
    """Stage 4, the round loop every strategy shares; fills ``report`` in place.

    Every epoch up to the last trigger fine-tunes on ``src_labeled`` plus the
    labeled targets. A trigger epoch first calls ``pick(unlabeled, budget,
    round, det_state)`` on the unlabeled frames of the id-sorted ``target``,
    which returns the picked ids and the scores to report for them. A pick
    without labels writes ``manifest_path`` and halts before fine-tuning.
    """
    by_id = {f.id: f for f in target}
    triggers = {e: (k, schedule.per_round[k]) for k, e in enumerate(schedule.trigger_epochs)}
    max_epoch = max(schedule.trigger_epochs) if schedule.rounds else -1
    for epoch in range(max_epoch + 1):
        if epoch in triggers:
            k, budget = triggers[epoch]
            unlabeled = [f for f in target if f.id not in state.labeled_target]
            budget = min(budget, len(unlabeled))
            delta, scores = pick(unlabeled, budget, k, det_state) if budget else ([], {})
            report["rounds"].append(
                {
                    "round": k,
                    "trigger_epoch": epoch,
                    "budget": budget,
                    "selected": list(delta),
                    "scores": scores,
                }
            )
            missing = [i for i in delta if by_id[i].hidden_label is None]
            if missing:
                if manifest_path is not None:
                    with open(manifest_path, "w") as fh:
                        fh.write("".join(i + "\n" for i in delta))
                report["halted"] = "selected frames lack labels; manifest emitted"
                return det_state, state
            state = update_labeled_pool(state, delta)
        labeled = src_labeled + [
            (by_id[i], by_id[i].hidden_label) for i in state.labeled_target
        ]
        det_state = oracle.finetune(det_state, labeled, epochs)
        if eval_frames:
            report.setdefault("metrics", []).append(
                {"epoch": epoch, "accuracy": oracle.evaluate(det_state, eval_frames)}
            )
    report["stages"].append("target-rounds")
    if eval_frames:
        report["final_metric"] = oracle.evaluate(det_state, eval_frames)
    report["labeled_target"] = list(state.labeled_target)
    return det_state, state


def serialize_report(report: Dict[str, Any]) -> str:
    """Canonical JSON for byte-identical reproducibility checks."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _roi_dim(frames: Sequence[FrameRecord]) -> int:
    for f in frames:
        rois = np.asarray(f.roi_features)
        if rois.size:
            return rois.shape[1]
    return 1


def _clip_schedule(
    schedule: BudgetSchedule, n_target: int, report: Dict[str, Any]
) -> BudgetSchedule:
    if schedule.total_budget <= n_target:
        return schedule
    report["warnings"].append(
        "budget %d exceeds target pool size %d; clipping"
        % (schedule.total_budget, n_target)
    )
    remaining = n_target
    per_round, epochs = [], []
    for b, e in zip(schedule.per_round, schedule.trigger_epochs):
        take = min(b, remaining)
        if take <= 0:
            break
        per_round.append(take)
        epochs.append(e)
        remaining -= take
    return BudgetSchedule(len(per_round), tuple(per_round), tuple(epochs))


def _config_echo(cfg: PipelineConfig) -> Dict[str, Any]:
    return dict(asdict(cfg), source_mode=repr(cfg.source_mode))
