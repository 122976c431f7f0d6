"""Four-stage bi-domain sampling-and-training orchestration.

Stages: (1) pretrain the detector oracle on the source pool, (2) train the
domain discriminator on pooled enhanced features of both pools with the
detector frozen, (3) select target-like source frames and fine-tune on them,
(4) loop over epochs, firing a target sampling round at each trigger epoch
and fine-tuning on the union of both labeled pools. One function, ``_run``,
runs every strategy: stage 1, the strategy's stage hook, then stage 4 on a
schedule clipped to the target pool. ``run_bidomain`` passes Bi3D's hook
(stages 2 and 3, and the bank pick ``_sample_round``); a baseline's hook
labels the whole source pool and passes the baseline's own pick.

Every strategy's run checks the pool rules (both pools non-empty, frame ids
unique across both, every frame tagged with its own pool's domain) before
stage 1, with ``discriminator._check_pools``, the check ``fit`` makes for
``train-disc``, and one more: every source and eval frame carries a label.

The detector oracle is the one source of ROI rows: ``roi_rows`` gives a pool's
re-weighted ROI vectors, and the detector keeps each frame's row. The
discriminator is fixed after stage 2, so ``run_bidomain``'s first round scores
the whole target pool with one call of ``discriminator.domainness``, the
scoring function of every stage; every round's banks and the report's
per-pick scores read those scores by id. Stage 3 scores the source pool with
one call too (``score_source``).

The annotator is simulated by revealing ``hidden_label``. If a selected
frame carries no label the run sets ``report.halted`` and stops before
fine-tuning so the frames can be annotated offline; ``bidal run`` writes the
halting round's picks to a manifest, and this module writes no file.

``_run`` records every strategy's run in one ``RunReport``, its only record,
whose dataclasses alone name the report's keys; ``bidal report`` reads it
through ``core``'s walk.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Annotated, Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .core import (BudgetSchedule, Checked, FrameRecord, NonEmpty, NonNegInt, PosInt,
                   canonical_json)
from .discriminator import TrainConfig, _check_pools, domainness, fit
from .discriminator import train  # noqa: F401, see cli.py
from .source_sampler import SourceSelectionMode, Threshold, score_source, select_source
from .target_sampler import BankConfig, _sample_round


class DetectorOracle(Protocol):
    """Stand-in for a full detector; the pipeline only needs these four calls.

    ``roi_rows(frames)`` gives the frames' re-weighted ROI vectors as one
    ``(len(frames), roi_dim)`` matrix, the rows ``run_bidomain``'s banks compare.
    """

    def pretrain(self, frames: Sequence[FrameRecord]) -> Any: ...

    def finetune(
        self, state: Any, labeled: Sequence[Tuple[FrameRecord, Any]], epochs: int
    ) -> Any: ...

    def evaluate(self, state: Any, frames: Sequence[FrameRecord]) -> float: ...

    def roi_rows(self, frames: Sequence[FrameRecord]) -> np.ndarray: ...


@dataclass(frozen=True)
class PipelineConfig(Checked):
    schedule: BudgetSchedule
    source_mode: SourceSelectionMode = Threshold(0.0)
    source_finetune_epochs: NonNegInt = 15
    discriminator: TrainConfig = TrainConfig()
    seed: NonNegInt = 0
    round_finetune_epochs: NonNegInt = 1
    hidden_dims: Annotated[Tuple[PosInt, ...], NonEmpty()] = (64, 32)
    bank_config: BankConfig = BankConfig()


@dataclass(frozen=True)
class RoundEntry:
    """One target round: its budget, the ids it picked and the scores reported for them."""

    round: int
    trigger_epoch: int
    budget: int
    selected: List[str]
    scores: Dict[str, float]


@dataclass(frozen=True)
class SourceSelection:
    """Stage 3: the source ids kept, and every source frame's domainness score."""

    ids: List[str]
    scores: Dict[str, float]


@dataclass(frozen=True)
class EpochMetric:
    epoch: int
    accuracy: float


@dataclass
class RunReport:
    """One run's decisions; ``serialize_report`` leaves out the fields still at their defaults.

    So ``halted`` is written only after a halt, ``metrics`` and ``final_metric``
    only with eval frames, ``labeled_target`` only without a halt, and a 0-epoch
    fit writes ``"discriminator_final_loss": null``. ``config`` echoes the
    ``PipelineConfig`` (``source_mode`` as its repr) as an opaque ``Any``: it
    records the inputs, so the reader does not re-check it. Baselines leave
    ``config`` and ``source_selection`` unset and are never serialized.
    """

    seed: int
    stages: List[str]
    warnings: List[str]
    rounds: List[RoundEntry]
    discriminator_final_loss: Optional[float]
    config: Any = None
    source_selection: Optional[SourceSelection] = None
    halted: Optional[str] = None
    metrics: List[EpochMetric] = field(default_factory=list)
    final_metric: Optional[float] = None
    labeled_target: Optional[List[str]] = None


def run_bidomain(
    source: Sequence[FrameRecord],
    target: Sequence[FrameRecord],
    oracle: DetectorOracle,
    cfg: PipelineConfig,
    eval_frames: Sequence[FrameRecord] = (),
) -> Tuple[Any, RunReport]:
    """Run the full bi-domain pipeline; returns (detector state, report)."""
    return _run(source, target, oracle, cfg, _bidomain_stages, eval_frames)


def _bidomain_stages(source, target, oracle, cfg, det_state, report):
    """Stages 2 and 3 and the bank pick: Bi3D's stage hook for ``_run``."""
    # stage 2: discriminator on pooled enhanced features, detector frozen
    disc, history = fit(source, target, cfg.hidden_dims, cfg.discriminator, cfg.seed)

    # stage 3: domainness-aware source selection + fine-tune
    src_scores = score_source(source, disc)
    selected_source = select_source(src_scores, cfg.source_mode)
    report.stages += ["train-discriminator", "select-source"]
    report.discriminator_final_loss = history[-1] if history else None
    report.config = dict(asdict(cfg), source_mode=repr(cfg.source_mode))
    report.source_selection = SourceSelection(list(selected_source),
                                              {s.frame_id: s.value for s in src_scores})
    by_id = {f.id: f for f in source}
    src_labeled = [(by_id[i], by_id[i].hidden_label) for i in selected_source]
    det_state = oracle.finetune(det_state, src_labeled, cfg.source_finetune_epochs)

    # the discriminator is fixed from here on, so the first round scores the whole
    # target pool once; every round and the report read those scores by id
    scores: Dict[str, float] = {}

    def pick(unlabeled, budget, k, det_state):
        if not scores:
            scores.update(zip([f.id for f in target], domainness(disc, target).tolist()))
        delta = _sample_round(unlabeled, oracle.roi_rows, lambda pool: [scores[f.id] for f in pool],
                              budget, cfg.bank_config)
        return delta, {i: scores[i] for i in delta}

    return det_state, src_labeled, pick


def _run(
    source: Sequence[FrameRecord],
    target: Sequence[FrameRecord],
    oracle: DetectorOracle,
    cfg: PipelineConfig,
    stages: Callable[..., Tuple[Any, List[Tuple[FrameRecord, Any]], Callable]],
    eval_frames: Sequence[FrameRecord] = (),
) -> Tuple[Any, RunReport]:
    """One run of any strategy, stages 1 and 4 around its stage hook; returns (state, report).

    ``stages(source, target, oracle, cfg, det_state, report)`` gets the
    id-sorted pools and the pretrained state and returns the detector state,
    the labeled source frames and the pick. Every epoch up to the last
    trigger of the clipped schedule fine-tunes on those plus the labeled
    targets. A trigger epoch first calls ``pick(unlabeled, budget, round,
    det_state)``, which returns the picked ids and the scores to report for
    them. A pick that names an id twice, an already-labeled id or an id
    outside ``target`` raises ``ValueError`` naming it. A pick without labels
    sets ``report.halted`` and returns before fine-tuning.
    """
    source = sorted(source, key=lambda f: f.id)
    target = sorted(target, key=lambda f: f.id)
    for pool, frames in (("source", source), ("eval", eval_frames)):
        unlabeled = [f.id for f in frames if f.hidden_label is None]
        if unlabeled:
            raise ValueError("%s frames must carry labels; unlabeled: %r" % (pool, unlabeled[:5]))
    _check_pools(source, target)
    report = RunReport(cfg.seed, ["pretrain"], warnings=[], rounds=[], discriminator_final_loss=None)

    # stage 1: pretrain on the full source pool, then the strategy's own stages
    det_state, src_labeled, pick = stages(
        source, target, oracle, cfg, oracle.pretrain(source), report)

    # stage 4: per-round target sampling and joint fine-tuning
    schedule = _clip_schedule(cfg.schedule, len(target), report.warnings)
    by_id = {f.id: f for f in target}
    triggers = {e: (k, schedule.per_round[k]) for k, e in enumerate(schedule.trigger_epochs)}
    max_epoch = max(schedule.trigger_epochs) if schedule.rounds else -1
    labeled: List[str] = []
    picked = set()
    for epoch in range(max_epoch + 1):
        if epoch in triggers:
            k, budget = triggers[epoch]
            delta, scores = pick([f for f in target if f.id not in picked], budget, k, det_state)
            report.rounds.append(RoundEntry(k, epoch, budget, list(delta), scores))
            for i in delta:
                if i not in by_id:
                    raise ValueError("round %d picked %r, which is not in the target pool" % (k, i))
                if i in picked:
                    raise ValueError("round %d picked %r a second time" % (k, i))
                picked.add(i)
            if any(by_id[i].hidden_label is None for i in delta):
                report.halted = "selected frames lack labels; manifest emitted"
                return det_state, report
            labeled += delta
        det_state = oracle.finetune(
            det_state, src_labeled + [(by_id[i], by_id[i].hidden_label) for i in labeled],
            cfg.round_finetune_epochs,
        )
        if eval_frames:
            report.metrics.append(EpochMetric(epoch, oracle.evaluate(det_state, eval_frames)))
    report.stages.append("target-rounds")
    if eval_frames:
        report.final_metric = oracle.evaluate(det_state, eval_frames)
    report.labeled_target = labeled
    return det_state, report


def serialize_report(report: RunReport) -> str:
    """Canonical JSON of ``report`` without the fields still at their defaults (byte-stable)."""
    return canonical_json(report)


def _clip_schedule(schedule: BudgetSchedule, n_target: int, warnings: List[str]) -> BudgetSchedule:
    if schedule.total_budget <= n_target:
        return schedule
    warnings.append(
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

