"""Four-stage bi-domain sampling-and-training orchestration.

Stages: (1) pretrain the detector oracle on the source pool, (2) train the
domain discriminator on pooled enhanced features of both pools with the
detector frozen, (3) select target-like source frames and fine-tune on them,
(4) loop over epochs, firing a target sampling round at each trigger epoch
and fine-tuning on the union of both labeled pools. Stage 4 is
``run_rounds``; its bi-domain pick is ``sample_round``'s sibling
``_sample_round``, baselines pass their own.

The pool rules (both pools non-empty, frame ids unique across both, every
frame tagged with its own pool's domain) live in ``discriminator.fit``,
which ``run`` and ``train-disc`` share. Every strategy adds one rule,
``_check_labels``, before it trains: every source and eval frame carries a
label.

The discriminator is fixed after stage 2, so ``run_bidomain`` scores and
re-weights each target frame object once per run. Each round scores the
frames it has not seen yet with one call of ``discriminator.domainness``,
the scoring function of every stage; one ``{FrameRecord: float}`` memo
feeds every round's banks and the report's per-pick scores, and a second
memo keeps each frame's re-weighted ROI vector. Both are keyed on the frame
object, so an oracle whose ``features`` returns new frames gets them
rescored, and both are dropped when the run returns. Stage 3 scores the
source pool with one call too (``score_source``).

The annotator is simulated by revealing ``hidden_label``. If a selected
frame carries no label the run sets ``report.halted`` and stops before
fine-tuning so the frames can be annotated offline; ``bidal run`` writes the
halting round's picks to a manifest, and this module writes no file.

Every strategy records its run in one ``RunReport``, its only record, whose
dataclasses alone name the report's keys; ``bidal report`` reads it through
``core``'s walk.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .core import BudgetSchedule, FrameRecord, canonical_json
from .discriminator import TrainConfig, domainness, fit, train  # noqa: F401, see cli.py
from .source_sampler import SourceSelectionMode, Threshold, score_source, select_source
from .target_sampler import BankConfig, _sample_round, reweight


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
    source = sorted(source, key=lambda f: f.id)
    target = sorted(target, key=lambda f: f.id)
    by_id = {f.id: f for f in source + target}
    _check_labels(source, eval_frames)

    # stage 1: pretrain on the full source pool
    det_state = oracle.pretrain(source)

    # stage 2: discriminator on pooled enhanced features, detector frozen
    disc, history = fit(source, target, cfg.hidden_dims, cfg.discriminator, cfg.seed)

    # stage 3: domainness-aware source selection + fine-tune
    src_scores = score_source(source, disc)
    selected_source = select_source(src_scores, cfg.source_mode)
    report = RunReport(
        cfg.seed, ["pretrain", "train-discriminator", "select-source"], warnings=[], rounds=[],
        discriminator_final_loss=history[-1] if history else None,
        config=dict(asdict(cfg), source_mode=repr(cfg.source_mode)),
        source_selection=SourceSelection(list(selected_source),
                                         {s.frame_id: s.value for s in src_scores}),
    )
    src_labeled = [(by_id[i], by_id[i].hidden_label) for i in selected_source]
    det_state = oracle.finetune(det_state, src_labeled, cfg.source_finetune_epochs)

    # stage 4: per-round target sampling and joint fine-tuning
    schedule = _clip_schedule(cfg.schedule, len(target), report.warnings)
    roi_dim = _roi_dim(source + target)

    # the discriminator is fixed from here on, so each frame object is scored and
    # re-weighted once per run; an oracle that returns new frames each round gets
    # them rescored
    scores: Dict[FrameRecord, float] = {}
    rois = functools.cache(lambda frame: reweight(frame, roi_dim=roi_dim))

    def values(frames):
        new = [f for f in frames if f not in scores]
        if new:
            scores.update(zip(new, domainness(disc, new).tolist()))
        return [scores[f] for f in frames]

    def pick(unlabeled, budget, k, det_state):
        current = {f.id: oracle.features(det_state, f) for f in unlabeled}
        delta = _sample_round(list(current.values()), rois, values, budget, cfg.bank_config)
        return delta, {i: scores[current[i]] for i in delta}

    det_state = run_rounds(
        oracle, det_state, target, src_labeled, schedule, pick,
        cfg.round_finetune_epochs, report, eval_frames,
    )
    return det_state, report


def _check_labels(source: Sequence[FrameRecord], eval_frames: Sequence[FrameRecord]) -> None:
    """Every source and eval frame carries a label; every strategy checks before it trains."""
    for pool, frames in (("source", source), ("eval", eval_frames)):
        unlabeled = [f.id for f in frames if f.hidden_label is None]
        if unlabeled:
            raise ValueError("%s frames must carry labels; unlabeled: %r" % (pool, unlabeled[:5]))


def run_rounds(
    oracle: DetectorOracle,
    det_state: Any,
    target: Sequence[FrameRecord],
    src_labeled: List[Tuple[FrameRecord, Any]],
    schedule: BudgetSchedule,
    pick: Callable[[List[FrameRecord], int, int, Any], Tuple[List[str], Dict[str, float]]],
    epochs: int,
    report: RunReport,
    eval_frames: Sequence[FrameRecord] = (),
) -> Any:
    """Stage 4, the round loop every strategy shares; fills ``report``, returns the detector state.

    Every epoch up to the last trigger fine-tunes on ``src_labeled`` plus the
    labeled targets. A trigger epoch first calls ``pick(unlabeled, budget,
    round, det_state)`` on the unlabeled frames of the id-sorted ``target``,
    which returns the picked ids and the scores to report for them. A pick
    that names an id twice, an already-labeled id or an id outside ``target``
    raises ``ValueError`` naming it. A pick without labels sets
    ``report.halted`` and returns before fine-tuning; otherwise the labeled
    ids end up in ``report.labeled_target``.
    """
    by_id = {f.id: f for f in target}
    triggers = {e: (k, schedule.per_round[k]) for k, e in enumerate(schedule.trigger_epochs)}
    max_epoch = max(schedule.trigger_epochs) if schedule.rounds else -1
    labeled: List[str] = []
    picked = set()
    for epoch in range(max_epoch + 1):
        if epoch in triggers:
            k, budget = triggers[epoch]
            unlabeled = [f for f in target if f.id not in picked]
            budget = min(budget, len(unlabeled))
            delta, scores = pick(unlabeled, budget, k, det_state) if budget else ([], {})
            report.rounds.append(RoundEntry(k, epoch, budget, list(delta), scores))
            for i in delta:
                if i not in by_id:
                    raise ValueError("round %d picked %r, which is not in the target pool" % (k, i))
                if i in picked:
                    raise ValueError("round %d picked %r a second time" % (k, i))
                picked.add(i)
            if any(by_id[i].hidden_label is None for i in delta):
                report.halted = "selected frames lack labels; manifest emitted"
                return det_state
            labeled += delta
        det_state = oracle.finetune(
            det_state, src_labeled + [(by_id[i], by_id[i].hidden_label) for i in labeled], epochs
        )
        if eval_frames:
            report.metrics.append(EpochMetric(epoch, oracle.evaluate(det_state, eval_frames)))
    report.stages.append("target-rounds")
    if eval_frames:
        report.final_metric = oracle.evaluate(det_state, eval_frames)
    report.labeled_target = labeled
    return det_state


def serialize_report(report: RunReport) -> str:
    """Canonical JSON of ``report`` without the fields still at their defaults (byte-stable)."""
    return canonical_json(report)


def _roi_dim(frames: Sequence[FrameRecord]) -> int:
    for f in frames:
        rois = np.asarray(f.roi_features)
        if rois.size:
            return rois.shape[1]
    return 1


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

