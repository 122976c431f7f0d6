"""The benchmark's four seeded workloads.

Each workload has a set-up, one op, an output check and a digest. The op is
what the harness times; it runs closed-loop, one at a time, and every op of a
run repeats the same seeded inputs, so every op's digest must equal the
first. All calls into bidal go through module attributes looked up at call
time, so the tracer's patched functions are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import shutil
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List

from bidal import cli, discriminator, scoring, simulator, target_sampler

STRATEGIES = ("random", "entropy", "committee", "bidomain")
BUDGET_FRACS = (0.01, 0.05)
DISC_DIMS = (16, 64, 32, 1)
CLI_SCHEDULE = "kitti-1pct"
CLI_SCHEDULE_TOTAL = 36  # kitti-1pct: two rounds of 18


@dataclass(frozen=True)
class Sizes:
    """Pool sizes, budgets and epochs of the four workloads."""

    n_source: int
    n_target: int
    n_eval: int
    disc_epochs: int
    wide_target: int
    wide_budget: int
    churn_target: int
    churn_budget: int
    select_train_epochs: int
    cli_train_epochs: int
    cli_budget: int


# the acceptance gate's sizes: one op of sweep-c10 is one c10 seed
GATE = Sizes(
    n_source=600,
    n_target=2000,
    n_eval=300,
    disc_epochs=150,
    wide_target=5000,
    wide_budget=140,
    churn_target=2000,
    churn_budget=60,
    select_train_epochs=10,
    cli_train_epochs=150,
    cli_budget=18,
)
# what the benchmark measures: the same shapes, cut so that a run holds
# enough ops for its figure to be steady on a noisy host (see README.md)
BENCH = replace(GATE, n_source=150, n_target=500, n_eval=75, wide_target=2000)
# a few seconds for all four workloads; used by the benchmark's own tests
TINY = Sizes(
    n_source=40,
    n_target=120,
    n_eval=30,
    disc_epochs=4,
    wide_target=300,
    wide_budget=20,
    churn_target=200,
    churn_budget=12,
    select_train_epochs=3,
    cli_train_epochs=4,
    cli_budget=6,
)
SIZES = {"bench": BENCH, "gate": GATE, "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_frames: Callable[[Sizes], int]
    setup: Callable[[int, Sizes, str], Dict[str, Any]]
    op: Callable[[Dict[str, Any]], Any]
    check: Callable[[Dict[str, Any], Any], List[str]]
    digest: Callable[[Dict[str, Any], Any], str]


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _synthetic(seed: int, n_source: int, n_target: int, n_eval: int):
    return simulator.SyntheticConfig(
        n_source=n_source, n_target=n_target, n_eval=n_eval, domain_shift=3.0, seed=seed
    )


def _check_selection(ids: List[str], budget: int, pool_ids) -> List[str]:
    errors = []
    if len(ids) != min(budget, len(pool_ids)):
        errors.append("selected %d ids, expected %d" % (len(ids), min(budget, len(pool_ids))))
    if len(set(ids)) != len(ids):
        errors.append("selected ids are not unique")
    stray = [i for i in ids if i not in pool_ids]
    if stray:
        errors.append("selected id %r is not in the target pool" % stray[0])
    return errors


# -- sweep-c10: one seed of the acceptance-gate benchmark -------------------


def _sweep_setup(seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
    cfg = _synthetic(seed, sizes.n_source, sizes.n_target, sizes.n_eval)
    # the same pools benchmark() regenerates inside the op; the check needs
    # the budgets they imply
    _, target, _ = simulator.generate(cfg)
    budgets = sorted({max(1, round(f * len(target))) for f in BUDGET_FRACS})
    return {"cfg": cfg, "budgets": budgets, "epochs": sizes.disc_epochs}


def _sweep_op(ctx):
    return simulator.benchmark(
        ctx["cfg"],
        strategies=STRATEGIES,
        seeds=(0,),
        budget_fracs=BUDGET_FRACS,
        disc_epochs=ctx["epochs"],
    )


def _sweep_check(ctx, report) -> List[str]:
    want = {str(b) for b in ctx["budgets"]}
    errors = []
    mean_acc = report.summary["mean_accuracy"]
    if set(mean_acc) != set(STRATEGIES):
        errors.append("summary strategies %s" % sorted(mean_acc))
    for strategy in STRATEGIES:
        if set(mean_acc.get(strategy, {})) != want:
            errors.append("%s covers budgets %s" % (strategy, sorted(mean_acc.get(strategy, {}))))
    if len(report.rows) != len(STRATEGIES) * len(want):
        errors.append("%d rows, expected %d" % (len(report.rows), len(STRATEGIES) * len(want)))
    return errors


def bidomain_acc_gain(report) -> float:
    """Bidomain minus random mean eval accuracy, averaged over the budgets."""
    mean_acc = report.summary["mean_accuracy"]
    budgets = sorted(mean_acc["random"], key=int)
    gains = [mean_acc["bidomain"][b] - mean_acc["random"][b] for b in budgets]
    return sum(gains) / len(gains)


# -- select-wide / select-churn: one sample_round over a target pool --------


def _select_setup(n_target: int, budget: int, compare: str):
    def setup(seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
        source, target, _ = simulator.generate(_synthetic(seed, sizes.n_source, n_target(sizes), 1))
        model = discriminator.DiscriminatorModel.initialize(DISC_DIMS, seed=seed)
        model, _ = discriminator.train(
            model,
            [scoring.scene_vector(f) for f in source],
            [scoring.scene_vector(f) for f in target],
            discriminator.TrainConfig(epochs=sizes.select_train_epochs, seed=seed),
        )
        return {
            "pool": target,
            "pool_ids": {f.id for f in target},
            "model": model,
            "budget": budget(sizes),
            "config": target_sampler.BankConfig(pairwise_compare=compare),
        }

    return setup


def _select_op(ctx):
    return target_sampler.sample_round(
        ctx["pool"], ctx["model"], ctx["budget"], config=ctx["config"]
    )


def _select_check(ctx, ids) -> List[str]:
    return _check_selection(ids, ctx["budget"], ctx["pool_ids"])


def _select_digest(ctx, ids) -> str:
    return _sha256("\n".join(ids).encode())


# -- cli-flow: the README walk-through through cli.main ----------------------


def _cli_setup(seed: int, sizes: Sizes, workdir: str) -> Dict[str, Any]:
    root = os.path.join(workdir, "cli-flow")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    synthetic = os.path.join(root, "synthetic.json")
    pipeline = os.path.join(root, "pipeline.json")
    with open(synthetic, "w") as fh:
        json.dump(
            {"kind": "synthetic", "n_source": sizes.n_source, "n_target": sizes.n_target,
             "n_eval": sizes.n_eval, "domain_shift": 3.0},
            fh,
        )
    with open(pipeline, "w") as fh:
        json.dump(
            {"kind": "pipeline", "schedule": CLI_SCHEDULE,
             "discriminator": {"epochs": sizes.cli_train_epochs}},
            fh,
        )
    # the pools `gen` will write, so the check knows the target ids
    _, target, _ = simulator.generate(_synthetic(seed, sizes.n_source, sizes.n_target, sizes.n_eval))
    return {
        "seed": seed,
        "synthetic": synthetic,
        "pipeline": pipeline,
        "out": os.path.join(root, "out"),
        "budget": sizes.cli_budget,
        "pool_ids": {f.id for f in target},
    }


def _cli_steps(ctx) -> List[List[str]]:
    out = ctx["out"]
    data = os.path.join(out, "data")
    src, tgt, ev = (os.path.join(data, n + ".ndjson") for n in ("source", "target", "eval"))
    disc = os.path.join(out, "disc.json")
    report = os.path.join(out, "report.json")
    return [
        ["gen", "--config", ctx["synthetic"], "--seed", str(ctx["seed"]), "--out", data],
        ["train-disc", "--source", src, "--target", tgt, "--config", ctx["pipeline"], "--out", disc],
        ["sample-source", "--frames", src, "--model", disc, "--mode", "proportion:0.3",
         "--out", os.path.join(out, "source_ids.txt")],
        ["sample-target", "--frames", tgt, "--model", disc, "--budget", str(ctx["budget"]),
         "--out", os.path.join(out, "target_ids.txt")],
        ["run", "--config", ctx["pipeline"], "--source", src, "--target", tgt, "--eval", ev,
         "--out", report],
        ["report", "--in", report],
    ]


def _cli_op(ctx):
    shutil.rmtree(ctx["out"], ignore_errors=True)
    steps = _cli_steps(ctx)
    codes = []
    printed = stdio.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        for argv in steps:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    return {"codes": codes, "printed": printed.getvalue()}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli_check(ctx, result) -> List[str]:
    steps = _cli_steps(ctx)
    if result["codes"] != [0] * len(steps):
        failed = steps[len(result["codes"]) - 1][0]
        return ["`%s` exited %d: %s" % (failed, result["codes"][-1], result["printed"][-300:])]
    out = ctx["out"]
    report = json.loads(_read(os.path.join(out, "report.json")))
    errors = []
    if "halted" in report:
        errors.append("run halted: %s" % report["halted"])
    errors += _check_selection(report.get("labeled_target", []), CLI_SCHEDULE_TOTAL, ctx["pool_ids"])
    picks = _read(os.path.join(out, "target_ids.txt")).decode().split()
    errors += _check_selection(picks, ctx["budget"], ctx["pool_ids"])
    return errors


def _cli_digest(ctx, result) -> str:
    # every file the walk-through wrote, plus what `report` printed
    chunks = []
    for base, _, files in sorted(os.walk(ctx["out"])):
        for name in sorted(files):
            path = os.path.join(base, name)
            chunks += [os.path.relpath(path, ctx["out"]).encode(), b"\0", _read(path)]
    return _sha256(*chunks, result["printed"].encode())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep-c10",
            "a quarter-size c10 benchmark seed (4 strategies x 2 budgets): the discriminator "
            "trained twice on identical inputs, each scene vector computed ~8 times, "
            "tiny-cap banks, no I/O",
            lambda s: s.n_source + s.n_target,
            _sweep_setup,
            _sweep_op,
            _sweep_check,
            lambda ctx, report: _sha256(report.to_json().encode()),
        ),
        Workload(
            "select-wide",
            "sample_round over 2,000 target frames at budget 140: the bank's join path at a large "
            "cap, ~270k scalar cosine calls and no merges; no training, no I/O",
            lambda s: s.wide_target,
            _select_setup(lambda s: s.wide_target, lambda s: s.wide_budget, "min"),
            _select_op,
            _select_check,
            _select_digest,
        ),
        Workload(
            "select-churn",
            "sample_round over 2,000 target frames at budget 60 with pairwise_compare=max: the "
            "only workload where merge_banks runs hot (~200 merges per op)",
            lambda s: s.churn_target,
            _select_setup(lambda s: s.churn_target, lambda s: s.churn_budget, "max"),
            _select_op,
            _select_check,
            _select_digest,
        ),
        Workload(
            "cli-flow",
            "the README CLI walk-through in-process on 650 frames: the only workload that writes "
            "and reads ndjson and checkpoints, plus training twice and small-cap banks",
            lambda s: s.n_source + s.n_target,
            _cli_setup,
            _cli_op,
            _cli_check,
            _cli_digest,
        ),
    )
}
