"""Command-line entry point.

Subcommands: gen, train-disc, sample-source, sample-target, run, bench,
report. Exit codes: 0 ok, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import io as frameio
from .core import BudgetSchedule, ConfigError, _build, read_json, write_ids
# ``train`` is unused: perfbench/test_perfbench.py checks that its tracer patches it here
from .discriminator import DiscriminatorModel, NumericalError, fit, train
from .pipeline import PipelineConfig, RunReport, run_bidomain, serialize_report
from .simulator import STRATEGIES, BenchFile, ProxyDetector, SyntheticConfig, benchmark, generate
from .source_sampler import score_source, select_source
from .target_sampler import sample_round

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _count(text: str) -> int:
    """A flag's integer value of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be an integer of at least 1, got %r" % text)
    return int(text)


def _seed(text: str) -> int:
    """A flag's non-negative integer seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %r" % text)
    return int(text)


def _strategies(text: str) -> list:
    """A flag's comma-separated strategy names: one or more that ``benchmark`` runs, none twice."""
    names = [v for v in text.split(",") if v]
    if not names or not set(names) <= set(STRATEGIES) or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError("must be one or more distinct comma-separated strategies "
                                         "(%s), got %r" % (", ".join(STRATEGIES), text))
    return names


def _fractions(text: str) -> list:
    """A flag's comma-separated fractions in (0, 1], at least one; NaN and infinities are not."""
    try:
        values = [float(v) for v in text.split(",") if v]
        if values and all(0 < v <= 1 for v in values):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "must be one or more comma-separated fractions in (0, 1], got %r" % text
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bidal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", help="synthetic config JSON")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-disc", help="train the domain discriminator")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", help="pipeline config JSON (discriminator section)")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="model checkpoint path")

    p = sub.add_parser("sample-source", help="domainness-aware source selection")
    p.add_argument("--frames", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="threshold:0")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample-target", help="diversity-based target selection")
    p.add_argument("--frames", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--budget", type=_count, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="full bi-domain pipeline")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--eval", dest="eval_frames")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("bench", help="strategy benchmark sweep")
    p.add_argument("--config", help="synthetic config JSON")
    p.add_argument("--strategies", type=_strategies, default="random,bidomain")
    p.add_argument("--seeds", type=_count, default=5)
    p.add_argument("--budgets", type=_fractions, default="0.01,0.05")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("report", help="summarize a run or benchmark report")
    p.add_argument("--in", dest="path", required=True)
    return parser


# the pipeline config without a file (train-disc's without --config): every field at its
# default, and no rounds
_NO_PIPELINE_CONFIG = PipelineConfig(BudgetSchedule(0, (), ()))


def _config(path, default, seed):
    """The config in ``path`` (``default`` without one), of ``default``'s type; a ``seed`` other
    than None sets its seed and a pipeline's discriminator seed, so run and train-disc agree."""
    cfg = frameio.load_config(path) if path else default
    if type(cfg) is not type(default):
        kind = "pipeline" if isinstance(default, PipelineConfig) else "synthetic"
        raise ConfigError("expected a %s config" % kind)
    if seed is not None and isinstance(cfg, PipelineConfig):
        cfg = replace(cfg, discriminator=replace(cfg.discriminator, seed=seed))
    return cfg if seed is None else replace(cfg, seed=seed)


def _cmd_gen(args) -> int:
    cfg = _config(args.config, SyntheticConfig(), args.seed)
    os.makedirs(args.out, exist_ok=True)
    source, target, eval_frames = generate(cfg)
    frameio.save_frames(source, os.path.join(args.out, "source.ndjson"))
    frameio.save_frames(target, os.path.join(args.out, "target.ndjson"))
    frameio.save_frames(eval_frames, os.path.join(args.out, "eval.ndjson"))
    print("wrote %d source / %d target / %d eval frames to %s"
          % (len(source), len(target), len(eval_frames), args.out))
    return EXIT_OK


def _cmd_train_disc(args) -> int:
    source = frameio.load_frames(args.source)
    target = frameio.load_frames(args.target)
    # initialize with the config's top-level seed, as `run` does
    cfg = _config(args.config, _NO_PIPELINE_CONFIG, args.seed)
    model, history = fit(source, target, cfg.hidden_dims, cfg.discriminator, cfg.seed)
    model.save(args.out)
    print("final loss %.6f after %d epochs -> %s"
          % (history[-1] if history else float("nan"), len(history), args.out))
    return EXIT_OK


def _cmd_sample_source(args) -> int:
    frames = frameio.load_frames(args.frames)
    model = DiscriminatorModel.load(args.model)
    mode = frameio.parse_source_mode(args.mode)
    selected = select_source(score_source(frames, model), mode)
    write_ids(args.out, selected)
    print("selected %d of %d source frames" % (len(selected), len(frames)))
    return EXIT_OK


def _roi_dim(frames) -> int:
    """The ROI width of the first frame with ROIs, or 1 when no frame has any."""
    for f in frames:
        rois = np.asarray(f.roi_features)
        if rois.size:
            return rois.shape[1]
    return 1


def _cmd_sample_target(args) -> int:
    frames = sorted(frameio.load_frames(args.frames), key=lambda f: f.id)
    model = DiscriminatorModel.load(args.model)
    selected = sample_round(frames, model, args.budget, roi_dim=_roi_dim(frames))
    write_ids(args.out, selected)
    print("selected %d of %d target frames" % (len(selected), len(frames)))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _config(args.config, _NO_PIPELINE_CONFIG, args.seed)
    source = frameio.load_frames(args.source)
    target = frameio.load_frames(args.target)
    eval_frames = frameio.load_frames(args.eval_frames) if args.eval_frames else []

    # one class per index up to the largest label of the three files, so a
    # class missing from the source pool still leaves every label a class
    # index; the detector's memory grows with the class count, so a label
    # must also be below the number of frames
    frames = source + target + eval_frames
    top = max((f for f in frames if f.hidden_label is not None),
              key=lambda f: f.hidden_label, default=None)
    if top is not None and top.hidden_label >= len(frames):
        raise ValueError("frame %r has label %d, not below the %d frames of the run's files"
                         % (top.id, top.hidden_label, len(frames)))
    n_classes = max(2, 1 + (top.hidden_label if top is not None else 0))
    oracle = ProxyDetector(n_classes=n_classes, roi_dim=_roi_dim(source + target))
    _, report = run_bidomain(source, target, oracle, cfg, eval_frames)
    if report.halted:
        # the halting round's picks are the frames to annotate
        write_ids(os.path.splitext(args.out)[0] + ".manifest.txt", report.rounds[-1].selected)
    with open(args.out, "w") as fh:
        fh.write(serialize_report(report))
    status = report.halted or "completed"
    print("%s; report -> %s" % (status, args.out))
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _config(args.config, SyntheticConfig(), args.seed)
    report = benchmark(
        cfg,
        strategies=args.strategies,
        seeds=tuple(range(args.seeds)),
        budget_fracs=args.budgets,
    )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(report.to_json())
    print(json.dumps(report.summary["mean_accuracy"], indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_report(args) -> int:
    payload = read_json(args.path, "report")
    context = "report %s" % args.path
    # a bench summary has rows; anything else is read as a run report, whose
    # schema rejects a stray summary key
    if "rows" in payload:
        _build(BenchFile, payload, context, {})
        print(json.dumps(payload["summary"], indent=2, sort_keys=True))
        return EXIT_OK
    report = _build(RunReport, payload, context, {})
    print("stages: %s" % ", ".join(report.stages))
    for r in report.rounds:
        print("round %d @ epoch %d: %d selected" % (r.round, r.trigger_epoch, len(r.selected)))
    if report.final_metric is not None:
        print("final metric: %.4f" % report.final_metric)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "train-disc": _cmd_train_disc,
    "sample-source": _cmd_sample_source,
    "sample-target": _cmd_sample_target,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return EXIT_NUMERIC
    # ConfigError and FrameFormatError are ValueErrors; OSError names the path
    except (OSError, ValueError) as exc:
        sys.stderr.write("data error: %s\n" % exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
