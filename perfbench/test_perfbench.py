"""The benchmark's own tests, at tiny sizes: python3 -m pytest -q perfbench"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts src/ on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)
run.SETUP_MIN_S = 0.0  # tiny set-ups need no timing window
COUNT_UNITS = ("count", "bytes", "ratio")


def snapshot():
    """Every attribute of every bidal module and bidal-defined class, by identity."""
    out = {}
    for n, m in list(sys.modules.items()):
        if n == "bidal" or n.startswith("bidal."):
            for key, value in vars(m).items():
                out[(id(m), key)] = value
                if inspect.isclass(value) and value.__module__.startswith("bidal"):
                    for attr, member in vars(value).items():
                        out[(id(value), attr)] = member
    return out


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_result_line(name, trace, tmp_path, capsys):
    argv = ["--workload", name, "--seed", "2", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny", "--out-dir", str(tmp_path)]
    assert run.main(argv) == 0
    line = _last_line(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 1 + trace
    want = run.END_TO_END if trace == 0 else tracer.PER_LAYER
    assert [(k, m["unit"]) for k, m in line["metrics"].items()] == list(want)
    if trace == 0:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    result = json.loads((tmp_path / ("%s-seed2-trace%d.json" % (name, trace))).read_text())
    assert set(result["stamp"]) == {"git_sha", "nproc", "python", "numpy", "blas_threads", "seed"}
    assert len(result["digests"]) == 1
    assert not (tmp_path / "work" / ("%s-%d" % (name, os.getpid()))).exists()


def test_manifest_matches_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(tracer.PER_LAYER)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced tiny runs per workload, same seed."""
    out = str(tmp_path_factory.mktemp("traced"))
    before = snapshot()
    runs = {
        name: [run.run_workload(name, 5, 0, 1, out, "tiny")["line"] for _ in range(2)]
        for name in NAMES
    }
    return before, runs


def test_patched_attributes_restored(traced):
    before, _ = traced
    assert snapshot() == before
    tr = tracer.Tracer()
    tr.install()
    try:
        import bidal.cli
        import bidal.pipeline

        assert bidal.pipeline.train is not before[(id(bidal.pipeline), "train")]
        assert bidal.cli.train is bidal.pipeline.train
    finally:
        tr.uninstall()
    assert snapshot() == before


def test_traced_counts_repeat_exactly(traced):
    _, runs = traced
    for name, (a, b) in runs.items():
        assert a["correct"] and b["correct"], name
        for metric, unit in tracer.PER_LAYER:
            if unit in COUNT_UNITS:
                assert a["metrics"][metric] == b["metrics"][metric], (name, metric)


def test_layer_counts_per_workload(traced):
    _, runs = traced
    m = {name: r[0]["metrics"] for name, r in runs.items()}

    def v(name, metric):
        return m[name][metric]["value"]

    assert v("select-wide", "target_sampler.merge_banks.calls") == 0
    assert v("select-churn", "target_sampler.merge_banks.calls") > 0
    assert v("sweep-c10", "scoring.scene_vector.unique_ratio") < 1
    for name in ("select-wide", "select-churn"):
        assert v(name, "discriminator.train.calls") == 0
        assert v(name, "scoring.scene_vector.unique_ratio") == 1
    assert v("sweep-c10", "discriminator.train.unique_ratio") == 0.5
    for name in NAMES:
        io_calls = v(name, "io.load_frames.frames") + v(name, "cli.main.calls")
        assert (io_calls > 0) == (name == "cli-flow"), name


def _fake(**overrides) -> workloads.Workload:
    counter = itertools.count()
    base = workloads.Workload(
        "fake", "", lambda s: 1, lambda seed, sizes, workdir: {},
        lambda ctx: next(counter), lambda ctx, out: [], lambda ctx, out: "same",
    )
    return replace(base, **overrides)


@pytest.mark.parametrize("overrides, failed", [
    ({"digest": lambda ctx, out: "d%d" % out}, lambda n: n - 1),  # all but the first op
    ({"check": lambda ctx, out: ["bad"] if out % 2 else []}, lambda n: n // 2),
    ({"op": lambda ctx: 1 / 0}, lambda n: n),
])
def test_failed_ops_count(overrides, failed, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "fake", _fake(**overrides))
    result = run.run_workload("fake", 0, 0.5, 0, str(tmp_path))
    line = result["line"]
    assert line["attempted"] >= 2
    assert not line["correct"]
    assert line["failed"] == failed(line["attempted"])
    assert result["extra"]["error_rate"] == line["failed"] / line["attempted"]
