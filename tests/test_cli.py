import base64
import dataclasses
import json
import random
import typing

import numpy as np
import pytest

from bidal import (BankConfig, BudgetSchedule, DiscriminatorModel, PipelineConfig,
                   SyntheticConfig, TrainConfig)
from bidal.cli import main

GEN_CFG = {
    "kind": "synthetic",
    "n_source": 30,
    "n_target": 40,
    "n_eval": 12,
    "domain_shift": 2.0,
    "seed": 0,
}

RUN_CFG = {
    "kind": "pipeline",
    "schedule": {"rounds": 2, "per_round": [3, 3], "trigger_epochs": [0, 2]},
    "source_mode": "topk:10",
    "source_finetune_epochs": 5,
    "discriminator": {"epochs": 20},
    "round_finetune_epochs": 5,
    "hidden_dims": [8],
}


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(GEN_CFG))
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    return tmp_path, data


def test_gen_writes_three_files(workspace):
    _, data = workspace
    for name in ("source.ndjson", "target.ndjson", "eval.ndjson"):
        assert (data / name).exists()
    assert len((data / "target.ndjson").read_text().splitlines()) == 40


def test_train_sample_roundtrip(workspace):
    tmp_path, data = workspace
    model = tmp_path / "disc.json"
    rc = main(
        [
            "train-disc",
            "--source", str(data / "source.ndjson"),
            "--target", str(data / "target.ndjson"),
            "--seed", "0",
            "--out", str(model),
        ]
    )
    assert rc == 0 and model.exists()

    src_out = tmp_path / "source_ids.txt"
    rc = main(
        [
            "sample-source",
            "--frames", str(data / "source.ndjson"),
            "--model", str(model),
            "--mode", "topk:5",
            "--out", str(src_out),
        ]
    )
    assert rc == 0
    assert len(src_out.read_text().splitlines()) == 5

    tgt_out = tmp_path / "target_ids.txt"
    rc = main(
        [
            "sample-target",
            "--frames", str(data / "target.ndjson"),
            "--model", str(model),
            "--budget", "4",
            "--out", str(tgt_out),
        ]
    )
    assert rc == 0
    ids = tgt_out.read_text().splitlines()
    assert len(ids) == 4 and len(set(ids)) == 4


def test_run_and_report(workspace, capsys):
    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    out = tmp_path / "report.json"
    rc = main(
        [
            "run",
            "--config", str(cfg),
            "--source", str(data / "source.ndjson"),
            "--target", str(data / "target.ndjson"),
            "--eval", str(data / "eval.ndjson"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["rounds"]) == 2
    assert "final_metric" in report

    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "round 0" in shown and "final metric" in shown


def test_halted_run_writes_the_manifest(workspace, capsys):
    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    target = tmp_path / "unlabeled.ndjson"
    target.write_text("".join(
        json.dumps(dict(json.loads(line), hidden_label=None)) + "\n"
        for line in (data / "target.ndjson").read_text().splitlines()
    ))
    out = tmp_path / "halted.json"
    capsys.readouterr()
    rc = main(["run", "--config", str(cfg), "--source", str(data / "source.ndjson"),
               "--target", str(target), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == (
        "selected frames lack labels; manifest emitted; report -> %s\n" % out
    )
    report = json.loads(out.read_text())
    assert report["halted"] == "selected frames lack labels; manifest emitted"
    manifest = (tmp_path / "halted.manifest.txt").read_text().splitlines()
    assert manifest == report["rounds"][0]["selected"] and len(manifest) == 3

    assert main(["report", "--in", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "round 0" in shown and "target-rounds" not in shown


def test_run_determinism_byte_identical(workspace):
    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    payloads = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main(
            [
                "run",
                "--config", str(cfg),
                "--source", str(data / "source.ndjson"),
                "--target", str(data / "target.ndjson"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


def test_bench_smoke(workspace, capsys):
    tmp_path, data = workspace
    cfg = tmp_path / "gen.json"
    out = tmp_path / "bench"
    rc = main(
        [
            "bench",
            "--config", str(cfg),
            "--strategies", "random,bidomain",
            "--seeds", "2",
            "--budgets", "0.05",
            "--out", str(out),
        ]
    )
    assert rc == 0
    # summary.json is the sweep's one file
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert "bidomain" in summary["summary"]["mean_accuracy"]
    # report reads the summary back through its declared schema
    capsys.readouterr()
    assert main(["report", "--in", str(out / "summary.json")]) == 0
    assert capsys.readouterr().out == json.dumps(summary["summary"], indent=2, sort_keys=True) + "\n"
    budget = next(iter(summary["summary"]["mean_accuracy"]["random"]))
    summary["summary"]["mean_accuracy"]["random"][budget] = "x"
    (out / "summary.json").write_text(json.dumps(summary))
    assert main(["report", "--in", str(out / "summary.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: report %s summary mean_accuracy random %s must be float, got 'x'"
                          % (out / "summary.json", budget)), err


@pytest.mark.parametrize("budgets", ["0.01,0.02", "0.05,0.05"])
def test_bench_fractions_of_one_budget_exit_2_writing_nothing(tmp_path, capsys, budgets):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(GEN_CFG))
    out = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg), "--seeds", "1", "--budgets", budgets,
               "--out", str(out)])
    assert rc == 2
    first, second = budgets.split(",")
    budget = max(1, round(float(first) * GEN_CFG["n_target"]))
    assert capsys.readouterr().err == (
        "data error: budget fractions %s and %s both give budget %d of 40 target frames\n"
        % (first, second, budget))
    assert not out.exists()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main(["gen"]) == 1  # missing --out


def test_data_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.ndjson")
    model = str(tmp_path / "m.json")
    rc = main(
        ["train-disc", "--source", missing, "--target", missing, "--out", model]
    )
    assert rc == 2


def test_malformed_frames_exit_code(tmp_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{not json\n")
    rc = main(
        [
            "train-disc",
            "--source", str(bad),
            "--target", str(bad),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "synthetic", "bogus": 1}))
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exit_code(workspace):
    tmp_path, data = workspace
    cfg = tmp_path / "diverge.json"
    payload = dict(RUN_CFG)
    payload["discriminator"] = {"epochs": 10, "learning_rate": 1e20}
    cfg.write_text(json.dumps(payload))
    rc = main(
        [
            "run",
            "--config", str(cfg),
            "--source", str(data / "source.ndjson"),
            "--target", str(data / "target.ndjson"),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 3


def test_train_disc_requires_pipeline_config(workspace):
    tmp_path, data = workspace
    rc = main(
        [
            "train-disc",
            "--source", str(data / "source.ndjson"),
            "--target", str(data / "target.ndjson"),
            "--config", str(tmp_path / "gen.json"),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2


def test_train_disc_uses_config_hidden_dims(workspace):
    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    model = tmp_path / "m.json"
    rc = main(
        [
            "train-disc",
            "--source", str(data / "source.ndjson"),
            "--target", str(data / "target.ndjson"),
            "--config", str(cfg),
            "--out", str(model),
        ]
    )
    assert rc == 0
    assert json.loads(model.read_text())["layer_dims"] == [16, 8, 1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.pop("leak"), "requires leak"),
        (lambda p: p.update(rng_seed=-3), "rng_seed must be at least 0, got -3"),
        (
            lambda p: p["weights"].insert(0, p["weights"].pop(0)[:8]),
            "weights[0] payload is 6 bytes, expected 512",
        ),
    ],
)
def test_corrupt_checkpoint_exit_code(workspace, capsys, edit, message):
    from bidal import DiscriminatorModel

    tmp_path, data = workspace
    model = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    payload = json.loads(model.read_text())
    edit(payload)
    model.write_text(json.dumps(payload))
    rc = main(
        [
            "sample-source",
            "--frames", str(data / "source.ndjson"),
            "--model", str(model),
            "--out", str(tmp_path / "ids.txt"),
        ]
    )
    assert rc == 2
    assert message in capsys.readouterr().err


def _wrong_value(tp):
    """A JSON value of the wrong type for a field declared as ``tp``."""
    if tp is int:
        return 1.5
    if tp is float:
        return "x"
    if tp in (bool, str) or typing.get_origin(tp) is tuple:
        return 1
    return [1]  # nested config, schedule or source mode: expects an object


_SECTIONS = {
    PipelineConfig: ("pipeline", []),
    TrainConfig: ("pipeline", ["discriminator"]),
    BankConfig: ("pipeline", ["bank_config"]),
    BudgetSchedule: ("pipeline", ["schedule"]),
    SyntheticConfig: ("synthetic", []),
}


@pytest.mark.parametrize(
    "cls, field",
    [(cls, f.name) for cls in _SECTIONS for f in dataclasses.fields(cls)],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_wrong_typed_config_field_exits_2(tmp_path, capsys, cls, field):
    kind, path = _SECTIONS[cls]
    payload = {"kind": kind}
    if kind == "pipeline":
        payload["schedule"] = {"rounds": 2, "per_round": [3, 3], "trigger_epochs": [0, 2]}
    section = payload
    for key in path:
        section = section.setdefault(key, {})
    section[field] = _wrong_value(typing.get_type_hints(cls)[field])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    if kind == "synthetic":
        argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "data")]
    else:
        missing = str(tmp_path / "none.ndjson")
        argv = ["run", "--config", str(cfg), "--source", missing, "--target", missing,
                "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert " ".join(path + [field]) + " must be" in err, err


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("gen", {"domain_shift": float("nan")},
         "synthetic config domain_shift must be a finite number, got nan"),
        ("run", {"discriminator": {"learning_rate": float("nan")}},
         "pipeline config discriminator learning_rate must be a finite number, got nan"),
        ("run", {"source_mode": "threshold:NaN"},
         "pipeline config source_mode value must be a finite number, got nan"),
        ("sample-source", {"mode": "threshold:NaN"},
         "source_mode value must be a finite number, got nan"),
        ("sample-source", {"mode": "proportion:-Infinity"},
         "source_mode value must be a finite number, got -inf"),
    ],
    ids=["gen-domain-shift", "run-learning-rate", "run-source-mode", "sample-source-nan",
         "sample-source-inf"],
)
def test_non_finite_number_exits_2_naming_it(workspace, capsys, command, values, message):
    """``values`` go into the command's config, or for sample-source give its ``--mode``."""
    tmp_path, data = workspace
    if command == "sample-source":
        model = tmp_path / "m.json"
        DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
        argv = [command, "--frames", str(data / "source.ndjson"), "--model", str(model),
                "--mode", values["mode"]]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(GEN_CFG if command == "gen" else RUN_CFG, **values)))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--source", str(data / "source.ndjson"),
                     "--target", str(data / "target.ndjson")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: " + message), err
    assert not out.exists()


def test_non_object_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
    assert "must be a JSON object, got [1]" in capsys.readouterr().err


@pytest.mark.parametrize("label", [[1], 1.5, "a", True, -1])
def test_bad_hidden_label_exits_2(workspace, capsys, label):
    tmp_path, data = workspace
    lines = (data / "source.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    records[1]["hidden_label"] = label
    source = tmp_path / "bad_source.ndjson"
    source.write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    rc = main(
        [
            "run",
            "--config", str(cfg),
            "--source", str(source),
            "--target", str(data / "target.ndjson"),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    if label == -1:
        message = "frame record hidden_label must be at least 0, got -1"
    else:
        message = "frame record hidden_label must be int, got %r" % (label,)
    assert err == "data error: line 2: %s\n" % message, err


def test_run_rejects_mistagged_frame(workspace, capsys):
    tmp_path, data = workspace
    records = [json.loads(line) for line in (data / "target.ndjson").read_text().splitlines()]
    records[3]["domain"] = "source"
    target = tmp_path / "mistagged.ndjson"
    target.write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    rc = main(
        [
            "run",
            "--config", str(cfg),
            "--source", str(data / "source.ndjson"),
            "--target", str(target),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "other pool's domain: [%r]" % records[3]["id"] in err, err


@pytest.mark.parametrize("pool, label, message", [
    ("eval", None, "eval frames must carry labels; unlabeled: [%r]"),
    ("source", 82, "frame %r has label 82, not below the 82 frames of the run's files"),
], ids=["unlabeled eval frame", "label outside the classes"])
def test_run_rejects_unusable_label(workspace, capsys, pool, label, message):
    tmp_path, data = workspace
    files = {name: data / ("%s.ndjson" % name) for name in ("source", "target", "eval")}
    records = [json.loads(line) for line in files[pool].read_text().splitlines()]
    records[1]["hidden_label"] = label
    files[pool] = tmp_path / "edited.ndjson"
    files[pool].write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    out = tmp_path / "r.json"
    rc = main(["run", "--config", str(cfg), "--source", str(files["source"]),
               "--target", str(files["target"]), "--eval", str(files["eval"]), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message % records[1]["id"] in err and "Traceback" not in err, err
    assert not out.exists() and not (tmp_path / "r.manifest.txt").exists()


def _without_label(label):
    return lambda records: [r for r in records if r["hidden_label"] != label]


def _relabel(label, which=slice(1, 2)):
    def edit(records):
        for r in records[which]:
            r["hidden_label"] = label
        return records
    return edit


@pytest.mark.parametrize("pool, edit", [
    ("source", _without_label(1)),
    ("source", _relabel(7)),
    ("target", _relabel(3, which=slice(None))),
], ids=["source without class 1", "source label 7", "target labels above the source's"])
def test_run_sizes_the_detector_by_the_largest_label(workspace, capsys, pool, edit):
    """`run` sizes the detector as 1 + the largest label in its three files, at least 2."""
    tmp_path, data = workspace
    files = {name: data / ("%s.ndjson" % name) for name in ("source", "target", "eval")}
    records = edit([json.loads(line) for line in files[pool].read_text().splitlines()])
    files[pool] = tmp_path / "edited.ndjson"
    files[pool].write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    out = tmp_path / "r.json"
    rc = main(["run", "--config", str(cfg), "--source", str(files["source"]),
               "--target", str(files["target"]), "--eval", str(files["eval"]), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["final_metric"] is not None


def test_run_rejects_removed_rescore_key(workspace, capsys):
    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(dict(RUN_CFG, rescore_each_round=True)))
    rc = main(
        [
            "run",
            "--config", str(cfg),
            "--source", str(data / "source.ndjson"),
            "--target", str(data / "target.ndjson"),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 2
    assert "unknown pipeline config keys: rescore_each_round" in capsys.readouterr().err


@pytest.mark.parametrize("empty", ["source", "target"])
def test_train_disc_empty_pool_exits_2(workspace, capsys, empty):
    tmp_path, data = workspace
    pools = {"source": str(data / "source.ndjson"), "target": str(data / "target.ndjson")}
    (tmp_path / "empty.ndjson").write_text("")
    pools[empty] = str(tmp_path / "empty.ndjson")
    rc = main(
        [
            "train-disc",
            "--source", pools["source"],
            "--target", pools["target"],
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2
    assert "must be non-empty" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, pool", [
    ("sample-source", [], "source"),
    ("sample-target", ["--budget", "3"], "target"),
])
def test_sample_empty_frame_file_selects_nothing(tmp_path, capsys, command, flags, pool):
    (tmp_path / "empty.ndjson").write_text("")
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(tmp_path / "m.json"))
    out = tmp_path / "ids.txt"
    argv = [command, "--frames", str(tmp_path / "empty.ndjson"), "--model",
            str(tmp_path / "m.json"), "--out", str(out)] + flags
    assert main(argv) == 0
    assert capsys.readouterr().out == "selected 0 of 0 %s frames\n" % pool
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "command, pool, message",
    [
        ("sample-target", "source", "frame 's00000' is not target-tagged"),
        ("sample-source", "target", "frame 't00000' is not source-tagged"),
    ],
    ids=["sample-target", "sample-source"],
)
def test_sample_other_pools_file_exits_2(workspace, capsys, command, pool, message):
    from bidal import DiscriminatorModel

    tmp_path, data = workspace
    model = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    argv = [command, "--frames", str(data / (pool + ".ndjson")), "--model", str(model),
            "--out", str(tmp_path / "ids.txt")]
    if command == "sample-target":
        argv += ["--budget", "4"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ids.txt").exists()


@pytest.mark.parametrize(
    "source, target, message",
    [
        ("target", "source", "frames tagged with the other pool's domain: ['t00000'"),
        ("source", "source", "frame ids must be unique across both pools; repeated: ['s00000'"),
    ],
    ids=["swapped", "same-file"],
)
def test_train_disc_pool_rules_exit_2(workspace, capsys, source, target, message):
    tmp_path, data = workspace
    rc = main(
        [
            "train-disc",
            "--source", str(data / (source + ".ndjson")),
            "--target", str(data / (target + ".ndjson")),
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def _nan_weight(payload):
    from bidal.core import encode_array

    payload["weights"][1] = encode_array(np.full((4, 1), np.nan), "<f8")


@pytest.mark.parametrize("command", ["sample-source", "sample-target"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["weights"].pop(), "weights holds 1 arrays, expected 2 for layer_dims [16, 4, 1]"),
        (lambda p: p["biases"].append(p["biases"][-1]), "biases holds 3 arrays, expected 2"),
        (_nan_weight, "weights[1] holds non-finite values"),
    ],
    ids=["missing-weights", "extra-biases", "nan-weight"],
)
def test_inconsistent_checkpoint_exits_2(workspace, capsys, command, edit, message):
    from bidal import DiscriminatorModel

    tmp_path, data = workspace
    model = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    payload = json.loads(model.read_text())
    edit(payload)
    model.write_text(json.dumps(payload))
    pool = "source" if command == "sample-source" else "target"
    argv = [command, "--frames", str(data / (pool + ".ndjson")), "--model", str(model),
            "--out", str(tmp_path / "ids.txt")]
    if command == "sample-target":
        argv += ["--budget", "4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "checkpoint %s: %s" % (model, message) in err, err
    assert not (tmp_path / "ids.txt").exists()


@pytest.mark.parametrize("bad_id", [7, None, ["t1"]])
def test_non_string_frame_id_exits_2(workspace, capsys, bad_id):
    tmp_path, data = workspace
    records = [json.loads(line) for line in (data / "target.ndjson").read_text().splitlines()]
    records[2]["id"] = bad_id
    target = tmp_path / "bad_ids.ndjson"
    target.write_text("".join(json.dumps(r) + "\n" for r in records))
    model = tmp_path / "m.json"
    from bidal import DiscriminatorModel

    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    rc = main(["sample-target", "--frames", str(target), "--model", str(model),
               "--budget", "4", "--out", str(tmp_path / "ids.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "data error: line 3: frame record id must be str, got %r\n" % (bad_id,), err


def test_train_disc_then_sample_source_reproduces_run(workspace):
    """With a pipeline config, train-disc initializes with the run's top-level seed."""
    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(dict(RUN_CFG, seed=3, discriminator={"epochs": 20, "seed": 7})))
    src, tgt = str(data / "source.ndjson"), str(data / "target.ndjson")
    report = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--source", src, "--target", tgt,
                 "--out", str(report)]) == 0
    model = tmp_path / "m.json"
    assert main(["train-disc", "--source", src, "--target", tgt, "--config", str(cfg),
                 "--out", str(model)]) == 0
    ids = tmp_path / "ids.txt"
    assert main(["sample-source", "--frames", src, "--model", str(model),
                 "--mode", RUN_CFG["source_mode"], "--out", str(ids)]) == 0
    selection = json.loads(report.read_text())["source_selection"]
    assert ids.read_text().splitlines() == selection["ids"]


def test_run_seed_sets_the_discriminator_seed_as_train_disc_does(workspace):
    """With ``--seed``, train-disc's checkpoint is the run's discriminator: it scores the
    source pool as the run's stage 3 did."""
    from bidal import load_frames, score_source

    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    src, tgt = str(data / "source.ndjson"), str(data / "target.ndjson")
    report, model = tmp_path / "r.json", tmp_path / "m.json"
    common = ["--source", src, "--target", tgt, "--config", str(cfg), "--seed", "5"]
    assert main(["run"] + common + ["--out", str(report)]) == 0
    assert main(["train-disc"] + common + ["--out", str(model)]) == 0
    scores = score_source(load_frames(src), DiscriminatorModel.load(str(model)))
    want = json.loads(report.read_text())["source_selection"]["scores"]
    assert {s.frame_id: s.value for s in scores} == want


def test_source_mode_value_that_is_no_number_exits_2(workspace, capsys):
    tmp_path, data = workspace
    model = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    out = tmp_path / "ids.txt"
    assert main(["sample-source", "--frames", str(data / "source.ndjson"), "--model", str(model),
                 "--mode", "topk:abc", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: source_mode value must be a number, got 'abc'\n"
    assert not out.exists()


def test_outputs_do_not_depend_on_line_order(workspace):
    """train-disc, sample-source, sample-target and run write the same bytes from shuffled files."""
    tmp_path, data = workspace
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for name in ("source", "target", "eval"):
        lines = (data / (name + ".ndjson")).read_text().splitlines(keepends=True)
        random.Random(1).shuffle(lines)
        (shuffled / (name + ".ndjson")).write_text("".join(lines))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))

    def outputs(frames):
        out = tmp_path / ("out-" + frames.name)
        out.mkdir()
        source, target = str(frames / "source.ndjson"), str(frames / "target.ndjson")
        model = str(out / "disc.json")
        for argv in (
            ["train-disc", "--source", source, "--target", target, "--config", str(cfg),
             "--out", model],
            ["sample-source", "--frames", source, "--model", model, "--mode", "proportion:0.3",
             "--out", str(out / "source_ids.txt")],
            ["sample-target", "--frames", target, "--model", model, "--budget", "6",
             "--out", str(out / "target_ids.txt")],
            ["run", "--config", str(cfg), "--source", source, "--target", target,
             "--eval", str(frames / "eval.ndjson"), "--out", str(out / "report.json")],
        ):
            assert main(argv) == 0, argv
        return {p.name: p.read_bytes() for p in out.iterdir()}

    want = outputs(data)
    got = outputs(shuffled)
    assert sorted(got) == ["disc.json", "report.json", "source_ids.txt", "target_ids.txt"]
    for name in sorted(want):
        assert got[name] == want[name], name


# each message holds ``{}`` where the checkpoint's path goes
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: [p], "checkpoint {} must be a JSON object, got a list"),
        (lambda p: dict(p, layer_dims=[16, "4", 1]),
         "checkpoint {} layer_dims[1] must be int, got '4'"),
        (lambda p: dict(p, weights=5), "checkpoint {} weights must be a list of str, got 5"),
        (lambda p: dict(p, biases=[[0.0] * 4, p["biases"][1]]),
         "checkpoint {} biases[0] must be str, got [0.0, 0.0, 0.0, 0.0]"),
        (lambda p: dict(p, leak="0.01"), "checkpoint {} leak must be float, got '0.01'"),
        (lambda p: dict(p, rng_seed=1.5), "checkpoint {} rng_seed must be int, got 1.5"),
        (lambda p: dict(p, layer_dims=[16, 0, 1], weights=["", ""], biases=["", p["biases"][1]]),
         "checkpoint {} layer_dims[1] must be at least 1, got 0"),
        (lambda p: dict(p, layer_dims=[16, -4, 1]),
         "checkpoint {} layer_dims[1] must be at least 1, got -4"),
        (lambda p: dict(p, version=2), "checkpoint {}: version is 2, expected 1"),
        (lambda p: dict(p, momentum=0.9), "unknown checkpoint {} keys: momentum"),
        (lambda p: json.dumps(p)[:-1],
         "invalid JSON in {}: Expecting ',' delimiter"),
    ],
    ids=["top-level-list", "layer-dims-str", "weights-int", "blob-list", "leak-str",
         "rng-seed-float", "zero-width", "negative-width", "wrong-version", "unknown-key",
         "invalid-json"],
)
def test_wrong_typed_checkpoint_exits_2(workspace, capsys, edit, message):
    from bidal import DiscriminatorModel

    tmp_path, data = workspace
    model = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    payload = json.loads(model.read_text())
    edited = edit(payload)  # a JSON value, or the text to write
    model.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    rc = main(["sample-source", "--frames", str(data / "source.ndjson"), "--model", str(model),
               "--out", str(tmp_path / "ids.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message.format(model) in err, err
    # no message echoes a base64 payload
    assert not any(blob in err for blob in payload["weights"] + payload["biases"]), err
    assert not (tmp_path / "ids.txt").exists()



@pytest.mark.parametrize("command", ["train-disc", "run"])
def test_mixed_channel_counts_exit_2(workspace, capsys, command):
    from bidal import load_frames, save_frames

    tmp_path, data = workspace
    source = load_frames(str(data / "source.ndjson"))
    source[20] = dataclasses.replace(source[20], feature_map=source[20].feature_map[:8])
    mixed = tmp_path / "mixed.ndjson"
    save_frames(source, str(mixed))
    argv = [command, "--source", str(mixed), "--target", str(data / "target.ndjson"),
            "--out", str(tmp_path / "out.json")]
    if command == "run":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(RUN_CFG))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "frame s00020 feature_map has 8 channels, expected 16" in err, err
    assert not (tmp_path / "out.json").exists()


def _blob_edit(key, edit):
    """Decode a frame record's float32 payload ``key``, apply ``edit``, re-encode."""
    from bidal.core import encode_array

    def apply(record):
        values = np.frombuffer(base64.b64decode(record[key]), dtype="<f4").copy()
        record[key] = encode_array(edit(values), "<f4")

    return apply


def _nan_first(values):
    values[0] = np.nan
    return values


def _junk(key, item=None):
    """Put a character outside the base64 alphabet in the middle of a payload."""

    def apply(record):
        holder, k = (record, key) if item is None else (record[key], item)
        middle = len(holder[k]) // 2
        holder[k] = holder[k][:middle] + "*" + holder[k][middle:]

    return apply


def _set(key, value):
    def apply(record):
        if isinstance(key, tuple):
            record[key[0]][key[1]] = value
        else:
            record[key] = value

    return apply


def _drop(key):
    return lambda record: record.pop(key)


# frame-record field -> {fault: edit of the third target record}; a missing
# hidden_label is a valid unlabeled frame, so it has no "missing" case
FRAME_FAULTS = {
    "id": {"missing": _drop("id"), "type": _set("id", 7), "shape": _set("id", ["t00002"]),
           "nan": _set("id", float("nan"))},
    "domain": {"missing": _drop("domain"), "type": _set("domain", 1),
               "shape": _set("domain", ["target"]), "nan": _set("domain", float("nan"))},
    "shapes": {"missing": _drop("shapes"), "type": _set("shapes", "16x4x4"),
               "shape": _set(("shapes", "feature_map"), [16, 16]),
               "nan": _set(("shapes", "roi_features"), [float("nan"), 16]),
               # [-16, -4, 4]'s product matches the payload, so only the non-negative rule
               # stops it before numpy's reshape
               "negative": _set(("shapes", "feature_map"), [-16, -4, 4]),
               "bool": _set(("shapes", "feature_map"), [True, 4, 4])},
    "hidden_label": {"type": _set("hidden_label", "a"), "shape": _set("hidden_label", [1]),
                     "nan": _set("hidden_label", float("nan"))},
}
for _key in ("feature_map", "objectness_map", "roi_features", "roi_confidences"):
    FRAME_FAULTS[_key] = {"missing": _drop(_key), "type": _set(_key, 5),
                          "shape": _blob_edit(_key, lambda v: v[:-1]),
                          "nan": _blob_edit(_key, _nan_first), "junk": _junk(_key)}


def _ckpt_nan(key):
    def apply(payload):
        from bidal.core import encode_array

        values = np.frombuffer(base64.b64decode(payload[key][0]), dtype="<f8").copy()
        payload[key][0] = encode_array(_nan_first(values), "<f8")

    return apply


def _ckpt_truncate(key):
    def apply(payload):
        payload[key][0] = base64.b64encode(base64.b64decode(payload[key][0])[:-8]).decode()

    return apply


# checkpoint key -> {fault: edit of a saved (16, 4, 1) model}
CHECKPOINT_FAULTS = {
    "version": {"type": _set("version", "1"), "shape": _set("version", [1])},
    "layer_dims": {"type": _set("layer_dims", "16,4,1"),
                   "shape": _set("layer_dims", [16, 4, 2, 1]),
                   "nan": _set("layer_dims", [16, float("nan"), 1])},
    "weights": {"type": _set("weights", 5), "shape": _ckpt_truncate("weights"),
                "nan": _ckpt_nan("weights"), "junk": _junk("weights", 0)},
    "biases": {"type": _set("biases", 5), "shape": _ckpt_truncate("biases"),
               "nan": _ckpt_nan("biases"), "junk": _junk("biases", 0)},
    "leak": {"type": _set("leak", "0.01"), "shape": _set("leak", [0.01])},
    "rng_seed": {"type": _set("rng_seed", "0"), "shape": _set("rng_seed", [0])},
}
for _key, _faults in CHECKPOINT_FAULTS.items():
    _faults["missing"] = _drop(_key)
    _faults.setdefault("nan", _set(_key, float("nan")))


@pytest.mark.parametrize(
    "reader, field, fault",
    [("frame", k, f) for k, faults in FRAME_FAULTS.items() for f in faults]
    + [("checkpoint", k, f) for k, faults in CHECKPOINT_FAULTS.items() for f in faults],
)
def test_fuzzed_field_exits_2_naming_it(workspace, capsys, reader, field, fault):
    """Frame records through sample-target, checkpoints through sample-source."""
    from bidal import DiscriminatorModel

    tmp_path, data = workspace
    model = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    frames = data / "target.ndjson"
    if reader == "frame":
        records = [json.loads(line) for line in frames.read_text().splitlines()]
        FRAME_FAULTS[field][fault](records[2])
        frames = tmp_path / "fuzzed.ndjson"
        frames.write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = ["sample-target", "--budget", "4"]
    else:
        payload = json.loads(model.read_text())
        CHECKPOINT_FAULTS[field][fault](payload)
        model.write_text(json.dumps(payload))
        frames = data / "source.ndjson"
        argv = ["sample-source"]
    out = tmp_path / "ids.txt"
    rc = main(argv + ["--frames", str(frames), "--model", str(model), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    where = "line 3: " if reader == "frame" else "checkpoint %s" % model
    assert err.startswith("data error: " + where), err
    assert field in err.split(where, 1)[1], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample-source", "sample-target"])
def test_sample_doubled_frame_file_exits_2(workspace, capsys, command):
    tmp_path, data = workspace
    pool = (data / ("source.ndjson" if command == "sample-source" else "target.ndjson"))
    doubled = tmp_path / "doubled.ndjson"
    doubled.write_text(pool.read_text() * 2)
    model = tmp_path / "m.json"
    from bidal import DiscriminatorModel

    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    n = len(pool.read_text().splitlines())
    first = json.loads(pool.read_text().splitlines()[0])["id"]
    out = tmp_path / "ids.txt"
    argv = [command, "--frames", str(doubled), "--model", str(model), "--out", str(out)]
    if command == "sample-target":
        argv += ["--budget", "4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "line %d: id '%s' repeats line 1" % (n + 1, first) in err, err
    assert not out.exists()


def _drop_trigger_epoch(text):
    payload = json.loads(text)
    del payload["rounds"][1]["trigger_epoch"]
    return json.dumps(payload)


def _report_edit(edit):
    """A text edit of a report that applies ``edit`` to its JSON object in place."""

    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)

    return apply


# each message holds ``{}`` where the report's path goes
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: json.dumps([json.loads(text)]),
         "report {} must be a JSON object, got a list"),
        (_drop_trigger_epoch, "report {} rounds[1] requires trigger_epoch"),
        (lambda text: text[:-1], "invalid JSON in {}: "),
        (_report_edit(lambda p: p["rounds"][0].update(round="0")),
         "report {} rounds[0] round must be int, got '0'"),
        (_report_edit(lambda p: p["rounds"][0].update(selected=5)),
         "report {} rounds[0] selected must be a list of str, got 5"),
        (_report_edit(lambda p: p.update(final_metric="x")),
         "report {} final_metric must be float, got 'x'"),
        (_report_edit(lambda p: p.update(final_metric=float("nan"))),
         "report {} final_metric must be a finite number, got nan"),
        (_report_edit(lambda p: p.update(stages=[1])), "report {} stages[0] must be str, got 1"),
        (_report_edit(lambda p: p["rounds"][0].update(scores=[0.5])),
         "report {} rounds[0] scores must be a JSON object, got [0.5]"),
        (_report_edit(lambda p: p["rounds"][0].update(picks=[])),
         "unknown report {} rounds[0] keys: picks"),
        (_report_edit(lambda p: p.update(resumed=True)), "unknown report {} keys: resumed"),
        (_report_edit(dict.clear), "report {} requires seed"),
        (lambda text: json.dumps({"summary": 5}), "unknown report {} keys: summary"),
        (_report_edit(lambda p: p.update(summary={})), "unknown report {} keys: summary"),
    ],
    ids=["json-list", "round-without-trigger-epoch", "invalid-json", "round-str",
         "selected-int", "final-metric-str", "final-metric-nan", "stage-int", "scores-list",
         "unknown-round-key", "unknown-key", "empty-object", "summary-int",
         "run-report-with-summary"],
)
def test_bad_report_exits_2_naming_it(workspace, capsys, edit, message):
    tmp_path, data = workspace
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CFG))
    report = tmp_path / "report.json"
    assert main(["run", "--config", str(cfg), "--source", str(data / "source.ndjson"),
                 "--target", str(data / "target.ndjson"), "--out", str(report)]) == 0
    report.write_text(edit(report.read_text()))
    capsys.readouterr()
    assert main(["report", "--in", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: " + message.format(report)), err


def test_gen_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["gen", "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out) in err, err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sample-target", "--budget", "0"], "--budget"),
        (["sample-target", "--budget", "-3"], "--budget"),
        (["bench", "--seeds", "0"], "--seeds"),
        (["bench", "--budgets", "0.01,abc"], "--budgets"),
        (["bench", "--budgets", "inf"], "--budgets"),
        (["bench", "--budgets", "0.01,nan"], "--budgets"),
        (["bench", "--budgets", "-0.5"], "--budgets"),
        (["bench", "--budgets", "0"], "--budgets"),
        (["bench", "--budgets", "0.01,1.5"], "--budgets"),
        (["bench", "--budgets", ","], "--budgets"),
        (["bench", "--strategies", ","], "--strategies"),
        (["bench", "--strategies", "random,nope"], "--strategies"),
        (["bench", "--strategies", "random,bidomain,random"], "--strategies"),
        (["gen", "--seed", "-1"], "--seed"),
        (["train-disc", "--seed", "-1"], "--seed"),
        (["run", "--seed", "-1"], "--seed"),
        (["bench", "--seed", "-1"], "--seed"),
    ],
    ids=["budget-0", "budget-negative", "seeds-0", "budgets-text", "budgets-inf",
         "budgets-nan", "budgets-negative", "budgets-0", "budgets-above-1", "budgets-empty",
         "strategies-empty", "strategies-unknown", "strategies-repeated",
         "gen-seed-negative", "train-disc-seed-negative", "run-seed-negative",
         "bench-seed-negative"],
)
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv, flag):
    # the named files do not exist: the flag is rejected before any is read
    missing = str(tmp_path / "missing")
    if argv[0] == "sample-target":
        argv = argv + ["--frames", missing, "--model", missing]
    else:
        argv = argv + ["--config", missing]
    if argv[0] in ("train-disc", "run"):
        argv = argv + ["--source", missing, "--target", missing]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: argument %s: " % flag in err, err
    assert not (tmp_path / "out").exists()
