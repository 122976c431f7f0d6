import dataclasses
import json
import typing

import numpy as np
import pytest

from bidal import BankConfig, BudgetSchedule, PipelineConfig, SyntheticConfig, TrainConfig
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
    assert (out / "benchmark.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "plot_random.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "bidomain" in summary["summary"]["mean_accuracy"]


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
        (lambda p: p.pop("leak"), "lacks key 'leak'"),
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
    assert "line 2: hidden_label must be a non-negative integer or null, got %s" % (
        json.dumps(label)
    ) in err, err


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
    assert "line 3: id must be a string, got %s" % json.dumps(bad_id) in err, err


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: [p], "top level must be a JSON object, got list"),
        (lambda p: dict(p, layer_dims=[16, "4", 1]), "layer_dims must hold integers, got '4'"),
        (lambda p: dict(p, weights=5), "weights must be a list, got int"),
        (lambda p: dict(p, biases=[[0.0] * 4, p["biases"][1]]),
         "biases[0] must be a base64 string, got list"),
        (lambda p: dict(p, leak="0.01"), "leak must be a number, got str"),
        (lambda p: dict(p, rng_seed=1.5), "rng_seed must be an integer, got float"),
    ],
    ids=["top-level-list", "layer-dims-str", "weights-int", "blob-list", "leak-str",
         "rng-seed-float"],
)
def test_wrong_typed_checkpoint_exits_2(workspace, capsys, edit, message):
    from bidal import DiscriminatorModel

    tmp_path, data = workspace
    model = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(model))
    model.write_text(json.dumps(edit(json.loads(model.read_text()))))
    rc = main(["sample-source", "--frames", str(data / "source.ndjson"), "--model", str(model),
               "--out", str(tmp_path / "ids.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "checkpoint %s: %s" % (model, message) in err, err
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
