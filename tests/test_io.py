import ast
import dataclasses
import json

import numpy as np
import pytest

from bidal import (
    BUDGET_PRESETS,
    BankConfig,
    BudgetSchedule,
    ConfigError,
    FrameFormatError,
    PipelineConfig,
    Proportion,
    SyntheticConfig,
    Threshold,
    TopK,
    TrainConfig,
    generate,
    load_config,
    load_frames,
    parse_schedule,
    parse_source_mode,
    save_frames,
)
from bidal import io as frameio


def sample_frames(n=5, seed=0):
    cfg = SyntheticConfig(n_source=n, n_target=n, n_eval=1, seed=seed)
    src, tgt, _ = generate(cfg)
    return src + tgt


class TestFrameFiles:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        frames = sample_frames()
        frames[0] = dataclasses.replace(
            frames[0], roi_features=np.zeros((0, 16), "<f4"), roi_confidences=np.zeros(0, "<f4")
        )
        path = str(tmp_path / "frames.ndjson")
        save_frames(frames, path)
        back = load_frames(path)
        assert len(back) == len(frames)
        for a, b in zip(frames, back):
            assert a.id == b.id
            assert a.domain == b.domain
            assert a.hidden_label == b.hidden_label
            assert np.array_equal(a.feature_map, b.feature_map)
            assert np.array_equal(a.objectness_map, b.objectness_map)
            assert np.array_equal(a.roi_features, b.roi_features)
            assert np.array_equal(a.roi_confidences, b.roi_confidences)

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        frames = sample_frames(seed=1)
        p1, p2 = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        save_frames(frames, p1)
        save_frames(load_frames(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_invalid_json_reports_line_number(self, tmp_path):
        frames = sample_frames(n=2, seed=2)
        path = str(tmp_path / "frames.ndjson")
        save_frames(frames, path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(FrameFormatError, match="line 5"):
            load_frames(path)

    def test_truncated_payload_reports_line_number(self, tmp_path):
        frames = sample_frames(n=1, seed=3)
        path = str(tmp_path / "frames.ndjson")
        save_frames(frames, path)
        record = json.loads(open(path).read().splitlines()[0])
        record["feature_map"] = record["feature_map"][: len(record["feature_map"]) // 2]
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(FrameFormatError, match="line 1"):
            load_frames(path)

    def test_missing_key_is_format_error(self, tmp_path):
        frames = sample_frames(n=1, seed=4)
        path = str(tmp_path / "frames.ndjson")
        save_frames(frames, path)
        record = json.loads(open(path).read().splitlines()[0])
        del record["domain"]
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(FrameFormatError):
            load_frames(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("shapes"), "line 1: frame record requires shapes"),
            (lambda r: r["shapes"].pop("roi_features"),
             "line 1: frame record shapes requires roi_features"),
            (lambda r: r.update(foo=1), "line 1: unknown frame record keys: foo"),
            (lambda r: r["shapes"].update(bar=[1]),
             "line 1: unknown frame record shapes keys: bar"),
            (lambda r: r.update(domain="lidar"),
             "line 1: frame record domain must be 'source' or 'target', got 'lidar'"),
            (lambda r: r.update(feature_map="abc"), "line 1: feature_map is not valid base64 ("),
        ],
        ids=["missing", "missing-shape", "unknown", "unknown-shape", "bad-domain", "bad-base64"],
    )
    def test_record_errors_name_the_key(self, tmp_path, edit, message):
        path = str(tmp_path / "frames.ndjson")
        save_frames(sample_frames(n=1, seed=4), path)
        record = json.loads(open(path).read().splitlines()[0])
        edit(record)
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(FrameFormatError) as info:
            load_frames(path)
        assert str(info.value).startswith(message), info.value

    def test_repeated_id_names_both_lines(self, tmp_path):
        path = tmp_path / "frames.ndjson"
        save_frames(sample_frames(n=2, seed=4), str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        first = json.loads(lines[1])["id"]
        with pytest.raises(FrameFormatError) as info:
            load_frames(str(path))
        assert str(info.value) == "line %d: id %r repeats line 2" % (len(lines) + 1, first)

    def test_nan_objectness_is_format_error(self, tmp_path):
        frames = sample_frames(n=1, seed=6)
        objectness = frames[1].objectness_map.copy()
        objectness.flat[0] = np.nan
        frames[1] = dataclasses.replace(frames[1], objectness_map=objectness)
        path = str(tmp_path / "frames.ndjson")
        save_frames(frames, path)
        with pytest.raises(FrameFormatError, match="line 2: invalid frame: objectness"):
            load_frames(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        frames = sample_frames(n=2, seed=5)
        path = str(tmp_path / "frames.ndjson")
        save_frames(frames, path)
        text = open(path).read().replace("\n", "\n\n")
        with open(path, "w") as fh:
            fh.write(text)
        assert len(load_frames(path)) == 4


class TestSourceModeParsing:
    def test_string_forms(self):
        assert parse_source_mode("threshold:0") == Threshold(0.0)
        assert parse_source_mode("threshold") == Threshold(0.0)
        assert parse_source_mode("proportion:0.3") == Proportion(0.3)
        assert parse_source_mode("topk:5") == TopK(5)

    def test_dict_forms(self):
        assert parse_source_mode({"type": "topk", "value": 7}) == TopK(7)
        assert parse_source_mode({"type": "threshold"}) == Threshold(0.0)

    def test_rejects_unknown_type_and_keys(self):
        with pytest.raises(ConfigError):
            parse_source_mode({"type": "best"})
        with pytest.raises(ConfigError):
            parse_source_mode({"type": "topk", "value": 3, "extra": 1})

    def test_float_values_are_stored_as_floats(self):
        # the report echoes repr(source_mode), so "threshold:0" must stay Threshold(logit=0.0)
        assert repr(parse_source_mode("threshold:0")) == "Threshold(logit=0.0)"
        assert repr(parse_source_mode({"type": "proportion", "value": 1})) == "Proportion(p=1.0)"

    @pytest.mark.parametrize(
        "mode, message",
        [
            ({"type": "topk", "value": 2.5}, "source_mode value must be int, got 2.5"),
            ("topk:2.5", "source_mode value must be int, got 2.5"),
            ({"type": "proportion", "value": "0.3"}, "source_mode value must be float"),
            ("proportion", "source_mode value must be float, got None"),
            (5, "source_mode must be a string or a JSON object, got 5"),
            ("threshold:NaN", "source_mode value must be a finite number, got nan"),
            ({"type": "proportion", "value": float("inf")},
             "source_mode value must be a finite number, got inf"),
        ],
        ids=["topk-float", "topk-text-float", "proportion-string", "proportion-missing", "int",
             "threshold-text-nan", "proportion-inf"],
    )
    def test_source_mode_value_is_type_checked(self, mode, message):
        with pytest.raises(ConfigError, match=message):
            parse_source_mode(mode)


class TestScheduleParsing:
    def test_presets_exist_and_parse(self):
        for name, preset in BUDGET_PRESETS.items():
            assert parse_schedule(name) == preset

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_schedule("kitti-50pct")

    def test_explicit_schedule(self):
        s = parse_schedule(
            {"rounds": 2, "per_round": [3, 4], "trigger_epochs": [0, 5]}
        )
        assert s.total_budget == 7

    def test_bad_schedule_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_schedule({"rounds": 2, "per_round": [3], "trigger_epochs": [0, 5]})
        with pytest.raises(ConfigError):
            parse_schedule({"rounds": 1, "per_round": [1], "epochs": [0]})


class TestConfigFiles:
    def write(self, tmp_path, payload):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def test_pipeline_config_roundtrip(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "kind": "pipeline",
                "schedule": "kitti-1pct",
                "source_mode": "topk:20",
                "discriminator": {"epochs": 50, "seed": 3},
                "seed": 3,
            },
        )
        cfg = load_config(path)
        assert isinstance(cfg, PipelineConfig)
        assert cfg.schedule == BUDGET_PRESETS["kitti-1pct"]
        assert cfg.source_mode == TopK(20)
        assert cfg.discriminator.epochs == 50

    def test_synthetic_config_roundtrip(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "kind": "synthetic",
                "n_source": 10,
                "n_target": 20,
                "n_eval": 5,
                "domain_shift": 2.5,
                "roi_noise": 0.25,
                "seed": 9,
            },
        )
        cfg = load_config(path)
        assert isinstance(cfg, SyntheticConfig)
        assert cfg.n_target == 20
        assert cfg.roi_noise == 0.25

    def test_unknown_keys_rejected(self, tmp_path):
        path = self.write(
            tmp_path, {"kind": "synthetic", "n_source": 10, "n_tgt": 20}
        )
        with pytest.raises(ConfigError, match="n_tgt"):
            load_config(path)

    def test_missing_kind_rejected(self, tmp_path):
        path = self.write(tmp_path, {"schedule": "kitti-1pct"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_pipeline_requires_schedule(self, tmp_path):
        path = self.write(tmp_path, {"kind": "pipeline"})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"kind": "synthetic", "seed": 1.5}, "seed"),
            ({"discriminator": {"seed": 1.5}}, "seed"),
            ({"seed": True}, "seed"),
            ({"bank_config": {"update_prototype_on_join": "false"}}, "update_prototype_on_join"),
            ({"bank_config": {"update_prototype_on_join": 1}}, "update_prototype_on_join"),
            ({"discriminator": [1]}, "discriminator"),
            # JSON has no NaN or Infinity, though Python's json module reads and writes both
            ({"kind": "synthetic", "domain_shift": float("nan")},
             "domain_shift must be a finite number, got nan"),
            ({"discriminator": {"learning_rate": float("inf")}},
             "learning_rate must be a finite number, got inf"),
        ],
    )
    def test_seeds_and_flags_are_not_coerced(self, tmp_path, section, key):
        payload = dict({"kind": "pipeline", "schedule": "kitti-1pct"}, **section)
        if payload["kind"] == "synthetic":
            del payload["schedule"]
        with pytest.raises(ConfigError, match=key):
            load_config(self.write(tmp_path, payload))

    def test_every_field_set(self, tmp_path):
        pipeline = {
            "schedule": {"rounds": 2, "per_round": [4, 6], "trigger_epochs": [1, 3]},
            "source_mode": {"type": "proportion", "value": 1},
            "source_finetune_epochs": 7,
            "discriminator": {
                "learning_rate": 0.05, "epochs": 40, "batch_size": 16, "l2": 0, "seed": 2,
            },
            "seed": 5,
            "round_finetune_epochs": 3,
            "hidden_dims": [12, 6],
            "bank_config": {"update_prototype_on_join": True, "pairwise_compare": "max"},
        }
        synthetic = {
            "n_source": 11, "n_target": 12, "n_eval": 13, "clusters_per_domain": 2,
            "feature_dims": [8, 3, 3, 2, 5], "domain_shift": 1, "label_noise": 0.1,
            "cluster_skew": 0.5, "roi_noise": 0.25, "seed": 4,
        }
        got = load_config(self.write(tmp_path, dict(pipeline, kind="pipeline")))
        assert got == PipelineConfig(
            schedule=BudgetSchedule(2, (4, 6), (1, 3)),
            source_mode=Proportion(1.0),
            source_finetune_epochs=7,
            discriminator=TrainConfig(learning_rate=0.05, epochs=40, batch_size=16, l2=0, seed=2),
            seed=5,
            round_finetune_epochs=3,
            hidden_dims=(12, 6),
            bank_config=BankConfig(update_prototype_on_join=True, pairwise_compare="max"),
        )
        got = load_config(self.write(tmp_path, dict(synthetic, kind="synthetic")))
        assert got == SyntheticConfig(**dict(synthetic, feature_dims=(8, 3, 3, 2, 5)))

    def test_invalid_json_rejected(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            fh.write("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


def test_io_does_not_import_simulator():
    """The I/O layer must not depend on the synthetic benchmark."""
    with open(frameio.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + ["%s.%s" % (module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            assert "simulator" not in name.split("."), "line %d imports %s" % (node.lineno, name)
