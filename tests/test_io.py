import ast
import base64
import dataclasses
import json

import numpy as np
import pytest

from bidal import (
    BUDGET_PRESETS,
    BankConfig,
    BudgetSchedule,
    ConfigError,
    DiscriminatorModel,
    Domain,
    FrameFormatError,
    FrameRecord,
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
from bidal.core import decode_array


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


def make_frame(i, k=1, fm_shape=(16, 4, 4), d=16, **arrays):
    """Frame ``f{i}`` with ``k`` ROIs of width ``d``; ``arrays`` replaces any of its arrays."""
    rng = np.random.default_rng(i)
    _, h, w = fm_shape
    fields = dict(feature_map=rng.normal(size=fm_shape).astype("<f4"),
                  objectness_map=rng.uniform(size=(2, h, w)).astype("<f4"),
                  roi_features=rng.normal(size=(k, d)).astype("<f4"),
                  roi_confidences=rng.uniform(size=k).astype("<f4"))
    fields.update(arrays)
    return FrameRecord("f%d" % i, Domain.TARGET, hidden_label=i % 3, **fields)


def _with_nan(frame, key):
    values = getattr(frame, key).copy()
    values.flat[0] = np.nan
    return dataclasses.replace(frame, **{key: values})


def _write_lines(path, frames, edits):
    """Save ``frames`` and apply ``edits`` ({line: edit of its JSON record}) to the file."""
    save_frames(frames, str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for line_no, edit in edits.items():
        edit(records[line_no - 1])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _out_of_range(frame):
    values = frame.objectness_map.copy()
    values.flat[0] = 1.5
    return dataclasses.replace(frame, objectness_map=values)


def _shorten(key):
    def edit(record):
        raw = base64.b64decode(record[key])
        record[key] = base64.b64encode(raw[:-4]).decode()

    return edit


# (frames, {line: edit}, message): the first faulty line names the error, whatever
# the fault; every message is what the line-by-line reader gave
PRECEDENCE = {
    "nan-before-unknown-key": (
        [make_frame(1), _with_nan(make_frame(2), "feature_map"), make_frame(3), make_frame(4),
         make_frame(5)],
        {4: lambda r: r.update(foo=1)},
        "line 2: invalid frame: feature_map contains non-finite values"),
    "unknown-key-before-nan": (
        [make_frame(1), make_frame(2), make_frame(3), _with_nan(make_frame(4), "feature_map"),
         make_frame(5)],
        {2: lambda r: r.update(foo=1)},
        "line 2: unknown frame record keys: foo"),
    "value-fault-and-repeat-on-one-line": (
        [make_frame(1), make_frame(2), _out_of_range(make_frame(3)), make_frame(4)],
        {3: lambda r: r.update(id="f1")},
        "line 3: invalid frame: objectness_map out of [0,1]"),
    "repeat-before-value-fault": (
        [make_frame(1), make_frame(2), make_frame(3), _out_of_range(make_frame(4))],
        {3: lambda r: r.update(id="f1")},
        "line 3: id 'f1' repeats line 1"),
    "short-payload-after-objectness": (
        [make_frame(1), _out_of_range(make_frame(2)), make_frame(3)],
        {3: _shorten("roi_features")},
        "line 2: invalid frame: objectness_map out of [0,1]"),
    # lines 1, 4 and 5 hold one ROI, lines 2 and 3 two: the group first seen second
    # faults first
    "second-group-earlier-line": (
        [make_frame(1), make_frame(2, k=2), _with_nan(make_frame(3, k=2), "roi_features"),
         _with_nan(make_frame(4), "feature_map"), make_frame(5)],
        {},
        "line 3: invalid frame: roi_features contains non-finite values"),
    "empty-id-in-second-group": (
        [make_frame(1), make_frame(2, k=2), make_frame(3), _out_of_range(make_frame(4))],
        {2: lambda r: r.update(id="")},
        "line 2: invalid frame: frame id is empty"),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_first_faulty_line_names_the_error(tmp_path, case):
    frames, edits, message = PRECEDENCE[case]
    path = tmp_path / "frames.ndjson"
    _write_lines(path, frames, edits)
    with pytest.raises(FrameFormatError) as info:
        load_frames(str(path))
    assert str(info.value) == message


def test_load_equals_decode_array_field_by_field(tmp_path):
    """Every array of every frame has the bytes, dtype and shape that ``decode_array`` gives
    for its payload, is writable, and shares no memory with another frame's arrays."""
    special = np.array([-0.0, 1e-45, -1e-40, 1.1754942e-38, 0.0, 1.0], "<f4")
    frames = [make_frame(k, k=k) for k in range(7)]
    frames += [make_frame(7, k=0, roi_features=np.zeros((0, 0), "<f4")),
               make_frame(8, k=3, fm_shape=(8, 2, 3)), make_frame(9, k=0, fm_shape=(8, 2, 3)),
               make_frame(10, k=6, roi_features=np.resize(special, (6, 16)),
                          roi_confidences=special.copy() * (special >= 0),
                          feature_map=np.resize(special, (16, 4, 4)),
                          objectness_map=np.resize(np.array([0.0, 1.0], "<f4"), (2, 4, 4))),
               make_frame(11, k=2)]
    path = tmp_path / "frames.ndjson"
    save_frames(frames, str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    loaded = load_frames(str(path))
    assert [f.id for f in loaded] == [r["id"] for r in records]
    keys = ("feature_map", "objectness_map", "roi_features", "roi_confidences")
    for frame, record in zip(loaded, records):
        rois = record["shapes"]["roi_features"]
        shapes = dict(record["shapes"], roi_confidences=rois[:1])
        for key in keys:
            got = getattr(frame, key)
            want = decode_array(record[key], shapes[key], "<f4", key)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert got.flags.writeable
    arrays = [(i, getattr(f, key)) for i, f in enumerate(loaded) for key in keys]
    for i, a in arrays:
        assert not any(np.shares_memory(a, b) for j, b in arrays if j != i)


@pytest.mark.parametrize(
    "key, edit",
    [("roi_confidences", lambda b: b[:16] + "*" + b[16:]),
     ("roi_confidences", lambda b: b[:16] + "!!!!" + b[16:]),
     ("roi_confidences", lambda b: b[:16] + "\n" + b[16:]),
     ("roi_confidences", lambda b: b + "===="),
     ("feature_map", lambda b: b + "====")],
    ids=["star", "bangs", "line-break", "padding", "padded-payload"],
)
def test_junk_in_a_frame_payload_is_rejected(tmp_path, key, edit):
    """Six floats are a 32-character payload; a2b_base64 alone would skip the junk."""
    path = tmp_path / "frames.ndjson"
    _write_lines(path, [make_frame(1, k=6)], {1: lambda r: r.update({key: edit(r[key])})})
    with pytest.raises(FrameFormatError) as info:
        load_frames(str(path))
    assert str(info.value).startswith("line 1: %s is not valid base64 (" % key), info.value


@pytest.mark.parametrize("junk", ["*", "\n", "===="], ids=["star", "line-break", "padding"])
def test_junk_in_a_checkpoint_payload_is_rejected(tmp_path, junk):
    path = tmp_path / "m.json"
    DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(path))
    payload = json.loads(path.read_text())
    blob = payload["biases"][0]
    payload["biases"][0] = blob[:8] + junk + blob[8:]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        DiscriminatorModel.load(str(path))
    assert str(info.value).startswith("checkpoint %s: biases[0] is not valid base64 (" % path)


def test_non_utf8_byte_names_its_line(tmp_path):
    path = tmp_path / "frames.ndjson"
    frames = [make_frame(i) for i in range(5)]
    frames[1] = dataclasses.replace(frames[1], id="f\u00e9")  # valid UTF-8 passes
    save_frames(frames, str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    assert load_frames(str(path))[1].id == "f\u00e9"
    lines[2] = lines[2].replace(b'"f2"', b'"f2\xff"')
    path.write_bytes(b"".join(lines))
    with pytest.raises(FrameFormatError) as info:
        load_frames(str(path))
    assert str(info.value).startswith("line 3: not UTF-8 ("), info.value


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
