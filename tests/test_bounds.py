"""Every config bound is declared once, in its field's type, and both ways in reject it alike.

A Python constructor and the file walk (``load_config``, ``load_frames`` or
``DiscriminatorModel.load``) reject a value past a declared bound in the same
words; the walk adds the value's location.
"""

import dataclasses
import json
import math
import typing

import pytest

from bidal import (BankConfig, BudgetSchedule, DiscriminatorModel, PipelineConfig, Proportion,
                   SyntheticConfig, Threshold, TopK, TrainConfig, generate, load_config,
                   load_frames, save_frames)
from bidal.cli import main
from bidal.core import Checked, NonEmpty, _checked
from bidal.discriminator import _Checkpoint
from bidal.io import _Record, _Shapes

SCHEDULE = {"rounds": 2, "per_round": [3, 3], "trigger_epochs": [0, 2]}

# each config's place in a config file: its kind, the keys above it, and the key its one
# field is read at when that is not the field's name
IN_FILE = {
    SyntheticConfig: ("synthetic", [], None),
    PipelineConfig: ("pipeline", [], None),
    TrainConfig: ("pipeline", ["discriminator"], None),
    BankConfig: ("pipeline", ["bank_config"], None),
    BudgetSchedule: ("pipeline", ["schedule"], None),
    Proportion: ("pipeline", ["source_mode"], "value"),
    TopK: ("pipeline", ["source_mode"], "value"),
}

# the fields a constructor needs, as JSON values
REQUIRED = {
    PipelineConfig: {"schedule": SCHEDULE},
    BudgetSchedule: SCHEDULE,
    Proportion: {"p": 0.5},
    TopK: {"k": 3},
    _Shapes: {"feature_map": [16, 4, 4], "objectness_map": [2, 4, 4], "roi_features": [3, 16]},
    _Checkpoint: {"layer_dims": [16, 4, 1], "leak": 0.01},
}

RECORDS = [_Shapes, _Record, _Checkpoint]


def _violations(tp, valid):
    """``(bound, value, path, words)`` for each bound declared in type ``tp``: ``valid`` with
    only that bound broken, the path suffix where it breaks, and the words rejecting it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        base, bound = args
        yield from _violations(base, valid)
        if isinstance(bound, NonEmpty):
            yield "non-empty", [], "", "must be non-empty, got []"
            return
        for op, step in (("ge", -1), ("gt", 0), ("le", 1), ("lt", 0)):
            limit = getattr(bound, op)
            if limit is not None:
                bad = base(limit + step)
                yield op, bad, "", "must be %s, got %r" % (bound, bad)
    elif origin is typing.Union:  # Optional[X]
        yield from _violations(args[0], valid)
    elif origin is tuple:  # an item's bound, broken at the first item
        for bound, bad, path, words in _violations(args[0], None):
            yield bound, [bad] + list(valid[1:]), "[0]" + path, words
    elif origin is typing.Literal:
        yield "choices", "avg", "", "must be %s, got 'avg'" % " or ".join(map(repr, args))


def _valid(cls, field):
    """A JSON value of ``field`` of ``cls`` that passes every check."""
    if field.name in REQUIRED.get(cls, {}):
        return REQUIRED[cls][field.name]
    default = field.default
    return list(default) if isinstance(default, tuple) else default


def _bound_cases():
    for cls in Checked.__subclasses__() + RECORDS:
        hints = typing.get_type_hints(cls, include_extras=True)
        for field in dataclasses.fields(cls):
            for bound, bad, path, words in _violations(hints[field.name], _valid(cls, field)):
                yield pytest.param(cls, field.name, bad, path, words,
                                   id="%s-%s%s-%s" % (cls.__name__, field.name, path, bound))


def _python_value(cls, name, value):
    """A config's field value as a Python caller gives it: a nested config is built."""
    if cls is PipelineConfig and name == "schedule":
        return BudgetSchedule(**value)
    return value


def _constructor_error(cls, name, bad):
    """The error message of building ``cls`` in Python with ``bad`` at ``name``."""
    with pytest.raises(ValueError) as info:
        if cls is _Checkpoint:  # the model's constructor checks a checkpoint's bounds
            DiscriminatorModel(**dict(REQUIRED[cls], weights=[], biases=[], **{name: bad}))
        elif cls in RECORDS:  # no per-frame constructor check: the leaf check alone
            _checked(cls, name, bad)
        else:
            kwargs = {k: _python_value(cls, k, v) for k, v in REQUIRED.get(cls, {}).items()}
            cls(**dict(kwargs, **{name: bad}))
    return str(info.value)


def _file_error(tmp_path, cls, name, bad):
    """The error message, and the location the walk gives, of reading ``bad`` at ``name``."""
    if cls is _Checkpoint:
        path = tmp_path / "disc.json"
        DiscriminatorModel.initialize((16, 4, 1), seed=0).save(str(path))
        payload = dict(json.loads(path.read_text()), **{name: bad})
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            DiscriminatorModel.load(str(path))
        return str(info.value), "checkpoint %s" % path
    if cls in (_Shapes, _Record):
        path = tmp_path / "frames.ndjson"
        src, _, _ = generate(SyntheticConfig(n_source=1, n_target=1, n_eval=1, seed=0))
        save_frames(src, str(path))
        record = json.loads(path.read_text())
        (record["shapes"] if cls is _Shapes else record)[name] = bad
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError) as info:
            load_frames(str(path))
        return str(info.value), "line 1: frame record" + (" shapes" if cls is _Shapes else "")
    kind, above, key = IN_FILE[cls]
    payload = {"kind": kind}
    if kind == "pipeline":
        payload["schedule"] = dict(SCHEDULE)
    section = payload
    for k in above:
        section = section.setdefault(k, {})
    if key is None:
        section.update(REQUIRED.get(cls, {}), **{name: bad})
    else:
        section.update(type=cls.__name__.lower(), value=bad)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        load_config(str(path))
    return str(info.value), " ".join(["%s config" % kind] + above)


@pytest.mark.parametrize("cls, name, bad, path, words", list(_bound_cases()))
def test_every_declared_bound_is_enforced_alike(tmp_path, cls, name, bad, path, words):
    assert _constructor_error(cls, name, bad) == "%s%s %s" % (name, path, words)
    message, location = _file_error(tmp_path, cls, name, bad)
    key = IN_FILE.get(cls, (None, None, None))[2] or name
    assert message == "%s %s%s %s" % (location, key, path, words)


def test_every_config_declares_a_bound():
    """A bound left in hand-written code would leave its config without a case above."""
    declared = {case.values[0] for case in _bound_cases()}
    assert set(Checked.__subclasses__()) - declared == {Threshold}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Threshold(math.nan), "logit must be a finite number, got nan"),
        (lambda: TrainConfig(epochs=1.5), "epochs must be int, got 1.5"),
        (lambda: TrainConfig(batch_size=True), "batch_size must be int, got True"),
        (lambda: PipelineConfig(BudgetSchedule(0, (), ()), hidden_dims=(0,)),
         "hidden_dims[0] must be at least 1, got 0"),
        (lambda: PipelineConfig(BudgetSchedule(0, (), ()), seed=-1),
         "seed must be at least 0, got -1"),
        (lambda: SyntheticConfig(n_source=2.5), "n_source must be int, got 2.5"),
        (lambda: TopK(2.5), "k must be int, got 2.5"),
        (lambda: BankConfig(update_prototype_on_join=1),
         "update_prototype_on_join must be bool, got 1"),
    ],
    ids=["threshold-nan", "epochs-float", "batch-size-bool", "hidden-dims-zero", "seed-negative",
         "n-source-float", "topk-float", "update-on-join-int"],
)
def test_constructor_rejects_what_a_file_would(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind, values, message",
    [
        ("pipeline", {"seed": -1}, "pipeline config seed must be at least 0, got -1"),
        ("pipeline", {"discriminator": {"seed": -1}},
         "pipeline config discriminator seed must be at least 0, got -1"),
        ("synthetic", {"seed": -1}, "synthetic config seed must be at least 0, got -1"),
        ("pipeline", {"hidden_dims": [0]},
         "pipeline config hidden_dims[0] must be at least 1, got 0"),
        ("pipeline", {"hidden_dims": []}, "pipeline config hidden_dims must be non-empty, got []"),
    ],
    ids=["seed", "discriminator-seed", "synthetic-seed", "hidden-dims-zero", "hidden-dims-empty"],
)
def test_config_file_past_a_bound_exits_2_before_any_work(tmp_path, capsys, kind, values, message):
    """``run`` reads its config before its frame files, so no stage runs on a bad config."""
    payload = dict({"kind": kind}, **values)
    if kind == "pipeline":
        payload["schedule"] = "kitti-1pct"
        missing = str(tmp_path / "none.ndjson")
        argv = ["run", "--source", missing, "--target", missing]
    else:
        argv = ["gen"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: %s\n" % message
    assert not out.exists()
