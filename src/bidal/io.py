"""Persistence: frame files, configs, reports.

Frames are stored as newline-delimited JSON with base64 little-endian
float32 tensor payloads, so load(save(x)) round-trips bit-exactly for
float32 data. Config parsing is strict: unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict, List, Sequence, Union

import numpy as np

from .core import BudgetSchedule, Domain, FrameRecord, decode_array, encode_array, validate_frame
from .discriminator import TrainConfig
from .pipeline import PipelineConfig
from .simulator import SyntheticConfig
from .source_sampler import Proportion, Threshold, TopK
from .target_sampler import BankConfig


class FrameFormatError(ValueError):
    """Malformed frame file; message carries the offending line number."""


class ConfigError(ValueError):
    pass


# per-round budgets and trigger epochs for the standard desk-scale presets
BUDGET_PRESETS = {
    "kitti-1pct": BudgetSchedule(2, (18, 18), (0, 5)),
    "kitti-5pct": BudgetSchedule(5, (37,) * 5, (0, 2, 4, 6, 8)),
    "nuscenes-1pct": BudgetSchedule(2, (140, 140), (0, 5)),
    "nuscenes-5pct": BudgetSchedule(5, (280,) * 5, (0, 2, 4, 6, 8)),
    "lyft-1pct": BudgetSchedule(2, (94, 94), (0, 5)),
    "lyft-5pct": BudgetSchedule(5, (188,) * 5, (0, 2, 4, 6, 8)),
}


def frame_to_record(frame: FrameRecord) -> Dict[str, Any]:
    rois = np.asarray(frame.roi_features)
    record = {
        "id": frame.id,
        "domain": frame.domain.value,
        "shapes": {
            "feature_map": list(np.asarray(frame.feature_map).shape),
            "objectness_map": list(np.asarray(frame.objectness_map).shape),
            "roi_features": list(rois.shape) if rois.ndim == 2 else [0, 0],
        },
        "feature_map": encode_array(frame.feature_map, "<f4"),
        "objectness_map": encode_array(frame.objectness_map, "<f4"),
        "roi_features": encode_array(rois, "<f4") if rois.size else "",
        "roi_confidences": encode_array(frame.roi_confidences, "<f4")
        if np.asarray(frame.roi_confidences).size
        else "",
    }
    if frame.hidden_label is not None:
        record["hidden_label"] = frame.hidden_label
    return record


def record_to_frame(record: Dict[str, Any], line: int) -> FrameRecord:
    try:
        shapes = record["shapes"]
        fm = decode_array(record["feature_map"], shapes["feature_map"], "<f4", "feature_map")
        om = decode_array(
            record["objectness_map"], shapes["objectness_map"], "<f4", "objectness_map"
        )
        roi_shape = shapes["roi_features"]
        k = roi_shape[0]
        rois = (
            decode_array(record["roi_features"], roi_shape, "<f4", "roi_features")
            if k
            else np.zeros((0, roi_shape[1] if len(roi_shape) > 1 else 0), dtype="<f4")
        )
        confs = (
            decode_array(record["roi_confidences"], (k,), "<f4", "roi_confidences")
            if k
            else np.zeros(0, dtype="<f4")
        )
        frame = FrameRecord(
            id=record["id"],
            domain=Domain(record["domain"]),
            feature_map=fm,
            objectness_map=om,
            roi_features=rois,
            roi_confidences=confs,
            hidden_label=record.get("hidden_label"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise FrameFormatError("line %d: malformed record (%s)" % (line, exc))
    errors = validate_frame(frame)
    if errors:
        raise FrameFormatError("line %d: invalid frame: %s" % (line, "; ".join(errors)))
    return frame


def save_frames(frames: Sequence[FrameRecord], path: str) -> None:
    with open(path, "w") as fh:
        for frame in frames:
            fh.write(
                json.dumps(frame_to_record(frame), sort_keys=True, separators=(",", ":"))
            )
            fh.write("\n")


def load_frames(path: str) -> List[FrameRecord]:
    frames = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FrameFormatError("line %d: invalid JSON (%s)" % (line_no, exc))
            frames.append(record_to_frame(record, line_no))
    return frames


def _check_keys(d: Dict[str, Any], allowed, context: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            "unknown %s keys: %s" % (context, ", ".join(sorted(unknown)))
        )


def _check_fields(d: Dict[str, Any], cls, context: str) -> None:
    """Reject keys that are not fields of ``cls``, and seeds or flags of another type.

    Seeds feed numpy's SeedSequence and flags are tested for truth, so
    neither is coerced: the string "false" would read as true.
    """
    if not isinstance(d, dict):
        raise ConfigError("%s must be a JSON object, got %r" % (context, d))
    defaults = {f.name: f.default for f in fields(cls)}
    _check_keys(d, defaults, context)
    for key, value in d.items():
        if isinstance(defaults[key], bool) and not isinstance(value, bool):
            raise ConfigError("%s %s must be true or false, got %r" % (context, key, value))
        if key == "seed" and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError("%s seed must be an integer, got %r" % (context, value))


def parse_source_mode(spec: Union[str, Dict[str, Any]]):
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        spec = {"type": kind}
        if arg:
            spec["value"] = float(arg) if kind != "topk" else int(arg)
    _check_keys(spec, {"type", "value"}, "source_mode")
    kind = spec.get("type")
    try:
        if kind == "threshold":
            return Threshold(float(spec.get("value", 0.0)))
        if kind == "proportion":
            return Proportion(float(spec["value"]))
        if kind == "topk":
            return TopK(int(spec["value"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError("bad source_mode: %s" % exc)
    raise ConfigError("source_mode type must be threshold|proportion|topk")


def parse_schedule(d: Dict[str, Any]) -> BudgetSchedule:
    if isinstance(d, str):
        if d not in BUDGET_PRESETS:
            raise ConfigError(
                "unknown schedule preset %r (known: %s)"
                % (d, ", ".join(sorted(BUDGET_PRESETS)))
            )
        return BUDGET_PRESETS[d]
    _check_fields(d, BudgetSchedule, "schedule")
    try:
        return BudgetSchedule(
            int(d["rounds"]), tuple(d["per_round"]), tuple(d["trigger_epochs"])
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError("bad schedule: %s" % exc)


def parse_train_config(d: Dict[str, Any]) -> TrainConfig:
    _check_fields(d, TrainConfig, "discriminator")
    try:
        return TrainConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad discriminator config: %s" % exc)


def parse_pipeline_config(d: Dict[str, Any]) -> PipelineConfig:
    _check_fields(d, PipelineConfig, "pipeline config")
    if "schedule" not in d:
        raise ConfigError("pipeline config requires a schedule")
    bank = d.get("bank_config", {})
    _check_fields(bank, BankConfig, "bank_config")
    try:
        return PipelineConfig(
            schedule=parse_schedule(d["schedule"]),
            source_mode=parse_source_mode(d.get("source_mode", "threshold:0")),
            source_finetune_epochs=int(d.get("source_finetune_epochs", 15)),
            discriminator=parse_train_config(d.get("discriminator", {})),
            seed=int(d.get("seed", 0)),
            rescore_each_round=bool(d.get("rescore_each_round", True)),
            round_finetune_epochs=int(d.get("round_finetune_epochs", 1)),
            hidden_dims=tuple(d.get("hidden_dims", (64, 32))),
            bank_config=BankConfig(**bank),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad pipeline config: %s" % exc)


def parse_synthetic_config(d: Dict[str, Any]) -> SyntheticConfig:
    _check_fields(d, SyntheticConfig, "synthetic config")
    if "feature_dims" in d:
        d = dict(d, feature_dims=tuple(d["feature_dims"]))
    try:
        return SyntheticConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad synthetic config: %s" % exc)


def load_config(path: str) -> Union[PipelineConfig, SyntheticConfig]:
    """Load a JSON config; the top-level "kind" key selects the schema."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON in %s: %s" % (path, exc))
    kind = d.pop("kind", None)
    if kind == "pipeline":
        return parse_pipeline_config(d)
    if kind == "synthetic":
        return parse_synthetic_config(d)
    raise ConfigError('config requires "kind": "pipeline" or "synthetic"')
