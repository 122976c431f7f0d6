"""In-memory tracer that wraps bidal's public functions from outside src/.

``install()`` replaces every attribute of every loaded ``bidal`` module that
refers to a traced function with a timing wrapper, so callers that bound the
name at import time (``from .discriminator import train`` in
``bidal.pipeline``) run the wrapper too. ``uninstall()`` puts every original
object back.

Spans (name, start, end, parent, op) are kept in memory and written out once
at the end of a run. Hot functions, called hundreds of thousands of times per
op, get no span: only their call count and summed time are kept. Every
wrapped call, hot or not, charges its duration to the caller's child time, so
a span's self time is its duration minus the time of the traced calls inside
it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute or Class.method, hot)
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("scoring", "scene_vector", True),
    ("discriminator", "train", False),
    ("discriminator", "domainness", True),
    ("discriminator", "DiscriminatorModel.save", False),
    ("discriminator", "DiscriminatorModel.load", False),
    ("source_sampler", "score_source", False),
    ("source_sampler", "select_source", False),
    ("target_sampler", "reweight", True),
    ("target_sampler", "cosine", True),
    ("target_sampler", "merge_banks", True),
    ("target_sampler", "build_banks", False),
    ("target_sampler", "select_targets", False),
    ("pipeline", "run_bidomain", False),
    ("simulator", "generate", False),
    ("simulator", "run_strategy", False),
    ("simulator", "sample_committee", False),
    ("simulator", "ProxyDetector.finetune", False),
    ("io", "save_frames", False),
    ("io", "load_frames", False),
    ("core", "validate_frame", True),
    ("cli", "main", False),
)

CLI_COMMANDS = ("gen", "train-disc", "sample-source", "sample-target", "run", "report")

# (metric, unit), in the order they are printed; values are per traced op,
# except unique_ratio (distinct inputs / calls, 0 when there were no calls)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("discriminator.train.calls", "count"),
    ("discriminator.train.busy_s", "s"),
    ("discriminator.train.self_s", "s"),
    ("discriminator.train.sample_epochs", "count"),
    ("discriminator.train.unique_ratio", "ratio"),
    ("discriminator.domainness.calls", "count"),
    ("discriminator.domainness.busy_s", "s"),
    ("scoring.scene_vector.calls", "count"),
    ("scoring.scene_vector.busy_s", "s"),
    ("scoring.scene_vector.unique_ratio", "ratio"),
    ("target_sampler.build_banks.calls", "count"),
    ("target_sampler.build_banks.busy_s", "s"),
    ("target_sampler.build_banks.self_s", "s"),
    ("target_sampler.build_banks.frames", "count"),
    ("target_sampler.cosine.calls", "count"),
    ("target_sampler.merge_banks.calls", "count"),
    ("target_sampler.reweight.busy_s", "s"),
    ("target_sampler.select_targets.busy_s", "s"),
    ("source_sampler.score_source.busy_s", "s"),
    ("source_sampler.select_source.busy_s", "s"),
    ("pipeline.run_bidomain.calls", "count"),
    ("pipeline.run_bidomain.busy_s", "s"),
    ("pipeline.run_bidomain.self_s", "s"),
) + tuple(
    ("simulator.run_strategy.%s.busy_s" % s, "s")
    for s in ("random", "entropy", "committee", "bidomain")
) + (
    ("simulator.ProxyDetector.finetune.calls", "count"),
    ("simulator.ProxyDetector.finetune.busy_s", "s"),
    ("simulator.sample_committee.busy_s", "s"),
    ("simulator.generate.busy_s", "s"),
    ("io.save_frames.busy_s", "s"),
    ("io.save_frames.bytes", "bytes"),
    ("io.load_frames.busy_s", "s"),
    ("io.load_frames.bytes", "bytes"),
    ("io.load_frames.frames", "count"),
    ("core.validate_frame.calls", "count"),
    ("core.validate_frame.busy_s", "s"),
    ("discriminator.DiscriminatorModel.save.busy_s", "s"),
    ("discriminator.DiscriminatorModel.load.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple(("cli.main.%s.busy_s" % c, "s") for c in CLI_COMMANDS) + (
    ("trace.overhead_s", "s"),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# span names that split one function by an argument
_SPLIT: Dict[str, Callable] = {
    "simulator.run_strategy": lambda a, k: _arg(a, k, 0, "strategy"),
    "cli.main": lambda a, k: (list((a[0] if a else k.get("argv")) or sys.argv[1:]) or ["?"])[0],
}


def _train_key(a, k) -> str:
    model, source_vs, target_vs, cfg = (
        _arg(a, k, i, n) for i, n in enumerate(("model", "source_vs", "target_vs", "cfg"))
    )
    h = hashlib.sha256(repr(cfg).encode())
    for v in list(source_vs) + [None] + list(target_vs):
        h.update(b"|" if v is None else np.asarray(v, dtype=np.float64).tobytes())
    for arr in model.weights + model.biases:
        h.update(arr.tobytes())
    return h.hexdigest()


# key of a call's input, for unique_ratio
_KEY: Dict[str, Callable] = {
    "scoring.scene_vector": lambda a, k: _arg(a, k, 0, "frame").id,
    "discriminator.train": _train_key,
}


def _observe_train(tr, a, k, result):
    n = len(_arg(a, k, 1, "source_vs")) + len(_arg(a, k, 2, "target_vs"))
    tr.counters["discriminator.train.sample_epochs"] += n * _arg(a, k, 3, "cfg").epochs


def _observe_save(tr, a, k, result):
    tr.counters["io.save_frames.bytes"] += os.path.getsize(_arg(a, k, 1, "path"))


def _observe_load(tr, a, k, result):
    tr.counters["io.load_frames.bytes"] += os.path.getsize(_arg(a, k, 0, "path"))
    tr.counters["io.load_frames.frames"] += len(result)


def _observe_banks(tr, a, k, result):
    tr.counters["target_sampler.build_banks.frames"] += len(_arg(a, k, 0, "rois"))


# counts recorded at the boundary, after the call returns
_OBSERVE: Dict[str, Callable] = {
    "discriminator.train": _observe_train,
    "io.save_frames": _observe_save,
    "io.load_frames": _observe_load,
    "target_sampler.build_banks": _observe_banks,
}


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[int, str, float, float, Optional[int], Any]] = []
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, int] = defaultdict(int)
        self._keys: Dict[str, set] = defaultdict(set)
        # one [child_time, span_id] frame per active wrapped call
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._op: Any = None
        self._origin = time.perf_counter()
        self.ops = 0

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "bidal" or n.startswith("bidal.")]
        try:
            for module_name, attr, hot in TARGETS:
                module = importlib.import_module("bidal." + module_name)
                name = "%s.%s" % (module_name, attr)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        repl = classmethod(self._wrap(name, raw.__func__, hot))
                    else:
                        repl = self._wrap(name, raw, hot)
                    self._patch(cls, method, repl)
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig, hot)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _wrap(self, name: str, fn, hot: bool):
        stack, stats, spans = self._stack, self.stats, self.spans
        keys = self._keys[name]
        key_of = _KEY.get(name)
        split = _SPLIT.get(name)
        observe = _OBSERVE.get(name)
        clock = time.perf_counter

        if hot:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                if key_of is not None:
                    keys.add(key_of(args, kwargs))
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    st = stats[name]
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur - frame[0]

            return hot_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if split is None else "%s.%s" % (name, split(args, kwargs))
            if key_of is not None:
                keys.add(key_of(args, kwargs))
            span_id = len(spans)
            parent = stack[-1][1] if stack else None
            spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st = stats[span_name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                spans[span_id] = (span_id, span_name, t0, t1, parent, self._op)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id

    def end_op(self) -> None:
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()
        self._op = None
        self.ops += 1

    def layer_metrics(self) -> Dict[str, Dict[str, Any]]:
        """Every PER_LAYER metric except trace.overhead_s, per traced op."""
        ops = max(self.ops, 1)
        out = {}
        for metric, unit in PER_LAYER:
            layer, stat = metric.rsplit(".", 1)
            if metric == "trace.overhead_s":
                continue
            rows = [v for k, v in self.stats.items() if k == layer or k.startswith(layer + ".")]
            calls = sum(r[0] for r in rows)
            if stat == "unique_ratio":
                value = self.distinct[layer] / calls if calls else 0.0
            elif stat in ("calls", "busy_s", "self_s"):
                value = sum(r[("calls", "busy_s", "self_s").index(stat)] for r in rows) / ops
            else:
                value = self.counters[metric] / ops
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in filter(None, self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "op": op, "parent": parent,
                    "start": t0 - self._origin, "end": t1 - self._origin,
                }) + "\n")

