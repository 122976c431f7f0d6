"""Seeded benchmark for bidal: four closed-loop workloads, one op at a time.

    python3 perfbench/run.py --workload sweep-c10 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run sets the workload up a few times (SETUP_REPS, SETUP_MIN_S), then runs
ops until the next one would end past ``--seconds`` (at least one), timing a
fixed reference loop before the first op and after every op. Every op is
checked and digested; an op fails on an exception, a failed check, or a
digest that differs from the run's first op. With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics, op times given
as multiples of the reference loop; with ``--trace 1`` the first op runs
untraced, the rest run with the tracer installed, and the metrics are the
per-layer ones. ``--workload all`` runs every workload in its own child
process and prints one table. Each run also writes a result file (stamps,
per-op times and digests, metrics, wall-clock figures) under ``--out-dir``.
"""

from __future__ import annotations

import os
import sys

# one client, one process; pinned before numpy loads so op_cpu_s is the
# work done, not BLAS threads spinning
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

# set-up runs at least SETUP_REPS times and for at least SETUP_MIN_S, so
# the median of a cheap set-up spans more than one burst of a noisy host
SETUP_REPS = 3
SETUP_MIN_S = 1.0
DEFAULT_OUT = os.path.join(ROOT, ".bench_out")
END_TO_END = (
    ("op_ref.mean", "ref"),
    ("op_cpu_ref.mean", "ref"),
    ("frames_per_ref", "frames/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
REF_ITERS = 4000


def _load_program():
    """Import bidal from this checkout's src/, or exit 2 if it is not there."""
    try:
        import bidal
    except ImportError as exc:
        sys.stderr.write("cannot import bidal from %s: %s\n" % (SRC, exc))
        raise SystemExit(2)
    if not os.path.abspath(bidal.__file__).startswith(SRC + os.sep):
        sys.stderr.write("bidal was imported from %s, not %s\n" % (bidal.__file__, SRC))
        raise SystemExit(2)
    import numpy
    import tracer
    import workloads

    return numpy, tracer, workloads


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(numpy, seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def reference_loop(numpy):
    """A fixed loop shaped like bidal's hot paths; returns a function timing it.

    Each pass makes REF_ITERS small-vector cosines and (32, 16) @ (16, 64)
    leaky-ReLU layers: the same mix of interpreter work and tiny numpy calls
    as scoring, banks and training. The host's speed can change by 1.7x for
    seconds to minutes at a time. A run reports its mean op time as a
    multiple of the loop's mean time, which cancels most of that change.
    """
    rng = numpy.random.default_rng(0)
    vecs, weights, batch = rng.normal(size=(64, 16)), rng.normal(size=(16, 64)), rng.normal(size=(32, 16))

    def timed():
        c0, t0 = time.process_time(), time.perf_counter()
        for i in range(REF_ITERS):
            u, v = vecs[i % 64], vecs[(7 * i) % 64]
            float(numpy.dot(u, v) / (numpy.linalg.norm(u) * numpy.linalg.norm(v)))
            z = batch @ weights
            float(numpy.where(z > 0, z, 0.01 * z).sum())
        return time.perf_counter() - t0, time.process_time() - c0

    return timed


def _one_op(wl, ctx, op_id, tr=None) -> dict:
    rec = {"op": op_id, "traced": tr is not None, "errors": [], "digest": None}
    if tr is not None:
        tr.begin_op(op_id)
        tr.install()
    out = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = wl.op(ctx)
    except Exception:
        rec["errors"].append(traceback.format_exc(limit=5))
    finally:
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        if tr is not None:
            tr.uninstall()
            tr.end_op()
    if not rec["errors"]:
        try:
            rec["errors"] += wl.check(ctx, out)
            rec["digest"] = wl.digest(ctx, out)
        except Exception:
            rec["errors"].append(traceback.format_exc(limit=5))
    rec["output"] = out
    return rec


def run_workload(name, seed, seconds, trace, out_dir, size="bench") -> dict:
    """One benchmark run; returns the result record (see the module doc)."""
    numpy, tracer, workloads = _load_program()
    sizes = workloads.SIZES[size]
    wl = workloads.WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, "work", "%s-%d" % (name, os.getpid()))
    tr = tracer.Tracer() if trace else None
    reference = reference_loop(numpy)
    try:
        setups = []
        while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
            t0 = time.perf_counter()
            ctx = wl.setup(seed, sizes, workdir)
            setups.append(time.perf_counter() - t0)
        start = time.perf_counter()
        refs = [reference()]
        ops = []
        while True:
            # a traced run's first op runs untraced, as the overhead baseline
            traced = bool(trace) and bool(ops)
            ops.append(_one_op(wl, ctx, len(ops), tr if traced else None))
            refs.append(reference())
            if traced == bool(trace) and time.perf_counter() - start + ops[-1]["wall_s"] > seconds:
                break
        loop_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = ops[0]["digest"]
    for rec in ops[1:]:
        if not rec["errors"] and rec["digest"] != first:
            rec["errors"].append("digest %s differs from the first op's %s" % (rec["digest"], first))
    failed = sum(1 for rec in ops if rec["errors"])
    extra = {"error_rate": failed / len(ops)}
    if name == "sweep-c10" and not ops[0]["errors"]:
        extra["bidomain_acc_gain"] = workloads.bidomain_acc_gain(ops[0]["output"])

    timed = [rec for rec in ops if rec["traced"] == bool(trace)]
    frames = wl.pool_frames(sizes) * len(timed)
    op_s = statistics.median(rec["wall_s"] for rec in timed)
    # wall-clock figures: printed and kept, but too host-dependent to bound
    extra["op_s.p50"] = op_s
    extra["op_cpu_s.p50"] = statistics.median(rec["cpu_s"] for rec in timed)
    extra["frames_per_s"] = frames / loop_s
    if trace:
        metrics = tr.layer_metrics()
        metrics["trace.overhead_s"] = {"value": op_s - ops[0]["wall_s"], "unit": "s"}
    else:
        # means, not medians: the reference passes are short, and only their
        # mean over the run tracks the host's speed closely enough
        op_ref = statistics.mean(rec["wall_s"] for rec in timed) / statistics.mean(r[0] for r in refs)
        values = {
            "op_ref.mean": op_ref,
            "op_cpu_ref.mean": statistics.mean(rec["cpu_s"] for rec in timed)
            / statistics.mean(r[1] for r in refs),
            "frames_per_ref": wl.pool_frames(sizes) / op_ref,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}

    base = os.path.join(out_dir, "%s-seed%d-trace%d" % (name, seed, int(bool(trace))))
    if trace:
        tr.write_spans(base + ".spans.ndjson")
    result = {
        "reference_s": refs,
        "workload": name,
        "size": size,
        "stamp": stamp(numpy, seed),
        "seconds": seconds,
        "setup_s": setups,
        "ops": [{k: v for k, v in rec.items() if k != "output"} for rec in ops],
        "digests": sorted({rec["digest"] for rec in ops if rec["digest"]}),
        "extra": extra,
        "line": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        },
    }
    with open(base + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _print_run(result) -> None:
    for rec in result["ops"]:
        for err in rec["errors"]:
            sys.stderr.write("op %d failed: %s\n" % (rec["op"], err))
    line = result["line"]
    print("%s seed %d: %d/%d ops ok, digest %s"
          % (result["workload"], result["stamp"]["seed"], line["attempted"] - line["failed"],
             line["attempted"], ",".join(d[:12] for d in result["digests"]) or "-"))
    for key, value in sorted(result["extra"].items()):
        print("  %-44s %.6g" % (key, value))
    for key, m in line["metrics"].items():
        print("  %-44s %.6g %s" % (key, m["value"], m["unit"]))


def _run_all(names, args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's own."""
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--out-dir", args.out_dir]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))  # all but the JSON line
        if proc.returncode != 0:
            sys.stderr.write("%s exited %d\n" % (name, proc.returncode))
            return proc.returncode
        path = os.path.join(args.out_dir, "%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        with open(path) as fh:
            results[name] = json.load(fh)
    print("\n%-14s %-44s %14s  %s" % ("workload", "metric", "value", "unit"))
    for name, result in results.items():
        rows = [(k, v, "") for k, v in sorted(result["extra"].items())]
        rows += [(k, m["value"], m["unit"]) for k, m in result["line"]["metrics"].items()]
        for key, value, unit in rows:
            print("%-14s %-44s %14.6g  %s" % (name, key, value, unit))
    path = os.path.join(args.out_dir, "all-seed%d-trace%d.json" % (args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    lines = [r["line"] for r in results.values()]
    print("all outputs correct: %s; %d ops, %d failed; results -> %s" % (
        all(ln["correct"] for ln in lines), sum(ln["attempted"] for ln in lines),
        sum(ln["failed"] for ln in lines), path))
    return 0


def main(argv=None) -> int:
    _, _, workloads = _load_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(workloads.SIZES), default="bench",
                        help="pool sizes: the benchmark's, the acceptance gate's, or the tests'")
    parser.add_argument("--out-dir", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.out_dir, args.size)
    _print_run(result)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
