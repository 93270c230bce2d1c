"""Runs one workload of the scpl benchmark and prints its metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout: it imports ``scpl`` from the
``src`` directory next to ``bench`` and refuses to run without it.  The
workloads and their parameters are in ``bench/design.json``; the metric
names and units are those of ``BENCHMARK.json`` at the checkout root.

With ``--trace 0`` every operation is untraced and the last line of
standard output is one JSON object carrying the end-to-end metrics.  With
``--trace 1`` operations alternate untraced and traced, and the JSON line
carries the per-layer metrics derived from the traced ones.  The lines
above it are a human-readable table.  A run record (fingerprints, output
digests, samples and every figure) goes to ``bench/out/``, and a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Percentiles the table may report, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(samples)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile with at least ten samples beyond it."""
    for q in PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer):
    """Closed loop: one operation after another until the time is up.
    Returns (traced, problems, Clock.calls) per operation."""
    import workloads

    clock = workloads.Clock()
    ops = []
    k = 0
    deadline = perf_counter() + seconds
    while k < 2 or perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        clock.tracer = tracer if traced else None
        clock.calls = []
        try:
            problems = workload.op(k, clock)
        except Exception:  # a failed operation is counted, not fatal
            problems = [f"operation {k} raised:\n{traceback.format_exc()}"]
        ops.append((traced, problems, clock.calls))
        k += 1
    return ops


def time_setup(workload, src: Path) -> tuple[list[float], list[float]]:
    """Calibrated seconds of SETUP_REPEATS fresh interpreters importing
    scpl, and of SETUP_REPEATS set-ups of the workload."""
    import workloads

    clock = workloads.Clock()
    argv = [sys.executable, "-c", "import scpl, scpl.cli"]
    env = dict(os.environ, PYTHONPATH=str(src))
    for _ in range(SETUP_REPEATS):
        clock.call("import", lambda: subprocess.run(argv, env=env,
                                                    check=True))
    for _ in range(SETUP_REPEATS):
        clock.call("setup", workload.setup)
    return ([dt * scale for label, dt, scale in clock.calls
             if label == "import"],
            [dt * scale for label, dt, scale in clock.calls
             if label == "setup"])


def latencies(ops, traced: bool, calibrated: bool = True):
    """Per-operation and per-class latencies (ms) of passed operations,
    calibrated unless asked for raw wall time."""
    per_op: list[float] = []
    per_class: dict[str, list[float]] = {}
    for was_traced, problems, calls in ops:
        if was_traced != traced or problems:
            continue
        ms = [(label, dt * (scale if calibrated else 1.0) * 1e3)
              for label, dt, scale in calls]
        per_op.append(sum(x for _, x in ms))
        for label, x in ms:
            per_class.setdefault(label, []).append(x)
    return per_op, per_class


def end_to_end(workload, ops, setup_s: float) -> tuple[dict, list[str]]:
    per_op, per_class = latencies(ops, traced=False)
    figures = {
        "op_ms.p50": statistics.median(per_op),
        "op_ms.p90": percentile(per_op, 90.0),
        "op_ms.p50.small": statistics.median(per_class[workload.classes[0]]),
        "op_ms.p50.large": statistics.median(per_class[workload.classes[-1]]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "setup_s": setup_s,
    }
    table = [f"operations: {len(per_op)} passed and untraced"]
    q = tail_percentile(len(per_op))
    if q is not None:
        table.append(f"op_ms.p{q:g} = {percentile(per_op, q):.4f} ms "
                     f"({len(per_op)} samples)")
    else:
        table.append(f"no percentile above the median has ten samples "
                     f"beyond it ({len(per_op)} samples)")
    raw_op, raw_class = latencies(ops, traced=False, calibrated=False)
    table.append(f"raw wall time: op_ms.p50 = {statistics.median(raw_op):.4f}"
                 f" ms, op_ms.p90 = {percentile(raw_op, 90.0):.4f} ms")
    for label in workload.classes:
        figures[f"op_ms.p50.{label}"] = statistics.median(per_class[label])
        table.append(f"op_ms.p50.{label}: {len(per_class[label])} samples, "
                     f"raw {statistics.median(raw_class[label]):.4f} ms")
    if hasattr(workload, "class_sizes"):
        sizes = workload.class_sizes()
        figures["scaling_slope"] = slope(
            [sizes[c] for c in workload.classes],
            [statistics.median(per_class[c]) for c in workload.classes])
    return figures, table


def per_layer(tracer, ops) -> tuple[dict, list[str]]:
    traced_op, _ = latencies(ops, traced=True)
    untraced_op, _ = latencies(ops, traced=False)
    n = len(traced_op)
    totals = tracer.totals()
    counts = tracer.counts
    figures: dict[str, float] = {}
    for label, (calls, self_ms) in totals.items():
        if label.startswith("bench."):
            continue
        figures[f"{label}.calls"] = calls / n
        figures[f"{label}.self_ms"] = self_ms / n
    prune_calls = totals.get("rewrite.prune_conditions", (0, 0.0))[0]
    figures.update({
        "model.map_states.nodes": counts["map_states.nodes"] / n,
        "rewrite.reachable_and.tuples": counts["reachable_and.tuples"] / n,
        "rewrite.composed_transitions": counts["composed_transitions"] / n,
        "rewrite.prune_conditions.useful_ratio":
            counts["prune_steps"] / prune_calls if prune_calls else 0.0,
        "trace.overhead_ratio": (statistics.median(traced_op)
                                 / statistics.median(untraced_op)),
    })
    table = [f"traced operations: {n}, untraced: {len(untraced_op)}"]
    # Share of each class's traced time spent in index builds and tree
    # rebuilds, the two costs cProfile singles out on large machines.
    for label in sorted(l for l in tracer.labels if l.startswith("bench.")):
        lid = tracer.labels.index(label)
        roots = {i for i, x in enumerate(tracer.name) if x == lid}
        under = tracer.self_ms_under(roots)
        total = sum(under.values())
        core = (under.get("model.MachineIndex", 0.0)
                + under.get("model.map_states", 0.0))
        table.append(f"{label}: model.MachineIndex + model.map_states self "
                     f"time = {core / total:.3f} of {total:.1f} ms traced")
    return figures, table


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    src = ROOT / "src"
    if bench is None or not (src / "scpl" / "__init__.py").is_file():
        print(f"bench: needs BENCHMARK.json and src/scpl in {ROOT}",
              file=sys.stderr)
        return 2
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    if args.workload not in design["workloads"]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import scpl
    import workloads
    from tracing import Tracer
    if Path(scpl.__file__).resolve().parent != src / "scpl":
        print(f"bench: imported scpl from {scpl.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, design["workloads"][args.workload]["params"], ROOT,
            workdir)
        imports, setups = time_setup(workload, src)
        setup_s = statistics.median(imports) + statistics.median(setups)

        pinned_path = HERE / "pinned.json"
        pinned = json.loads(pinned_path.read_text(encoding="utf-8")) \
            .get(args.workload, {})
        changed = [i for i in workload.pinned_ids()
                   if i in pinned and pinned[i] != workload.fingerprints[i]]
        if changed:
            for i in changed:
                print(f"bench: input {args.workload}/{i} is now "
                      f"{workload.fingerprints[i]}, pinned "
                      f"{pinned[i]}", file=sys.stderr)
            print("bench: the inputs differ from bench/pinned.json; refusing "
                  "to report figures that would not be comparable",
                  file=sys.stderr)
            return 3

        tracer = Tracer() if args.trace else None
        ops = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [problems for _, problems, _ in ops if problems]
    if len(failed) == len(ops):
        print("bench: every operation failed; first failure:\n"
              + "\n".join(failed[0]), file=sys.stderr)
        return 1
    figures, table = end_to_end(workload, ops, setup_s)
    if tracer is not None:
        layer_figures, layer_table = per_layer(tracer, ops)
        figures.update(layer_figures)
        table += layer_table
    figures["failed_ratio"] = len(failed) / len(ops)
    table.append(f"failed_ratio = {len(failed)}/{len(ops)}")
    table += workload.summary()

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": figures.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    units = {m["name"]: m["unit"] for m in
             bench["end_to_end"] + bench["per_layer"]}
    for name in sorted(figures):
        unit = units.get(name, "ms" if name.startswith("op_ms") else "")
        print(f"{name} = {figures[name]:.6g} {unit}".rstrip())
    for line in table:
        print(line)
    for problems in failed[:5]:
        print("FAILED: " + "; ".join(problems), file=sys.stderr)
    digests = sorted(workload.digests.items())
    for key, value in digests[:8]:
        print(f"output {key} digest {value}")
    combined = hashlib.sha256(repr(digests).encode("utf-8")).hexdigest()[:16]
    print(f"outputs: {len(digests)} inputs, combined digest {combined}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprints": workload.fingerprints, "digests": workload.digests,
        "figures": figures, "import_runs_s": imports,
        "setup_runs_s": setups,
        "samples_ms": latencies(ops, traced=False)[1],
        "summary": workload.summary(), "failures": failed[:20],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.tsv")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
