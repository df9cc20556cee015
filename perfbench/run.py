#!/usr/bin/env python3
"""Layered benchmark for detlinks.

    python3 perfbench/run.py --workload table_sweep --seed 1 --seconds 60 --trace 0

Runs one workload (hard_cells, table_sweep or warm_queries, see
workloads.py) for about --seconds seconds.  Every iteration is a fresh
process with its own DETLINKS_CACHE; iterations repeat until the time is
used up (see measure).  Every output is checked (checks.py).  With
--trace 0 the end-to-end metrics of BENCHMARK.json are printed; with
--trace 1 the per-layer metrics, from traced iterations paired with
untraced ones to measure the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  Run details and
the spans of the last traced iteration are kept in .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_runs"
REQUIRED = (SRC / "detlinks" / "__init__.py", ROOT / "tests" / "reference_tables.py",
            ROOT / "BENCHMARK.json", HERE / "expected.json")

import workloads  # noqa: E402
from tracing import SPAN_NAMES  # noqa: E402

# Cheap set-ups are repeated in set-up-only processes so that setup_s is a
# median of several; warm_queries fills its cache several times instead, and
# each iteration starts from a copy of one of those fills.
SETUP_PROBES = {"hard_cells": 6, "table_sweep": 6, "warm_queries": 0}
CACHE_FILLS = {"warm_queries": 2}
OPS_PER_ITERATION = {
    "hard_cells": len(workloads.HARD_CELLS),
    "table_sweep": workloads.SWEEP_CELLS,
    "warm_queries": len(workloads.warm_commands()),
}
HARD_LIMIT_S = 170  # no process is allowed to run past this, whatever --seconds says
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Counts that must repeat exactly across iterations, seeds and runs of one
# source tree.  cache.stores is left out: it depends on the section order.
EXACT_COUNTS = (
    "grass_ring.mul_basis_misses", "grass_ring.mul_basis_hits", "grass_ring.pieri_misses",
    "tensor_calculus.series_terms", "polar.cells_computed", "cli.stdout_bytes",
    "cache.file_bytes", "cache.loads", "cache.lookups", "cache.hits", "links.calls",
)


class WorkerError(Exception):
    pass


def spawn(job_dir: Path, mode: str, workload: str, seed: str, traced: bool,
          timeout: float, cache_src: Path | None = None) -> dict:
    """Run worker.py once; setup_s is from just before the spawn to its ready mark."""
    job_dir.mkdir(parents=True)
    cache = job_dir / "cache"
    result = job_dir / "result.json"
    job = {"mode": mode, "workload": workload, "seed": seed, "traced": traced,
           "result": str(result)}
    env = {**os.environ, "PYTHONPATH": str(SRC), "DETLINKS_CACHE": str(cache)}
    start = time.monotonic()
    if cache_src is None:
        cache.mkdir()
    else:
        shutil.copytree(cache_src, cache)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process killed after {timeout:.0f} s")
    end = time.monotonic()
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerError(f"{mode} process exited {proc.returncode}: {' | '.join(tail)}")
    outcome = json.loads(result.read_text())
    outcome.update(setup_s=outcome["ready"] - start, duration_s=end - start, cache=str(cache))
    return outcome


def measure(workload: str, seed: int, seconds: float, trace: bool, run_root: Path) -> dict:
    """Spawn the run's processes.  With cache fills, the run is split into one
    time window per fill, so the iterations sample the machine across the
    whole run rather than only after every fill.  A round (one iteration, or
    an untraced/traced pair) starts while it is expected to end no later
    than half a round past its window."""
    start = time.monotonic()
    out = {"fills": [], "probes": [], "plain": [], "traced": [], "errors": [],
           "lost_ops": 0}
    n = 0

    def run(mode, traced=False, key="", cache_src=None):
        nonlocal n
        n += 1
        timeout = max(1.0, start + HARD_LIMIT_S - time.monotonic())
        return spawn(run_root / f"{n:03d}-{mode}", mode, workload, key, traced, timeout,
                     cache_src)

    fills = CACHE_FILLS.get(workload, 0)
    rounds = []
    try:
        for _ in range(SETUP_PROBES[workload]):
            out["probes"].append(run("probe"))
        for window in range(max(fills, 1)):
            window_end = start + seconds * (window + 1) / max(fills, 1)
            fill = None
            if fills:
                out["fills"].append(run("fill"))
                fill = Path(out["fills"][-1]["cache"])
            while True:
                round_start = time.monotonic()
                kinds = [False, True] if trace else [False]
                if len(rounds) % 2:
                    kinds.reverse()  # alternate which of a traced pair runs first
                for traced in kinds:
                    it = run("iterate", traced, f"{seed}/{len(rounds)}", fill)
                    out["traced" if traced else "plain"].append(it)
                rounds.append(time.monotonic() - round_start)
                half = statistics.mean(rounds) / 2
                now = time.monotonic()
                if now + half > window_end or now + 2 * half > start + HARD_LIMIT_S - 10:
                    break
    except WorkerError as exc:
        out["errors"].append(str(exc))
        out["lost_ops"] += OPS_PER_ITERATION[workload]
    return out


def percentile(samples, p: float) -> float:
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(samples) -> tuple | None:
    """(p, value) for the highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if len(samples) * (100 - p) / 100 >= 10:
            return p, percentile(samples, p)
    return None


def end_to_end(m: dict) -> tuple:
    """Every time of the work is scaled by the speed measured alongside it
    (pace.py), so it reads as the time at the reference speed; the notes give
    raw medians.  Process set-up (spawn, imports) is not paced and is raw."""
    plain, fills = m["plain"], m["fills"]
    median = statistics.median
    ops = [[s * v for s, v in zip(it["ops"], it["op_speeds"])] for it in plain]
    pooled = [s for it_ops in ops for s in it_ops]
    processes = m["probes"] + plain
    setup_s = median(p["setup_s"] for p in processes)
    fill_s = median(f["fill_s"] * f["speed"] for f in fills) if fills else 0.0
    # The median of each iteration's median: on hard_cells the two cells'
    # latencies form two clusters, and a pooled median would be the gap
    # between the clusters' extremes, which swings with every slow sample.
    op_p50 = median(median(it_ops) for it_ops in ops)
    p, tail_s = tail(pooled) or (None, op_p50)
    values = {
        "wall_s": median(it["wall_s"] * it["speed"] for it in plain),
        "cpu_s": median(it["cpu_s"] * it["speed"] for it in plain),
        "op_s_p50": op_p50,
        "op_s_tail": tail_s,
        "peak_rss_mb": median(it["peak_rss_mb"] for it in plain),
        "setup_s": setup_s + fill_s,
    }
    iterations = (f"median of {len(plain)} iterations at reference speed; raw median "
                  f"{{:.4f}} s, speed median {median(it['speed'] for it in plain):.3f}")
    notes = {
        "wall_s": iterations.format(median(it["wall_s"] for it in plain)),
        "cpu_s": iterations.format(median(it["cpu_s"] for it in plain)),
        "op_s_p50": f"median over {len(plain)} iterations of their median, "
                    f"{len(pooled)} operations, each at the speed around it",
        "op_s_tail": f"p{p:g} of {len(pooled)} operations" if p else
                     f"no percentile has ten of {len(pooled)} operations beyond it; op_s_p50",
        "peak_rss_mb": f"median of {len(plain)} iterations",
        "setup_s": f"median of {len(processes)} process set-ups ({setup_s:.4f} s)"
                   + (f" + median of {len(fills)} cache fills ({fill_s:.3f} s; raw "
                      f"{median(f['fill_s'] for f in fills):.3f} s)" if fills else ""),
    }
    return values, notes


def per_layer(m: dict, errors: list, warnings: list) -> tuple:
    traced, plain = m["traced"], m["plain"]
    values = {f"{name}_s": statistics.median(it["layers_s"][name] for it in traced)
              for name in SPAN_NAMES}
    counts = traced[0]["counts"]
    for it in traced[1:]:
        drift = {k: (counts[k], it["counts"][k]) for k in EXACT_COUNTS
                 if it["counts"][k] != counts[k]}
        if drift:
            errors.append(f"exact counts differ between iterations: {drift}")
    values.update({k: counts[k] for k in EXACT_COUNTS + ("cache.stores",)})
    lookups = counts["cache.lookups"]
    values["cache.hit_ratio"] = counts["cache.hits"] / lookups if lookups else 0.0
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    plain_wall = statistics.median(it["wall_s"] for it in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.unaccounted_share"] = statistics.median(
        it["unaccounted_s"] / it["wall_s"] for it in traced)
    notes = {"trace.overhead_s": f"median of {len(traced)} traced minus median of "
                                 f"{len(plain)} untraced iterations (wall {plain_wall:.4f} s)"}
    warnings.extend(f"layer hook missing, its layer reads 0: {h}"
                    for h in sorted({h for it in traced for h in it["missing_hooks"]}))
    return values, notes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not itself a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def check_count_record(workload: str, source: str, counts: dict, errors: list):
    """Exact counts must match every earlier run of the same source tree."""
    path = RUN_DIR / "counts.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    exact = {k: counts[k] for k in EXACT_COUNTS}
    seen = record.setdefault(source, {}).setdefault(workload, exact)
    if seen != exact:
        drift = {k: (seen[k], exact[k]) for k in EXACT_COUNTS if seen[k] != exact[k]}
        errors.append(f"exact counts differ from an earlier run of this source: {drift}")
        return
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1))
    tmp.replace(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="detlinks benchmark")
    parser.add_argument("--workload", choices=tuple(workloads.RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    RUN_DIR.mkdir(exist_ok=True)
    run_root = Path(tempfile.mkdtemp(dir=RUN_DIR, prefix=f"{args.workload}-"))
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_root)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    iterations = m["plain"] + m["traced"]
    errors, warnings = list(m["errors"]), []
    for it in iterations:
        errors.extend(it["errors"])
    attempted = sum(it["attempted"] for it in iterations) + m["lost_ops"]
    failed = sum(it["failed"] for it in iterations) + m["lost_ops"]
    values, notes = {}, {}
    if not all(it["ops"] for it in m["plain"]):
        errors.append("an iteration recorded no operation latencies")
    elif m["plain"] and (m["traced"] or not args.trace):
        if args.trace:
            values, notes = per_layer(m, errors, warnings)
            check_count_record(args.workload, meta["source"], m["traced"][0]["counts"], errors)
            spans = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps(m["traced"][-1]["spans"]))
        else:
            values, notes = end_to_end(m)
    else:
        errors.append("no complete iteration")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            errors.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    correct = not errors and failed == 0 and attempted > 0

    print(f"# perfbench {json.dumps(meta)}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_ratio = {failed / attempted if attempted else 1.0:.6g} ratio  "
          f"({failed} of {attempted} operations)")
    for warning in warnings:
        print(f"warning: {warning}")
    for error in errors[:10]:
        print(f"error: {error}")
    with open(RUN_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**meta, "correct": correct, "attempted": attempted,
                             "failed": failed, "metrics": metrics, "notes": notes,
                             "iteration_wall_s": [it["wall_s"] for it in m["plain"]],
                             "iteration_speed": [it["speed"] for it in m["plain"]],
                             "errors": errors[:10]}) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
