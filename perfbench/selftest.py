#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Feeds deliberately wrong results through the same code the benchmark runs
and confirms that each one raises failed_ratio above the clean run's 0:

    python3 perfbench/selftest.py
"""

import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from tracing import Tracer, install_layer_hooks  # noqa: E402

# Small cells with recorded digests; (2, 5, 1) also has published values.
CELLS = ((3, 4, 2), (2, 5, 1), (4, 6, 2))


def failed_ratio(result: dict) -> float:
    return result["failed"] / result["attempted"]


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def corrupt(real, cell, edit):
    def wrong(m, n, r):
        prof = real(m, n, r)
        if (m, n, r) != cell:
            return prof
        return type(prof)(m, n, r, edit(prof.values), prof.raw_signs)

    return wrong


def main() -> int:
    from detlinks import polar

    checker = Checker()
    real = polar.compute_polar_profile
    clean = workloads.run_hard_cells(random.Random(0), checker, cells=CELLS)
    expect(failed_ratio(clean) == 0, "correct profiles give failed_ratio 0")

    cases = (
        ("a wrong middle value", lambda v: v[:1] + (v[1] + 1,) + v[2:]),
        ("a wrong degree", lambda v: (v[0] + 1,) + v[1:]),
        ("a truncated profile", lambda v: v[:-1]),
    )
    for label, edit in cases:
        polar.compute_polar_profile = corrupt(real, (2, 5, 1), edit)
        try:
            broken = workloads.run_hard_cells(random.Random(0), checker, cells=CELLS)
        finally:
            polar.compute_polar_profile = real
        expect(failed_ratio(broken) > failed_ratio(clean), f"{label} raises failed_ratio")

    name = workloads.command_name(("cache", "show"))
    expect(checker.output_error("warm_outputs", name, "| entry |\n") is not None,
           "a wrong CLI output is reported")

    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    os.environ["DETLINKS_CACHE"] = tempfile.mkdtemp(dir=scratch)
    try:
        # Traced, the benchmark drives the series itself and compares them
        # with compute_polar_profile, so a wrong profile is caught there too.
        polar.compute_polar_profile = corrupt(real, (3, 4, 2), lambda v: v[:2] + (v[2] + 2,) + v[3:])
        tracer = Tracer()
        install_layer_hooks(tracer)
        traced = workloads.run_hard_cells(random.Random(0), checker, tracer, cells=CELLS)
    finally:
        shutil.rmtree(os.environ["DETLINKS_CACHE"])
    expect(traced["failed"] > 0, "a profile that disagrees with the driven series is reported")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
