#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Writes perfbench/expected.json: a digest of every profile the workloads
compute, the stdout digest of every table_sweep and warm_queries command,
and the digest of the assembled scripts/reproduce_tables.py output.  Run it
only on a commit whose outputs are known good:

    python3 perfbench/record_expected.py
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import EXPECTED_PATH, cell_key, profile_digest, sha256  # noqa: E402


def main() -> int:
    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(dir=scratch)
    os.environ["DETLINKS_CACHE"] = cache_dir
    try:
        from detlinks.cache import cache_load
        from detlinks.polar import compute_polar_profile

        sweep = {}
        for _, invocations in workloads.SWEEP_SECTIONS:
            for argv in invocations:
                code, text, error = workloads.call_cli(argv)
                if code != 0:
                    raise SystemExit(f"{argv}: exit {code} {error}")
                sweep[workloads.command_name(argv)] = text
        entries = cache_load().entries
        if len(entries) != workloads.SWEEP_CELLS:
            raise SystemExit(f"sweep cached {len(entries)} cells, expected {workloads.SWEEP_CELLS}")
        profiles = {key: profile_digest(p.values, p.raw_signs) for key, p in entries.items()}
        for m, n, r in workloads.HARD_CELLS:
            prof = compute_polar_profile(m, n, r)
            profiles[cell_key(m, n, r)] = profile_digest(prof.values, prof.raw_signs)
        warm = {}
        for argv in workloads.warm_commands():
            code, text, error = workloads.call_cli(argv)
            if code != 0:
                raise SystemExit(f"{argv}: exit {code} {error}")
            warm[workloads.command_name(argv)] = sha256(text)
        if len(cache_load().entries) != workloads.SWEEP_CELLS:
            raise SystemExit("a warm_queries command computed a cell outside the sweep")
        total = workloads.sweep_text(sweep)
        expected = {
            "profiles": dict(sorted(profiles.items())),
            "sweep_cells": sorted(entries),
            "sweep_outputs": {name: sha256(text) for name, text in sweep.items()},
            "sweep_total": {"reproduce_tables": sha256(total)},
            "sweep_total_bytes": len(total.encode()),
            "warm_outputs": warm,
        }
    finally:
        shutil.rmtree(cache_dir)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}: {len(profiles)} profiles, "
          f"{len(warm)} warm commands, sweep output {expected['sweep_total_bytes']} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
