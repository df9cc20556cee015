#!/usr/bin/env python3
"""Informational timing harness for polar-profile computations.

Times compute_polar_profile (Bott localization: a revolving-door walk over
the torus fixed points, halved by their mirror symmetry) on the (m, m+1, m-1)
family and on the hardest tabulated cells (7,8,3), (7,8,4) and (6,12,3),
each a fraction of a second on a current desktop core.
Costs depend entirely on the host; nothing here gates the test suite.  This
script just records what the current machine does.  perfbench/ is the
checked benchmark.

Usage:
    python3 scripts/benchmark.py                 # default set
    python3 scripts/benchmark.py --max-hb 7      # Hilbert-Burch family up to m
    python3 scripts/benchmark.py --cell 7,8,4    # one explicit (m, n, r)
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from detlinks.polar import compute_polar_profile  # noqa: E402


HARD_CELLS = ["7,8,3", "7,8,4", "6,12,3"]


def fmt_values(values, limit=6):
    shown = ", ".join(str(v) for v in values[:limit])
    return f"({shown}, ...)" if len(values) > limit else f"({shown})"


def run_cell(m, n, r):
    started = time.perf_counter()
    prof = compute_polar_profile(m, n, r)
    elapsed = time.perf_counter() - started
    print(f"  ({m:2d},{n:2d},{r}) {elapsed:8.2f}s  {fmt_values(prof.values)}")
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-hb", type=int, default=6,
                        help="largest m of the (m, m+1, m-1) family to time")
    parser.add_argument("--cell", action="append", default=[],
                        help="extra cell m,n,r (repeatable)")
    args = parser.parse_args(argv)

    print("polar-profile timings (informational):")
    total = 0.0
    for m in range(2, args.max_hb + 1):
        total += run_cell(m, m + 1, m - 1)
    for text in HARD_CELLS + args.cell:
        m, n, r = (int(x) for x in text.split(","))
        total += run_cell(m, n, r)
    print(f"total: {total:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
