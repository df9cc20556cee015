#!/usr/bin/env python3
"""Informational timing harness for polar-profile computations.

Times compute_polar_profile (Bott localization: a revolving-door walk over
the torus fixed points, halved by their mirror symmetry) and, next to it,
certify_polar_profile (the Schubert route behind --verify: Lascoux classes
paired by box complement) on the (m, m+1, m-1) family and on the hardest
tabulated cells (7,8,3), (7,8,4) and (6,12,3), each a fraction of a second
on a current desktop core, and on the frontier cell (9,10,4), about a
second.  Every time is cold.  The process memo of Bott sums, which both
ranks of a dual pair share, is cleared before each compute, so (7,8,4)
right after its dual (7,8,3) is summed again rather than read back.  The
certifier's memos (every function of ``partitions``, ``grass_ring`` and
``tensor_calculus`` that has a ``cache_clear``, looked up at run time, so a
memo added there later is cleared too) are cleared before each certify, so
a repeated --cell, or a cell sharing a factor box with an earlier one,
builds its partitions and structure constants again.  A cell whose two routes disagree is reported,
and the script then exits 1.  A first line reports start-up: the median
time of ``import detlinks.cli`` over five fresh interpreters, started one
after another, the detlinks modules that import loads, and the other
modules it adds to those of a bare interpreter, so that a new heavy import
shows up by name.
Costs depend entirely on the host; nothing here gates the test suite.  This
script just records what the current machine does.  perfbench/ is the
checked benchmark.

Usage:
    python3 scripts/benchmark.py                 # default set
    python3 scripts/benchmark.py --max-hb 7      # Hilbert-Burch family up to m
    python3 scripts/benchmark.py --cell 7,8,4    # one explicit (m, n, r)
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from detlinks import grass_ring, partitions, tensor_calculus  # noqa: E402
from detlinks.polar import (  # noqa: E402
    _bott_sums,
    certify_polar_profile,
    compute_polar_profile,
)


HARD_CELLS = [(7, 8, 3), (7, 8, 4), (6, 12, 3), (9, 10, 4)]
IMPORT_CLI = ("import sys, time; bare = set(sys.modules); started = time.perf_counter(); "
              "import detlinks.cli; print(time.perf_counter() - started, "
              "*sorted(set(sys.modules) - bare))")


def cell(text):
    """The argparse type of --cell: three integers m,n,r with 0 <= r <= m <= n."""
    try:
        m, n, r = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not three integers m,n,r: {text!r}")
    if not 0 <= r <= m <= n:
        raise argparse.ArgumentTypeError(f"need 0 <= r <= m <= n: {text!r}")
    return m, n, r


def fmt_values(values, limit=6):
    shown = ", ".join(str(v) for v in values[:limit])
    return f"({shown}, ...)" if len(values) > limit else f"({shown})"


def timed(route, m, n, r):
    started = time.perf_counter()
    prof = route(m, n, r)
    return prof, time.perf_counter() - started


def startup():
    """Print the median ``import detlinks.cli`` time over five fresh
    interpreters, the detlinks modules it loaded and the other modules it
    added to a bare interpreter's."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outputs = [subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env, check=True,
                              capture_output=True, text=True).stdout.split()
               for _ in range(5)]
    seconds = statistics.median(float(out[0]) for out in outputs)
    added = outputs[-1][1:]
    own = [name for name in added if name.split(".")[0] == "detlinks"]
    other = [name for name in added if name.split(".")[0] != "detlinks"]
    print(f"start-up: import detlinks.cli {seconds * 1e3:.1f} ms (median of 5 "
          f"fresh interpreters), loads {' '.join(own)}; also loads {' '.join(other)}")


def clear_certifier_memos():
    """Empty every memo of the certifier: each attribute of ``partitions``,
    ``grass_ring`` and ``tensor_calculus`` that has a ``cache_clear``."""
    for module in (partitions, grass_ring, tensor_calculus):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def run_cell(m, n, r):
    """Time both routes on one cell; returns (compute seconds, certify
    seconds, whether the routes agree)."""
    _bott_sums.cache_clear()
    prof, compute_s = timed(compute_polar_profile, m, n, r)
    clear_certifier_memos()
    cert, certify_s = timed(certify_polar_profile, m, n, r)
    agree = cert == prof
    print(f"  ({m:2d},{n:2d},{r}) {compute_s * 1e3:9.1f}ms {certify_s * 1e3:9.1f}ms"
          f"  {fmt_values(prof.values)}{'' if agree else '  ROUTES DISAGREE'}")
    return compute_s, certify_s, agree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-hb", type=int, default=6,
                        help="largest m of the (m, m+1, m-1) family to time")
    parser.add_argument("--cell", action="append", default=[], type=cell,
                        help="extra cell m,n,r with 0 <= r <= m <= n (repeatable)")
    args = parser.parse_args(argv)

    startup()
    print("polar-profile timings (informational):")
    print(f"  {'cell':9s} {'compute':>11s} {'certify':>11s}  values")
    cells = [(m, m + 1, m - 1) for m in range(2, args.max_hb + 1)]
    cells += HARD_CELLS + args.cell
    times = [run_cell(*cell) for cell in cells]
    print(f"total: compute {sum(t[0] for t in times) * 1e3:.1f} ms, "
          f"certify {sum(t[1] for t in times) * 1e3:.1f} ms")
    return 0 if all(t[2] for t in times) else 1


if __name__ == "__main__":
    sys.exit(main())
