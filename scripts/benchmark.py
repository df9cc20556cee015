#!/usr/bin/env python3
"""Informational timing harness for polar-profile computations.

Times compute_polar_profile (Bott localization: a revolving-door walk over
the torus fixed points, halved by their mirror symmetry) and, next to it,
certify_polar_profile (the Schubert route behind --verify: the Segre classes
of both tensor bundles paired by box complement) on the (m, m+1, m-1)
family and on the hardest tabulated cells (7,8,3), (7,8,4) and (6,12,3),
each a fraction of a second on a current desktop core, and on the frontier
cell (9,10,4), about a second.  Every time is cold.  The process memo of Bott sums, which both
ranks of a dual pair share, is cleared before each compute, so (7,8,4)
right after its dual (7,8,3) is summed again rather than read back.  The
certifier's memos (every function of ``partitions``, ``grass_ring`` and
``tensor_calculus`` that has a ``cache_clear``, looked up at run time, so a
memo added there later is cleared too) are cleared before each certify, so
a repeated --cell, or a cell sharing a factor box with an earlier one,
builds its partitions again.  A cell whose two routes disagree is reported,
and the script then exits 1.  Two first lines report start-up: the median
time of ``import detlinks.cli`` over five fresh interpreters, started one
after another, then that of ``import detlinks.tensor_calculus`` on top of
it in the same interpreters (what --verify adds), each with the detlinks
modules it loads and the other modules it adds to those already loaded, so
that a new heavy import shows up by name.  The interpreters import a
temporary copy of ``src/detlinks`` without ``__pycache__``, under
``PYTHONDONTWRITEBYTECODE=1``, so every one compiles the package, as a
fresh checkout does, whatever bytecode the working tree holds.
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
import shutil
import statistics
import subprocess
import sys
import tempfile
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
STARTUP = ("detlinks.cli", "detlinks.tensor_calculus")
IMPORT_STARTUP = f"""\
import sys, time
for name in {STARTUP!r}:
    loaded = set(sys.modules)
    started = time.perf_counter()
    __import__(name)
    print(time.perf_counter() - started, *sorted(set(sys.modules) - loaded))
"""


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
    """Print, for each import of ``STARTUP`` in turn, its median time over
    five fresh interpreters, the detlinks modules it loaded and the other
    modules it added to those loaded before it.  Each interpreter compiles
    the package: it imports a copy with no bytecode and writes none."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(SRC / "detlinks", Path(tmp, "detlinks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        outputs = [subprocess.run([sys.executable, "-c", IMPORT_STARTUP], env=env, check=True,
                                  capture_output=True, text=True).stdout.splitlines()
                   for _ in range(5)]
    for i, module in enumerate(STARTUP):
        seconds = statistics.median(float(out[i].split()[0]) for out in outputs)
        added = outputs[-1][i].split()[1:]
        own = [name for name in added if name.split(".")[0] == "detlinks"]
        other = [name for name in added if name.split(".")[0] != "detlinks"] or ["nothing more"]
        after = f" after {STARTUP[i - 1]}" if i else ""
        print(f"start-up: import {module}{after} {seconds * 1e3:.1f} ms (median of 5 "
              f"fresh interpreters, each compiling the package from source), "
              f"loads {' '.join(own)}; also loads {' '.join(other)}")


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
