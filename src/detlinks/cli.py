"""Command-line tabulation of polar multiplicities and link invariants.

Subcommands: ``polar``, ``euler``, ``betti``, ``cache``.  Numeric flags
accept either a single value or an inclusive range ``a..b``.  Output
formats: ``csv`` (long form, LF line endings, integers only), ``md``
(tables laid out like the published ones: k across, sizes down) and
``json`` (polar values and Betti numbers as decimal strings; Euler
characteristics, ``middle`` and the Hilbert-Burch ``rows_d`` as JSON
integers).  Rendering is deterministic:
the same request produces byte-identical output no matter what the cache
holds.

Exit codes: 0 success, 1 I/O failure of ``cache clear`` or of writing the
output (a full disk, say), or no cache directory for ``cache path`` and
``cache clear`` (no $DETLINKS_CACHE, $XDG_CACHE_HOME or home directory; the
other commands then warn, compute and store nothing), 2 usage, 3 domain
error (for example a non-smooth link), 4 internal consistency failure (a
computed profile failing a closed form or holding a negative value, an
inexact Bott division, a --verify mismatch, a negative middle Betti number).
A reader that closes stdout early does not change the exit code: the rest
of the output is discarded.  An unwritable or closed stderr drops the
warning and error lines and changes neither the exit code nor stdout,
buffered or not: every write to either stream goes through
``errors.write``, and ``main`` opens /dev/null for a stderr closed at start.
A stream that refuses argparse's help or usage text does not change its
exit code either: 0 for help, 2 for usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import links as links_mod
from . import polar as polar_mod
from .cache import CacheFile, cache_load, cache_path, cache_store
from .errors import ConsistencyError, DomainError, report, write
from .links import DetSpec, betti_smooth_complex_link, euler_complex_link
from .polar import certify_polar_profile, compute_polar_profile

FORMATS = ("csv", "md", "json")


def _parse_range(text: str) -> range:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number or a..b range: {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return range(lo, hi + 1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


class _UsageError(Exception):
    """Flag combinations argparse cannot express declaratively."""


class _OutputError(Exception):
    """stdout refused a command's output for a reason other than a closed pipe."""


def _emit(text: str):
    """Write a command's output through ``errors.write``, so that a reader
    that closed the pipe is seen here and not at interpreter exit.  Every
    store is done before a command renders, so a closed stdout is no
    failure: the rest of the output goes to /dev/null, and a stdout closed at
    start takes none.  Any other failed write (a full disk) sends the rest
    there too, so that exit prints nothing more, and raises ``_OutputError``."""
    exc = write(sys.stdout, text if text.endswith("\n") else text + "\n")
    if exc is not None and not isinstance(exc, BrokenPipeError):
        raise _OutputError(exc)


def _md_table(header: list, rows: list) -> str:
    lines = ["| " + " | ".join(str(h) for h in header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(x) for x in row) + " |")
    return "\n".join(lines) + "\n"


def _csv(header: list, rows: list) -> str:
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# profile gathering through the persistent cache
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _check_served(prof):
    """Run ``polar._check_closed_forms`` on a profile served from the cache,
    once per process for each distinct profile.  The memo is keyed on the
    whole profile, (m, n, r) and values, which ``cache._values`` builds as
    ints, so an edited entry never hits a clean one; a failing profile
    raises ``ConsistencyError`` and so is never memoized.  Computed profiles
    are checked by ``polar._profile`` and never come here."""
    polar_mod._check_closed_forms(prof.m, prof.n, prof.r, prof.values)


def _passes_closed_forms(prof) -> bool:
    """Whether a cache entry passes ``_check_served``; a failing one is reported."""
    try:
        _check_served(prof)
    except ConsistencyError as exc:
        key = CacheFile.key(prof.m, prof.n, prof.r)
        report("warning", f"dropping cache entry {key!r}: {exc}")
        return False
    return True


def _gather_profiles(cells, verify: bool, jobs: int):
    """Fetch profiles for the requested cells, consulting and updating the
    persistent cache, and return the lookup (m, n, r) -> PolarProfile over
    exactly those cells.  The command renders it or passes it to ``links``,
    so a served entry is trusted within this command only.  A served entry
    that fails the closed forms of ``polar._check_closed_forms`` is dropped
    with a warning and recomputed.  With verify=True every cell is
    recomputed through the independent Schubert route and compared with its
    cache entry, or on a cache miss with the production route; a mismatch
    is a consistency failure and stores nothing."""
    out = {}

    def lookup(m, n, r):
        return out[m, n, r]

    if not cells:
        return lookup
    cache = cache_load()
    need = {}  # cell -> the cache entry to compare with, or None to store it
    for cell in cells:
        cached = cache.get(*cell)
        if not verify and cached is not None and _passes_closed_forms(cached):
            out[cell] = cached
        else:
            need[cell] = cached if verify else None
    route = certify_polar_profile if verify else compute_polar_profile
    workers = min(jobs, len(need))
    if workers > 1:  # a fork pool starts all at once: one worker per CPU this process may use
        workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1)
    if workers > 1:
        # imported here: it pulls in multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            profiles = list(pool.map(route, *zip(*need)))
    else:
        profiles = [route(*cell) for cell in need]
    for (cell, cached), prof in zip(need.items(), profiles):
        if cached is None:
            if verify:
                production = compute_polar_profile(*cell)
                if production != prof:
                    raise ConsistencyError(
                        f"profile {CacheFile.key(*cell)} differs between the routes: "
                        f"production {production.values}, certifier {prof.values}"
                    )
            cache.put(prof)
        elif cached != prof:
            raise ConsistencyError(
                f"cache entry {CacheFile.key(*cell)} does not match "
                f"recomputation: cached {cached.values}, got {prof.values}"
            )
        out[cell] = prof
    if None in need.values():
        cache_store(cache)
    return lookup


# ---------------------------------------------------------------------------
# polar
# ---------------------------------------------------------------------------

def _nonzero_width(profiles) -> int:
    width = 1
    for prof in profiles:
        nz = [k for k, v in enumerate(prof.values) if v]
        width = max(width, nz[-1] + 1)
    return width


def cmd_polar(args) -> int:
    order = sorted((m, n, r) for r in args.r for m in args.m for n in args.n)
    for cell in order:  # a rejected request does no work
        polar_mod._validate_params(*cell)
    profile = _gather_profiles(order, args.verify, args.jobs)
    if args.format == "csv":
        rows = []
        for m, n, r in order:
            prof = profile(m, n, r)
            rows.extend((m, n, r, k, v) for k, v in enumerate(prof.values))
        _emit(_csv(["m", "n", "r", "k", "e"], rows))
    elif args.format == "json":
        payload = [
            {
                "m": m,
                "n": n,
                "r": r,
                "e": [str(v) for v in profile(m, n, r).values],
            }
            for m, n, r in order
        ]
        _emit(json.dumps({"kind": "polar", "entries": payload}, indent=1))
    else:
        chunks = []
        for r in sorted({c[2] for c in order}):
            group = [c for c in order if c[2] == r]
            width = _nonzero_width(profile(*c) for c in group)
            header = [f"size \\ k (r={r})"] + list(range(width))
            rows = []
            for m, n, _ in group:
                prof = profile(m, n, r)
                rows.append([f"{m} x {n}"] + [prof.value(k) for k in range(width)])
            chunks.append(_md_table(header, rows))
        _emit("\n".join(chunks))
    return 0


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------

def _gather_strata(spec: DetSpec, codims: range, verify: bool, jobs: int,
                   smooth: bool = False):
    """The ``_gather_profiles`` lookup over the strata the requested links
    sum over.  Every requested codimension is checked first, so a rejected
    request does no work; the lowest one's strata include those of every
    higher one."""
    for i in codims:
        spec.check_codim(i, smooth)
    cells = [(spec.m, spec.n, rank) for rank in links_mod.link_strata(spec, codims.start)]
    return _gather_profiles(cells, verify, jobs)


def cmd_euler(args) -> int:
    spec_flags = (args.m, args.n, args.s, args.codim)
    if args.hilbert_burch != (args.max_m is not None):
        raise _UsageError("--hilbert-burch and --max-m go together")
    if args.hilbert_burch:
        if any(flag is not None for flag in spec_flags):
            raise _UsageError("--hilbert-burch takes no --m, --n, --s or --codim")
        cells = [(m, m + 1, r) for m in range(2, args.max_m + 1) for r in range(1, m)]
        profile = _gather_profiles(cells, args.verify, args.jobs)
        rows = links_mod.hilbert_burch_chi_table(args.max_m, profile)
        ms = list(range(1, args.max_m + 1))
        if args.format == "csv":
            flat = [(d, m, rows[d][m - 1]) for d in range(4) for m in ms]
            _emit(_csv(["d", "m", "chi"], flat))
        elif args.format == "json":
            payload = {"kind": "euler-hilbert-burch", "columns_m": ms, "rows_d": rows}
            _emit(json.dumps(payload, indent=1))
        else:
            table_rows = [[d] + rows[d] for d in range(4)]
            _emit(_md_table(["d \\ m"] + ms, table_rows))
        return 0
    if any(flag is None for flag in spec_flags):
        raise _UsageError("euler needs --m, --n, --s and --codim (or --hilbert-burch)")
    spec = DetSpec(args.m, args.n, args.s)
    profile = _gather_strata(spec, args.codim, args.verify, args.jobs)
    values = [(i, euler_complex_link(spec, i, profile)) for i in args.codim]
    if args.format == "csv":
        rows = [(spec.m, spec.n, spec.s, i, chi) for i, chi in values]
        _emit(_csv(["m", "n", "s", "i", "chi"], rows))
    elif args.format == "json":
        payload = {
            "kind": "euler",
            "m": spec.m,
            "n": spec.n,
            "s": spec.s,
            "chi": {str(i): chi for i, chi in values},
        }
        _emit(json.dumps(payload, indent=1))
    else:
        _emit(_md_table(["i", "chi"], [list(v) for v in values]))
    return 0


# ---------------------------------------------------------------------------
# betti
# ---------------------------------------------------------------------------

def cmd_betti(args) -> int:
    spec = DetSpec(args.m, args.n, args.s)
    profile = _gather_strata(spec, args.codim, args.verify, args.jobs, smooth=True)
    profiles = [betti_smooth_complex_link(spec, i, profile) for i in args.codim]
    if args.format == "csv":
        rows = []
        for prof in profiles:
            rows.extend(
                (spec.m, spec.n, spec.s, prof.codim, k, b)
                for k, b in enumerate(prof.betti)
            )
        _emit(_csv(["m", "n", "s", "i", "k", "b"], rows))
    elif args.format == "json":
        payload = {
            "kind": "betti",
            "m": spec.m,
            "n": spec.n,
            "s": spec.s,
            "links": [
                {
                    "i": prof.codim,
                    "chi": prof.chi,
                    "middle": prof.middle,
                    "betti": [str(b) for b in prof.betti],
                    "torsion_status": prof.torsion_status,
                }
                for prof in profiles
            ],
        }
        _emit(json.dumps(payload, indent=1))
    else:
        width = max(len(p.betti) for p in profiles)
        header = ["i \\ b_k"] + list(range(width))
        rows = []
        for prof in profiles:
            padded = list(prof.betti) + [""] * (width - len(prof.betti))
            rows.append([prof.codim] + padded)
        _emit(_md_table(header, rows))
    return 0


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cmd_cache(args) -> int:
    if args.action == "show":
        rows = [
            (key, len(prof.values), str(prof.values[0]))
            for key, prof in sorted(cache_load().entries.items())
            if _passes_closed_forms(prof)
        ]
        _emit(_md_table(["entry (m,n,r)", "length", "multiplicity"], rows))
        return 0
    try:
        path = cache_path()
    except OSError as exc:
        report("error", exc)
        return 1
    if args.action == "path":
        _emit(str(path))
        return 0
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        report("error", f"could not clear the cache: {exc}")
        return 1
    _emit(f"cleared {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detlinks",
        description="exact polar multiplicities and link invariants of "
        "generic determinantal varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=FORMATS, default="md")
        p.add_argument("--verify", action="store_true",
                       help="recompute every profile this command touches through the "
                       "independent Schubert route and check it against the cache, "
                       "or against the production route where the cache has no entry")
        p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="worker processes for independent table cells, one per CPU at most")

    p_polar = sub.add_parser("polar", help="polar multiplicity tables")
    p_polar.add_argument("--m", type=_parse_range, required=True)
    p_polar.add_argument("--n", type=_parse_range, required=True)
    p_polar.add_argument("--r", type=_parse_range, required=True)
    common(p_polar)
    p_polar.set_defaults(func=cmd_polar)

    p_euler = sub.add_parser("euler", help="Euler characteristics of complex links")
    p_euler.add_argument("--m", type=int)
    p_euler.add_argument("--n", type=int)
    p_euler.add_argument("--s", type=int)
    p_euler.add_argument("--codim", type=_parse_range)
    p_euler.add_argument("--hilbert-burch", action="store_true",
                         help="table for the (m, m+1, m) family")
    p_euler.add_argument("--max-m", type=int)
    common(p_euler)
    p_euler.set_defaults(func=cmd_euler)

    p_betti = sub.add_parser("betti", help="Betti vectors of smooth complex links")
    p_betti.add_argument("--m", type=int, required=True)
    p_betti.add_argument("--n", type=int, required=True)
    p_betti.add_argument("--s", type=int, required=True)
    p_betti.add_argument("--codim", type=_parse_range, required=True)
    common(p_betti)
    p_betti.set_defaults(func=cmd_betti)

    p_cache = sub.add_parser("cache", help="inspect or clear the profile cache")
    p_cache.add_argument("action", nargs="?", default="show",
                         choices=("show", "clear", "path"))
    p_cache.set_defaults(func=cmd_cache)

    return parser


# built once: building it took over half of each command served from the cache
_PARSER = build_parser()


def main(argv=None) -> int:
    if sys.stderr is None:  # argparse would print its usage errors to stdout
        sys.stderr = open(os.devnull, "w")
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit:
        # argparse's help and usage text sits in the buffers; a stream that
        # refuses it must not fail again at interpreter exit
        write(sys.stdout, "")
        write(sys.stderr, "")
        raise
    try:
        return args.func(args)
    except _UsageError as exc:
        report("usage error", exc)
        return 2
    except DomainError as exc:
        report("error", exc)
        return 3
    except ConsistencyError as exc:
        report("consistency failure", exc)
        return 4
    except _OutputError as exc:
        report("error", f"could not write the output: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
