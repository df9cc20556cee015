"""The benchmark's workloads and the code that runs one iteration of each.

A seed only permutes the order of a fixed set of operations, so every seed
does the same work and must produce the same outputs.  An iteration runs in
a fresh process with its own DETLINKS_CACHE (see worker.py), so neither the
user's cache nor the process-wide memos carry over between iterations.

* hard_cells: compute_polar_profile on the hardest cells of the tables, no
  cache.  Deep Chern/Segre series on a few big boxes: tensor_calculus does
  nearly all the work.  (7, 8, 4) is left out to fit the run length; the
  square-ish 7 x 8 and the elongated 6 x 12 shapes are both kept.
* table_sweep: the six sections of scripts/reproduce_tables.py through
  cli.main against an empty cache: 91 small and medium cells, many distinct
  boxes, per-cell overhead and cache stores.
* warm_queries: about 60 CLI commands against a cache already holding those
  91 cells, so nothing is computed and cache load, links sums and rendering
  dominate.
"""

from __future__ import annotations

import io
import os
import random
import resource
from contextlib import redirect_stdout
from pathlib import Path

from checks import cell_key
from pace import Pacer
from tracing import (
    CACHE_LOAD,
    CACHE_STORE,
    CHERN,
    CLI,
    BETTI,
    EULER,
    INTEGRALS,
    PROFILE,
    SEGRE,
    Tracer,
    install_layer_hooks,
    ring_cache_counts,
)

HARD_CELLS = ((7, 8, 3), (6, 12, 3))

# The sections of scripts/reproduce_tables.py, pinned here so the workload
# and its recorded outputs stay fixed even if that script changes.
SWEEP_SECTIONS = (
    ("polar multiplicities of 2 x n matrices",
     (("polar", "--m", "2", "--n", "2..7", "--r", "1"),)),
    ("polar multiplicities of 3 x n matrices",
     (("polar", "--m", "3", "--n", "3..20", "--r", "1..2"),)),
    ("polar multiplicities of 4 x n matrices (ranks 1..3)",
     (("polar", "--m", "4", "--n", "4..12", "--r", "1..3"),)),
    ("polar multiplicities of 5 x n matrices (ranks 1..4), n <= 8",
     (("polar", "--m", "5", "--n", "5..8", "--r", "1..4"),)),
    ("polar multiplicities of the (m, m+1) presentation family, m <= 6",
     tuple(("polar", "--m", str(m), "--n", str(m + 1), "--r", str(m - 1))
           for m in range(1, 7))),
    ("Euler characteristics of the smooth links of the presentation family",
     (("euler", "--hilbert-burch", "--max-m", "6"),)),
)
HB_MAX_M = 6
SWEEP_CELLS = 91

FORMATS = ("md", "csv", "json")
# Every cell these commands need is one of the sweep's 91 cells.
_WARM_POLAR = (
    ("2", "2..7", "1"), ("3", "3..20", "1..2"), ("4", "4..12", "1..3"),
    ("5", "5..8", "1..4"), ("3", "4..9", "2"), ("4", "5..8", "3"),
    ("2..5", "6", "1"), ("6", "7", "1..5"),
)
_WARM_LINKS = (
    (2, 3, 2), (2, 7, 2), (3, 4, 3), (3, 8, 2), (3, 12, 3), (3, 20, 3),
    (4, 4, 3), (4, 5, 4), (4, 9, 3), (4, 12, 4), (5, 5, 5), (5, 6, 5),
    (5, 8, 4), (6, 7, 6), (4, 10, 2),
)


def _link_ranges(m: int, n: int, s: int) -> tuple:
    """All codimensions and the smooth ones, as CLI ranges."""
    r = s - 1
    d = (m + n) * r - r * r
    sing = (m + n) * (r - 1) - (r - 1) ** 2
    return f"0..{d - 1}", f"{max(sing, 0)}..{d - 1}"


def warm_commands() -> tuple:
    commands = []
    for m, n, r in _WARM_POLAR:
        for fmt in FORMATS:
            commands.append(("polar", "--m", m, "--n", n, "--r", r, "--format", fmt))
    for i, (m, n, s) in enumerate(_WARM_LINKS):
        every, smooth = _link_ranges(m, n, s)
        spec = ("--m", str(m), "--n", str(n), "--s", str(s))
        commands.append(("euler", *spec, "--codim", every, "--format", FORMATS[i % 3]))
        commands.append(("betti", *spec, "--codim", smooth, "--format", FORMATS[(i + 1) % 3]))
    for max_m in range(2, HB_MAX_M + 1):
        commands.append(("euler", "--hilbert-burch", "--max-m", str(max_m),
                         "--format", FORMATS[max_m % 3]))
    commands.append(("cache", "show"))
    return tuple(commands)


def command_name(argv) -> str:
    return " ".join(argv)


def call_cli(argv, tracer: Tracer | None = None) -> tuple:
    """(exit code, stdout text, error) of one in-process cli.main call."""
    from detlinks import cli

    buf = io.StringIO()
    error = None
    try:
        with redirect_stdout(buf):
            if tracer is None:
                code = cli.main(list(argv))
            else:
                with tracer.span(CLI):
                    code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), error


def output_problem(checker, kind: str, name: str, code, text: str, error) -> str | None:
    """Why one CLI call failed: a crash, a nonzero exit or a wrong stdout."""
    if error:
        return f"{name!r}: {error}"
    if code != 0:
        return f"{name!r}: exit code {code}"
    return checker.output_error(kind, name, text)


def sweep_text(outputs: dict) -> str:
    """The reproduce_tables.py stdout, assembled in its own section order."""
    parts = []
    for title, invocations in SWEEP_SECTIONS:
        parts.append(f"## {title}\n\n")
        parts.extend(outputs[command_name(argv)] for argv in invocations)
        parts.append("\n")
    return "".join(parts)


class Iteration:
    """Timings, operation outcomes and (when traced) layer data of one iteration."""

    def __init__(self, tracer: Tracer | None, pacer: Pacer | None = None):
        self.tracer = tracer
        self.pacer = pacer or Pacer()
        self.clock = self.pacer.clock
        self.ops = []  # (start, end) of each operation, on self.clock
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.stdout_bytes = 0
        self._wall0 = self.clock()
        self._cpu0 = self.pacer.cpu_clock()

    def fail(self, message: str, ops: int = 1):
        self.failed += ops
        if len(self.errors) < 10:
            self.errors.append(message)

    def finish(self) -> dict:
        wall = self.clock() - self._wall0
        out = {
            "wall_s": wall,
            "cpu_s": self.pacer.cpu_clock() - self._cpu0,
            "speed": self.pacer.speed(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": [end - start for start, end in self.ops],
            "op_speeds": [self.pacer.speed_around(*op) for op in self.ops],
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }
        if self.tracer is not None:
            summary = self.tracer.summary()
            out["layers_s"] = summary["self_s"]
            out["unaccounted_s"] = wall - summary["covered_s"]
            calls = summary["calls"]
            counts = {
                "tensor_calculus.series_terms": 0,
                "cache.lookups": 0,
                "cache.hits": 0,
                **self.tracer.counts,
                **{f"grass_ring.{k}": v for k, v in ring_cache_counts().items()},
                "polar.cells_computed": calls.get(PROFILE, 0),
                "cache.loads": calls.get(CACHE_LOAD, 0),
                "cache.stores": calls.get(CACHE_STORE, 0),
                "cache.file_bytes": _cache_file_bytes(),
                "links.calls": calls.get(EULER, 0) + calls.get(BETTI, 0),
                "cli.stdout_bytes": self.stdout_bytes,
            }
            out["counts"] = counts
            out["missing_hooks"] = self.tracer.missing_hooks
            out["spans"] = self.tracer.spans
        return out


def _cache_file_bytes() -> int:
    directory = Path(os.environ["DETLINKS_CACHE"])
    if not directory.is_dir():
        return 0
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def run_hard_cells(rng, checker, tracer=None, pacer=None, cells=HARD_CELLS) -> dict:
    """compute_polar_profile per cell; traced, the benchmark drives the
    Chern, Segre and integral calls itself and checks the signed integrals
    against compute_polar_profile's profile."""
    from detlinks import polar, tensor_calculus as tc

    order = list(cells)
    rng.shuffle(order)
    it = Iteration(tracer, pacer)
    for m, n, r in order:
        it.attempted += 1
        start = it.clock()
        try:
            if tracer is None:
                prof = polar.compute_polar_profile(m, n, r)
                errors = []
            else:
                spec = tc.ProdSpec(r, n, m)
                big_k = spec.dim
                with tracer.span(CHERN):
                    cherns = [tc.chern_tensor(spec, b, big_k)
                              for b in (tc.QUOT_TENSOR, tc.SUB_TENSOR)]
                with tracer.span(SEGRE):
                    s_quot, s_sub = (tc.segre_tensor(spec, b, big_k)
                                     for b in (tc.QUOT_TENSOR, tc.SUB_TENSOR))
                with tracer.span(INTEGRALS):
                    raw = [tc.integrate_prod(tc.mul_prod(s_quot[k], s_sub[big_k - k]))
                           for k in range(big_k + 1)]
                for chern, segre in zip(cherns, (s_quot, s_sub)):
                    tracer.count_series(spec, chern.bundle, chern, segre)
                prof = polar.compute_polar_profile(m, n, r)
                prefactor = (-1) ** ((m + n) * r - r * r - 1)
                signed = [s * v for s, v in zip(prof.raw_signs, prof.values)]
                errors = [] if [prefactor * v for v in raw] == signed else [
                    f"{m},{n},{r}: driven integrals differ from compute_polar_profile"]
        except Exception as exc:
            it.ops.append((start, it.clock()))
            it.fail(f"{m},{n},{r}: {type(exc).__name__}: {exc}")
            continue
        errors += checker.profile_errors(m, n, r, prof.values, prof.raw_signs)
        it.ops.append((start, it.clock()))
        if errors:
            it.fail("; ".join(errors))
    return it.finish()


def _time_cells(log: list, clock):
    """Record (cell, start, end) for every compute_polar_profile call."""
    from detlinks import cli, polar

    def make(fn):
        def timed(m, n, r):
            start = clock()
            try:
                return fn(m, n, r)
            finally:
                log.append(((m, n, r), start, clock()))

        return timed

    for module in (cli, polar):
        if hasattr(module, "compute_polar_profile"):
            module.compute_polar_profile = make(module.compute_polar_profile)


def run_table_sweep(rng, checker, tracer=None, pacer=None) -> dict:
    """The reproduce_tables.py sections, in a seed-shuffled section order."""
    from detlinks.cache import cache_load

    sections = list(SWEEP_SECTIONS)
    rng.shuffle(sections)
    it = Iteration(tracer, pacer)
    cell_log = []
    _time_cells(cell_log, it.clock)
    outputs, cells_of, bad_cells = {}, {}, set()
    for _, invocations in sections:
        for argv in invocations:
            name = command_name(argv)
            first = len(cell_log)
            code, text, error = call_cli(argv, tracer)
            cells_of[name] = [cell for cell, _, _ in cell_log[first:]]
            outputs[name] = text
            it.stdout_bytes += len(text.encode())
            problem = output_problem(checker, "sweep_outputs", name, code, text, error)
            if problem is None and argv[:2] == ("euler", "--hilbert-burch"):
                problem = "; ".join(checker.euler_hb_errors(text, HB_MAX_M)) or None
            if problem:
                bad_cells.update(cell_key(*cell) for cell in cells_of[name])
                it.fail(problem, ops=0)
    it.ops = [(start, end) for _, start, end in cell_log]
    cached = cache_load().entries
    expected_cells = checker.expected["sweep_cells"]
    for key in expected_cells:
        prof = cached.get(key)
        m, n, r = (int(x) for x in key.split(","))
        errors = (checker.profile_errors(m, n, r, prof.values, prof.raw_signs)
                  if prof is not None else [f"{key}: missing from the cache"])
        if errors:
            bad_cells.add(key)
            it.fail("; ".join(errors), ops=0)
    text = sweep_text(outputs)
    if checker.output_error("sweep_total", "reproduce_tables", text):
        it.fail("assembled reproduce_tables output differs from the recorded output", ops=0)
    it.attempted = len(expected_cells)
    # A wrong output that no computed cell explains fails the whole sweep.
    it.failed = len(bad_cells.intersection(expected_cells)) or (it.attempted if it.errors else 0)
    return it.finish()


def run_warm_queries(rng, checker, tracer=None, pacer=None) -> dict:
    """A seed-shuffled order of the warm command set, one cli.main call each."""
    commands = list(warm_commands())
    rng.shuffle(commands)
    it = Iteration(tracer, pacer)
    for argv in commands:
        it.attempted += 1
        start = it.clock()
        code, text, error = call_cli(argv, tracer)
        it.ops.append((start, it.clock()))
        it.stdout_bytes += len(text.encode())
        problem = output_problem(checker, "warm_outputs", command_name(argv), code, text, error)
        if problem:
            it.fail(problem)
    return it.finish()


def fill_cache() -> dict:
    """Run the sweep once, output discarded, to fill DETLINKS_CACHE; paced
    like an iteration."""
    pacer = Pacer()
    pacer.start()
    try:
        start = pacer.clock()
        for _, invocations in SWEEP_SECTIONS:
            for argv in invocations:
                code, _, error = call_cli(argv)
                if code != 0:
                    raise RuntimeError(
                        f"filling the cache failed on {command_name(argv)!r}: {error}")
        fill_s = pacer.clock() - start
    finally:
        pacer.stop()
    return {"fill_s": fill_s, "speed": pacer.speed()}


RUNNERS = {
    "hard_cells": run_hard_cells,
    "table_sweep": run_table_sweep,
    "warm_queries": run_warm_queries,
}


def run_iteration(workload: str, seed: str, checker, traced: bool) -> dict:
    """Untraced iterations are paced (see pace.py); traced ones are not."""
    if traced:
        tracer = Tracer()
        install_layer_hooks(tracer)
        return RUNNERS[workload](random.Random(seed), checker, tracer)
    pacer = Pacer()
    pacer.start()
    try:
        return RUNNERS[workload](random.Random(seed), checker, pacer=pacer)
    finally:
        pacer.stop()
