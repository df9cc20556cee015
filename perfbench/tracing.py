"""Spans recorded from outside the program, around calls into each layer.

Layers are named after the detlinks modules.  Each span records its name,
start, end and the span open when it began; a layer's time is the self
time of its spans, so nested layers are not counted twice and the layer
times plus the unaccounted remainder add up to the traced wall time.
Hooks replace module attributes, so they only see calls that go through
the names patched here; a hook whose target no longer exists is reported
and its layer reads zero.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Span names; the per-layer metric is the name plus "_s".
CHERN = "tensor_calculus.chern"
SEGRE = "tensor_calculus.segre"
INTEGRALS = "tensor_calculus.integrals"
PROFILE = "polar.profile"
CACHE_LOAD = "cache.load"
CACHE_STORE = "cache.store"
EULER = "links.euler"
BETTI = "links.betti"
CLI = "cli.self"
SPAN_NAMES = (CHERN, SEGRE, INTEGRALS, PROFILE, CACHE_LOAD, CACHE_STORE, EULER, BETTI, CLI)


class Tracer:
    """In-memory spans plus counters, summarised once the iteration ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.missing_hooks = []
        self._open = []
        self._counted_series = set()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def count_series(self, spec, bundle: str, *series):
        """Add the series' nonzero coordinates once per (spec, bundle)."""
        if (spec, bundle) not in self._counted_series:
            self._counted_series.add((spec, bundle))
            self.counts["tensor_calculus.series_terms"] += sum(map(count_terms, series))

    def patch(self, module, attr: str, make_wrapper):
        original = getattr(module, attr, None)
        if original is None:
            self.missing_hooks.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make_wrapper(original))

    def summary(self) -> dict:
        """Self time per span name, span counts, and time covered by root spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = Counter()
        covered = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - children)
            calls[name] += 1
            if parent is None:
                covered += end - start
        return {"self_s": self_s, "calls": dict(calls), "covered_s": covered}


def count_terms(series) -> int:
    """Nonzero coordinates over all terms of a CharSeries."""
    return sum(len(term.coords) for term in series.terms)


def install_layer_hooks(tracer: Tracer):
    """Wrap the calls the CLI and the polar layer make into other layers."""
    from detlinks import cache, cli, links, polar, tensor_calculus

    def split_series(segre_tensor):
        # segre_tensor builds the Chern series first; calling chern_tensor
        # before it splits the two phases without changing the work done.
        def traced(spec, bundle, up_to):
            with tracer.span(CHERN):
                chern = tensor_calculus.chern_tensor(spec, bundle, up_to)
            with tracer.span(SEGRE):
                segre = segre_tensor(spec, bundle, up_to)
            tracer.count_series(spec, bundle, chern, segre)
            return segre

        return traced

    def counting_get(get):
        def traced(self, *key):
            found = get(self, *key)
            tracer.counts["cache.lookups"] += 1
            tracer.counts["cache.hits"] += found is not None
            return found

        return traced

    tracer.patch(polar, "segre_tensor", split_series)
    tracer.patch(polar, "mul_prod", lambda fn: tracer.wrap(INTEGRALS, fn))
    tracer.patch(polar, "integrate_prod", lambda fn: tracer.wrap(INTEGRALS, fn))
    for module in (polar, cli):
        tracer.patch(module, "compute_polar_profile", lambda fn: tracer.wrap(PROFILE, fn))
    tracer.patch(cli, "cache_load", lambda fn: tracer.wrap(CACHE_LOAD, fn))
    tracer.patch(cli, "cache_store", lambda fn: tracer.wrap(CACHE_STORE, fn))
    tracer.patch(cache.CacheFile, "get", counting_get)
    tracer.patch(cli, "euler_complex_link", lambda fn: tracer.wrap(EULER, fn))
    tracer.patch(links, "hilbert_burch_chi_table", lambda fn: tracer.wrap(EULER, fn))
    tracer.patch(cli, "betti_smooth_complex_link", lambda fn: tracer.wrap(BETTI, fn))


def ring_cache_counts() -> dict:
    """Exact structure-constant cache counts from the grass_ring lru_caches."""
    from detlinks import grass_ring

    out = {}
    for attr, prefix in (("_mul_basis", "mul_basis"), ("_pieri", "pieri")):
        info = getattr(getattr(grass_ring, attr, None), "cache_info", None)
        stats = info() if info else None
        out[f"{prefix}_hits"] = stats.hits if stats else 0
        out[f"{prefix}_misses"] = stats.misses if stats else 0
    return out
