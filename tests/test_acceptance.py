"""Acceptance suite: one test per exit criterion, exact integer equality
throughout (tolerance zero), one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion timings.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from detlinks import cache as cache_module
from detlinks.cache import CacheFile, cache_load, cache_store
from detlinks.grass_ring import (
    GrassSpec,
    SparseElement,
    mul,
    total_chern_quot,
    total_chern_sub,
)
from detlinks.links import (
    DetSpec,
    betti_smooth_complex_link,
    euler_complex_link,
    grass_betti,
    hilbert_burch_chi_table,
)
from detlinks.partitions import box_complement, partitions_in_box, weight
from detlinks.polar import compute_polar_profile
from detlinks.tensor_calculus import (
    QUOT_TENSOR,
    SUB_TENSOR,
    ProdSpec,
    chern_tensor,
    mul_prod,
    segre_tensor,
)

import reference_tables as ref
from conftest import spec_with_classes
from oracles import (
    chern_tensor_via_roots,
    duality_check,
    integrate,
    quotient_ring,
    schubert,
    schubert_to_presentation,
)


def check(number, label, budget_seconds, body):
    started = time.time()
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.time() - started
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.1f}s")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )


def test_criterion_1_polar_tables_small_matrices():
    def body():
        for n in range(2, 8):
            assert compute_polar_profile(2, n, 1).values == ref.padded_profile(
                ref.POLAR_2N_R1[n], 2, n, 1
            )
        for n in range(3, 9):
            assert compute_polar_profile(3, n, 1).values == ref.padded_profile(
                ref.POLAR_3N_R1[n], 3, n, 1
            )
            assert compute_polar_profile(3, n, 2).values == ref.padded_profile(
                ref.expected_3n_r2(n), 3, n, 2
            )
        for n in range(4, 7):
            assert compute_polar_profile(4, n, 1).values == ref.padded_profile(
                ref.POLAR_4N_R1[n], 4, n, 1
            )
            assert compute_polar_profile(4, n, 2).values == ref.padded_profile(
                ref.POLAR_4N_R2[n], 4, n, 2
            )
            assert compute_polar_profile(4, n, 3).values == ref.padded_profile(
                tuple(reversed(ref.POLAR_4N_R1[n])), 4, n, 3
            )
        assert compute_polar_profile(5, 5, 1).values == ref.padded_profile(
            ref.POLAR_5N_R1[5], 5, 5, 1
        )
        assert compute_polar_profile(5, 5, 2).values == ref.padded_profile(
            ref.POLAR_5N_R2[5], 5, 5, 2
        )
        assert compute_polar_profile(5, 5, 3).values == ref.padded_profile(
            tuple(reversed(ref.POLAR_5N_R2[5])), 5, 5, 3
        )
        assert compute_polar_profile(5, 5, 4).values == ref.padded_profile(
            tuple(reversed(ref.POLAR_5N_R1[5])), 5, 5, 4
        )

    check(1, "polar tables, small matrices", 120, body)


def test_criterion_2_hilbert_burch_rows():
    def body():
        t0 = time.time()
        for m in range(2, 6):
            assert compute_polar_profile(m, m + 1, m - 1).values == ref.padded_profile(
                ref.HILBERT_BURCH[m], m, m + 1, m - 1
            )
        small = time.time() - t0
        assert small < 30, f"m <= 5 took {small:.1f}s"
        t0 = time.time()
        assert compute_polar_profile(6, 7, 5).values == ref.padded_profile(
            ref.HILBERT_BURCH[6], 6, 7, 5
        )
        big = time.time() - t0
        assert big < 600, f"m = 6 took {big:.1f}s"

    check(2, "Hilbert-Burch rows m = 2..6", 700, body)


def test_criterion_3_duality():
    def body():
        for m in range(2, 6):
            for n in range(m, 7):
                for r in range(1, m):
                    assert duality_check(m, n, r).all_equal, (m, n, r)
        # rows where the printed right half contradicts itself: the two
        # computed values agree with each other and with the left half
        for n, overrides in ref.PRINTED_3N_R2_OVERRIDES.items():
            left = compute_polar_profile(3, n, 1).values
            right = compute_polar_profile(3, n, 2).values
            assert right[:5] == tuple(reversed(left[:5]))
            for k, printed in overrides.items():
                assert right[k] != printed, (
                    f"3x{n} k={k}: computed value agrees with the printed digit "
                    f"{printed}, which was expected to be a misprint"
                )
                assert right[k] == left[4 - k]

    check(3, "duality including misprinted rows", 120, body)


def test_criterion_4_euler_characteristics():
    def body():
        spec = DetSpec(3, 4, 3)
        assert euler_complex_link(spec, 6) == -7
        assert euler_complex_link(spec, 5) == -7  # full stratum sum, link singular
        rows = hilbert_burch_chi_table(4)
        expected_columns = [(1, 0, 0, 0), (3, -1, 2, 2), (6, -10, 17, -7),
                            (10, -30, 75, -101)]
        for mi, column in enumerate(expected_columns):
            got = tuple(rows[d][mi] for d in range(4))
            assert got == column, f"m = {mi + 1}"

    check(4, "Euler characteristics", 60, body)


def test_criterion_5_betti_profiles():
    def body():
        assert betti_smooth_complex_link(DetSpec(3, 4, 3), 6).betti == (1, 0, 1, 9)
        assert betti_smooth_complex_link(DetSpec(2, 3, 2), 0).betti == (1, 0, 1, 0)
        for m in range(1, 6):
            for n in range(m, 7):
                for s in range(2, m + 1):
                    spec = DetSpec(m, n, s)
                    for i in spec.smooth_range():
                        prof = betti_smooth_complex_link(spec, i)
                        assert prof.betti[prof.middle] >= 0, (spec, i)
                        assert (
                            sum((-1) ** k * b for k, b in enumerate(prof.betti))
                            == prof.chi
                        ), (spec, i)

    check(5, "Betti profiles of smooth links", 120, body)


def test_criterion_6_ring_oracle_equivalence():
    def body():
        for m in range(1, 9):
            for r in range(m + 1):
                spec = GrassSpec(r, m)
                oracle = quotient_ring(spec)
                assert oracle.graded_ranks == grass_betti(r, m)[::2], spec
                if m == 8 and r not in (3, 4):
                    continue  # m = 8 products: the factors of (7, 8, 3) and (7, 8, 4)
                basis = partitions_in_box(spec.r, spec.cols)
                polys = {lam: schubert_to_presentation(spec, lam) for lam in basis}
                reduced = {lam: oracle.reduce_poly(p) for lam, p in polys.items()}
                for lam in basis:
                    for mu in basis:
                        product = mul(
                            schubert(spec, lam),
                            schubert(spec, mu),
                        )
                        direct = oracle.reduce_poly(polys[lam] * polys[mu])
                        via = {}
                        for nu, c in product.coords.items():
                            for e, ce in reduced[nu].items():
                                via[e] = via.get(e, 0) + c * ce
                        assert direct == {e: c for e, c in via.items() if c}, (
                            spec, lam, mu,
                        )
                # Poincare pairing is a permutation matrix
                for lam in basis:
                    comp = box_complement(lam, spec.r, spec.cols)
                    for mu in basis:
                        if weight(mu) != spec.dim - weight(lam):
                            continue
                        pairing = integrate(
                            mul(
                                schubert(spec, lam),
                                schubert(spec, mu),
                            )
                        )
                        assert pairing == (1 if mu == comp else 0), (spec, lam, mu)

    check(6, "ring oracle equivalence m <= 8", 60, body)


def test_criterion_7_tensor_cross_validation():
    def body():
        specs = [
            ProdSpec(r, n, m)
            for r in (1, 2)
            for m in range(r, 6)
            for n in range(m, 6)
        ]
        for spec in specs:
            for bundle in (SUB_TENSOR, QUOT_TENSOR):
                production = chern_tensor(spec, bundle, spec.dim)
                validator = chern_tensor_via_roots(spec, bundle, spec.dim)
                for k in range(spec.dim + 1):
                    assert production[k] == validator[k], (spec, bundle, k)
        # Segre inversion for every series the polar suite touches
        polar_specs = {
            ProdSpec(r, n, m)
            for m in range(2, 6)
            for n in range(m, 7)
            for r in range(1, m)
        }
        for spec in polar_specs:
            for bundle in (SUB_TENSOR, QUOT_TENSOR):
                c = chern_tensor(spec, bundle, spec.dim)
                s = segre_tensor(spec, bundle, spec.dim)
                for k in range(1, spec.dim + 1):
                    acc = SparseElement(spec, {})
                    for j in range(k + 1):
                        acc = acc + mul_prod(c[j], s[k - j])
                    assert not acc.coords, (spec, bundle, k)

    check(7, "tensor-class cross-validation", 240, body)


class TestCriterion8Properties:
    """Non-table property suite.  The performance claims about very large
    parameters are environment-dependent and recorded informationally by
    scripts/benchmark.py, not gated here."""

    def test_whitney_relations(self):
        def body():
            for m in range(1, 8):
                for r in range(m + 1):
                    spec = GrassSpec(r, m)
                    product = mul(total_chern_sub(spec), total_chern_quot(spec))
                    assert product == schubert(spec, ()), spec

        check("8a", "Whitney relations m <= 7", 60, body)

    @settings(deadline=None, max_examples=60)
    @given(spec_with_classes(count=3, max_m=6))
    def test_randomized_commutativity_associativity(self, data):
        _, (a, b, c) = data
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_alternating_raw_signs(self):
        def body():
            for m in range(2, 6):
                for n in range(m, 7):
                    for r in range(1, m):
                        prof = compute_polar_profile(m, n, r)
                        assert all(
                            prof.raw_signs[k] == -prof.raw_signs[k + 1]
                            for k in range(len(prof.raw_signs) - 1)
                        ), (m, n, r)

        check("8c", "alternating raw sign pattern", 60, body)

    def test_top_link_is_multiplicity(self):
        def body():
            for m in range(1, 6):
                for n in range(m, 7):
                    for s in range(2, m + 1):
                        spec = DetSpec(m, n, s)
                        assert (
                            euler_complex_link(spec, spec.d - 1)
                            == compute_polar_profile(m, n, spec.r).values[0]
                        ), spec

        check("8d", "top-codimension link counts the multiplicity", 60, body)

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DETLINKS_CACHE", str(tmp_path))

        def body():
            cache = CacheFile()
            for m in range(2, 5):
                for r in range(1, m):
                    cache.put(compute_polar_profile(m, m + 1, r))
            cache_store(cache)
            assert cache_load().entries == cache.entries
            # and once more through the parser, not the text this store kept
            monkeypatch.setattr(cache_module, "_written", None)
            assert cache_load().entries == cache.entries

        check("8f", "cache round-trip identity", 60, body)

    def test_benchmark_harness_is_available(self):
        import importlib.util

        script = Path(__file__).parent.parent / "scripts" / "benchmark.py"
        assert script.exists()
        spec = importlib.util.spec_from_file_location("benchmark", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert hasattr(module, "main")
        print("[acceptance] criterion 8g (benchmark harness, informational): PASS")

    def test_benchmark_harness_fails_when_the_routes_disagree(self, monkeypatch, capsys):
        import importlib.util

        script = Path(__file__).parent.parent / "scripts" / "benchmark.py"
        spec = importlib.util.spec_from_file_location("benchmark", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "HARD_CELLS", [])
        assert module.main(["--max-hb", "2"]) == 0
        certify = module.certify_polar_profile

        def bumped(m, n, r):
            prof = certify(m, n, r)
            return prof._replace(values=(prof.values[0] + 1,) + prof.values[1:])

        monkeypatch.setattr(module, "certify_polar_profile", bumped)
        assert module.main(["--max-hb", "2"]) == 1
        assert "ROUTES DISAGREE" in capsys.readouterr().out

    def test_benchmark_certifies_with_every_certifier_memo_empty(self, monkeypatch, capsys):
        # every certify time is cold, also for a memo the certifier gains later
        import importlib.util

        from detlinks import grass_ring, tensor_calculus

        script = Path(__file__).parent.parent / "scripts" / "benchmark.py"
        spec = importlib.util.spec_from_file_location("benchmark", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        memos = [value for ring in (grass_ring, tensor_calculus)
                 for value in vars(ring).values() if hasattr(value, "cache_clear")]
        assert {memo.__name__ for memo in memos} >= {"_mul_basis", "_pieri", "_lascoux"}
        certify = module.certify_polar_profile
        certify(3, 4, 2)
        assert all(memo.cache_info().currsize for memo in memos)
        sizes = []

        def spy(m, n, r):
            sizes.append([memo.cache_info().currsize for memo in memos])
            return certify(m, n, r)

        monkeypatch.setattr(module, "certify_polar_profile", spy)
        assert module.run_cell(3, 4, 2)[2]
        assert sizes == [[0] * len(memos)]

    def test_benchmark_names_what_start_up_loads(self, capsys):
        import importlib.util

        script = Path(__file__).parent.parent / "scripts" / "benchmark.py"
        spec = importlib.util.spec_from_file_location("benchmark", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.startup()
        line = capsys.readouterr().out
        own, other = line.split("; also loads ")
        assert "detlinks.cli detlinks.errors" in own and "argparse" not in own
        assert "argparse" in other.split() and "dataclasses" not in other.split()

    @pytest.mark.parametrize("text", ["7,8", "9,8,3"])
    def test_benchmark_rejects_a_bad_cell(self, capsys, text):
        # two numbers, and r <= m <= n broken: a usage error, not a traceback
        import importlib.util

        script = Path(__file__).parent.parent / "scripts" / "benchmark.py"
        spec = importlib.util.spec_from_file_location("benchmark", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with pytest.raises(SystemExit) as exc:
            module.main(["--cell", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --cell: " in err

    def test_reproduced_tables_unchanged(self, tmp_path):
        # the digest perfbench/expected.json records as sweep_total
        digest = "e552350b46b81fc7d84188d4f0f787ee55eaf958b79828af53da64ae6f5b0087"

        def body():
            script = Path(__file__).parent.parent / "scripts" / "reproduce_tables.py"
            env = dict(os.environ, DETLINKS_CACHE=str(tmp_path))
            done = subprocess.run(
                [sys.executable, str(script)], env=env, capture_output=True, timeout=120
            )
            assert done.returncode == 0, done.stderr.decode()
            assert len(done.stdout) == 6951
            assert hashlib.sha256(done.stdout).hexdigest() == digest

        check("8h", "reproduce_tables.py output byte-identical", 120, body)

    @pytest.mark.parametrize("closed", ["at start", "after one line"])
    def test_reproduced_tables_survive_a_closed_pipe(self, tmp_path, closed):
        # ``reproduce_tables.py | head -1``: the reader goes away after the
        # first line, or before any; unbuffered, so the section titles meet
        # the closed pipe themselves, and the script still exits 0
        script = Path(__file__).parent.parent / "scripts" / "reproduce_tables.py"
        env = dict(os.environ, DETLINKS_CACHE=str(tmp_path), PYTHONUNBUFFERED="1")
        read_end, write_end = os.pipe()
        if closed == "at start":
            os.close(read_end)
        try:
            proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                    stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        if closed == "after one line":
            with os.fdopen(read_end, "rb") as reader:
                assert reader.readline() == b"## polar multiplicities of 2 x n matrices\n"
        err = proc.communicate(timeout=120)[1]
        assert (proc.returncode, err) == (0, b"")
