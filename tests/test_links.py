import pytest

from detlinks.errors import DomainError
from detlinks.grass_ring import GrassSpec
from detlinks.links import (
    DetSpec,
    betti_smooth_complex_link,
    egz_factor,
    euler_complex_link,
    grass_betti,
    hilbert_burch_chi_table,
)
from detlinks.polar import compute_polar_profile

import reference_tables as ref
from oracles import euler_step, quotient_ring

M343 = DetSpec(3, 4, 3)


class TestDetSpec:
    def test_derived_quantities(self):
        assert M343.r == 2
        assert M343.d == 10
        assert M343.sing_dim == 6
        assert M343.smooth_range() == range(6, 10)

    def test_validation(self):
        with pytest.raises(DomainError):
            DetSpec(3, 2, 2)
        with pytest.raises(DomainError):
            DetSpec(3, 4, 0)
        with pytest.raises(DomainError):
            DetSpec(3, 4, 4)

    def test_check_codim(self):
        for i in range(10):
            M343.check_codim(i)
        for i in range(6, 10):
            M343.check_codim(i, smooth=True)
        for i in (-1, 10):
            with pytest.raises(DomainError, match=rf"^codimension {i} outside 0\.\.9 for "
                               r"DetSpec\(m=3, n=4, s=3\)$"):
                M343.check_codim(i, smooth=True)
        with pytest.raises(DomainError, match=r"^link not smooth at codimension 5 "):
            M343.check_codim(5, smooth=True)


class TestLinkChiSum:
    """The link Euler characteristics of a germ with s >= 2 sum to mn.

    Let Y_i be the projectivized slice of the germ by a generic plane of
    codimension i: a hyperplane section of Y_(i-1), and empty at i = d.  The
    germ is a cone, so its codimension-i complex link, the Milnor fiber of a
    generic linear function on the slice, is the affine part L^i = Y_i minus
    Y_(i+1), and chi(L^i) = chi(Y_i) - chi(Y_(i+1)).  The sum over i < d
    telescopes to chi(Y_0), Y_0 = P(rank <= s - 1 locus).  The torus fixes
    only the mn matrix units of P(C^(m x n)), all of rank 1 <= s - 1, so
    chi(Y_0) = mn."""

    GERMS = [DetSpec(m, n, s) for m in range(2, 7) for n in range(m, m + 4)
             for s in range(2, m + 1)]

    def test_sum_over_the_codimensions_is_mn(self):
        assert len(self.GERMS) == 60
        wrong = [spec for spec in self.GERMS
                 if sum(euler_complex_link(spec, i) for i in range(spec.d)) != spec.m * spec.n]
        assert wrong == []


class TestTransverseLinkFactors:
    def test_worked_factor(self):
        assert egz_factor(M343, 1) == -1

    def test_open_stratum_is_one(self):
        for spec in (M343, DetSpec(2, 3, 2), DetSpec(4, 6, 2)):
            assert egz_factor(spec, spec.s - 1) == 1

    def test_2x3_origin(self):
        # chi of the classical link of the rank-1 locus in 2x3 matrices is 2
        assert egz_factor(DetSpec(2, 3, 2), 0) == -1

    def test_range(self):
        with pytest.raises(DomainError):
            egz_factor(M343, 3)


class TestEulerCharacteristic:
    def test_smooth_threefold_link(self):
        assert euler_complex_link(M343, 6) == -7

    def test_singular_fourfold_link_full_stratum_sum(self):
        assert euler_complex_link(M343, 5) == -7

    def test_top_codimension_is_multiplicity(self):
        assert euler_complex_link(M343, 9) == 6

    def test_multiplicity_identity_sweep(self):
        for m in range(1, 5):
            for n in range(m, 6):
                for s in range(2, m + 1):
                    spec = DetSpec(m, n, s)
                    assert euler_complex_link(spec, spec.d - 1) == compute_polar_profile(
                        m, n, spec.r
                    ).values[0], spec

    def test_smooth_shortcut_equals_stratum_sum(self):
        # in the smooth range only the open stratum can contribute
        for spec in (M343, DetSpec(2, 3, 2), DetSpec(4, 5, 3), DetSpec(3, 5, 2)):
            prof = compute_polar_profile(spec.m, spec.n, spec.r)
            for i in spec.smooth_range():
                shortcut = sum(
                    (-1) ** k * prof.value(k) for k in range(spec.d - i)
                )
                assert euler_complex_link(spec, i) == shortcut, (spec, i)

    def test_range(self):
        with pytest.raises(DomainError):
            euler_complex_link(M343, 10)
        with pytest.raises(DomainError):
            euler_complex_link(M343, -1)


class TestEulerStep:
    def test_cancellation_at_five(self):
        assert euler_step(M343, 5) == 0

    def test_step_matches_difference_everywhere(self):
        for m in range(1, 5):
            for n in range(m, 6):
                for s in range(2, m + 1):
                    spec = DetSpec(m, n, s)
                    for i in range(spec.d - 1):
                        expected = euler_complex_link(spec, i) - euler_complex_link(
                            spec, i + 1
                        )
                        assert euler_step(spec, i) == expected, (spec, i)

    def test_penultimate_step(self):
        spec = DetSpec(2, 3, 2)
        i = spec.d - 2
        expected = euler_complex_link(spec, i) - compute_polar_profile(2, 3, 1).values[0]
        assert euler_step(spec, i) == expected


class TestBetti:
    def test_grass_betti(self):
        assert grass_betti(1, 3) == (1, 0, 1, 0, 1)
        assert grass_betti(2, 4) == (1, 0, 1, 0, 2, 0, 1, 0, 1)

    def test_grass_betti_is_the_schubert_ring_poincare_polynomial(self):
        # the quotient ring's graded ranks in even degrees, zeros in odd ones;
        # the oracle's Hermite normal form reaches every Grassmannian with m <= 8
        for m in range(9):
            for r in range(m + 1):
                ranks = quotient_ring(GrassSpec(r, m)).graded_ranks
                expected = sum(((rank, 0) for rank in ranks), ())[:-1]
                assert grass_betti(r, m) == expected, (r, m)

    @pytest.mark.parametrize("r, m", [(-1, 3), (4, 3), (0, -1)])
    def test_grass_betti_rejects_rank_outside_0_to_m(self, r, m):
        with pytest.raises(DomainError, match="need 0 <= r <= m"):
            grass_betti(r, m)

    def test_threefold_link_of_3x4(self):
        prof = betti_smooth_complex_link(M343, 6)
        assert prof.betti == (1, 0, 1, 9)
        assert prof.chi == -7
        assert prof.middle == 3
        assert prof.torsion_status == "unknown"

    def test_classical_link_of_2x3(self):
        prof = betti_smooth_complex_link(DetSpec(2, 3, 2), 0)
        assert prof.betti == (1, 0, 1, 0)
        assert prof.torsion_status == "free"

    def test_rank_one_links_are_padded_projective_spaces(self):
        for m, n in [(2, 3), (3, 3), (3, 5), (4, 5)]:
            spec = DetSpec(m, n, 2)
            prof = betti_smooth_complex_link(spec, 0)
            middle = spec.d - 1
            pm = grass_betti(1, m)
            expected_below = tuple(
                pm[k] if k < len(pm) else 0 for k in range(middle)
            )
            assert prof.betti[:-1] == expected_below
            assert sum((-1) ** k * b for k, b in enumerate(prof.betti)) == prof.chi

    def test_non_smooth_codimension_rejected(self):
        with pytest.raises(DomainError):
            betti_smooth_complex_link(M343, 5)

    def test_non_smooth_message_names_the_smooth_range(self):
        with pytest.raises(DomainError) as exc:
            betti_smooth_complex_link(M343, 2)
        assert str(exc.value) == (
            "link not smooth at codimension 2 for DetSpec(m=3, n=4, s=3): "
            "smooth range is 6..9")

    def test_middle_is_solved_from_chi_and_the_grassmannian(self):
        # (-1)^middle (chi - sum_{k < middle} (-1)^k b_k(Grass(s-1, m)))
        for m in range(2, 5):
            for n in range(m, m + 3):
                for s in range(2, m + 1):
                    spec = DetSpec(m, n, s)
                    gb = grass_betti(spec.r, m)
                    for i in spec.smooth_range():
                        prof = betti_smooth_complex_link(spec, i)
                        below = sum((-1) ** k * gb[k]
                                    for k in range(min(prof.middle, len(gb))))
                        expected = (-1) ** prof.middle * (prof.chi - below)
                        assert prof.betti[prof.middle] == expected, (spec, i)

    def test_euler_relation_and_nonnegative_middle(self):
        for m in range(2, 5):
            for n in range(m, 6):
                for s in range(2, m + 1):
                    spec = DetSpec(m, n, s)
                    for i in spec.smooth_range():
                        prof = betti_smooth_complex_link(spec, i)
                        assert prof.betti[prof.middle] >= 0
                        assert (
                            sum((-1) ** k * b for k, b in enumerate(prof.betti))
                            == prof.chi
                        )


@pytest.fixture(scope="module")
def hb_rows():
    return hilbert_burch_chi_table(10)


class TestHilbertBurchTable:
    def test_chi_table(self, hb_rows):
        for d in range(4):
            for m in range(1, 11):
                if (d, m) not in ref.PRINTED_EULER_HB_OVERRIDES:
                    assert hb_rows[d][m - 1] == ref.EULER_HB[d][m - 1], (d, m)

    def test_printed_misprint_is_flagged(self, hb_rows):
        for (d, m), printed in ref.PRINTED_EULER_HB_OVERRIDES.items():
            computed = hb_rows[d][m - 1]
            assert ref.EULER_HB[d][m - 1] == printed
            assert computed != printed, (
                f"d={d}, m={m}: computed value agrees with the printed {printed}, "
                "which was expected to be a misprint")
            assert computed == sum(
                (-1) ** k * e for k, e in enumerate(ref.HILBERT_BURCH[m][:d + 1]))
        # the computed threefold row is a quintic in m over m = 2..10
        row = hb_rows[3][1:]
        for _ in range(5):
            row = [b - a for a, b in zip(row, row[1:])]
        assert row == [-56] * 4


class TestSmoothingLinks:
    """The links a smoothing of dimension D = 1..3 of an (m, m+1, m) germ
    reads: codimension i = m(m+1) - D - 3 (the ``links`` docstring)."""

    @pytest.mark.parametrize("m", range(2, 11))
    def test_link_is_smooth_of_middle_degree_d(self, m, hb_rows):
        spec = DetSpec(m, m + 1, m)
        for dim in (1, 2, 3):
            i = m * (m + 1) - dim - 3
            assert i in spec.smooth_range()
            prof = betti_smooth_complex_link(spec, i)
            assert prof.middle == dim
            assert prof.chi == hb_rows[dim][m - 1]
            assert prof.betti[:dim] == (1, 0, 1)[:dim]

    # (2, curve) is the link of the three coordinate axes in C^3, whose
    # Milnor number is 2 delta - branches + 1 = 2 * 2 - 3 + 1 = 2
    @pytest.mark.parametrize("m, dim, middle", [(2, 1, 2), (3, 2, 16), (3, 3, 9)],
                             ids=["2-curve", "3-surface", "3-threefold"])
    def test_middle_betti_number(self, m, dim, middle):
        prof = betti_smooth_complex_link(DetSpec(m, m + 1, m), m * (m + 1) - dim - 3)
        assert prof.betti[dim] == middle
