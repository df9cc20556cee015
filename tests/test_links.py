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
    smoothing_bounds,
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


class TestHilbertBurchTable:
    def test_chi_table(self):
        rows = hilbert_burch_chi_table(6)
        for d in range(4):
            assert tuple(rows[d]) == ref.EULER_HB[d][:6], f"row d={d}"


class TestSmoothingBounds:
    def test_threefold_bound(self):
        assert smoothing_bounds(3, "threefold") == 5

    def test_surface_bound(self):
        assert smoothing_bounds(3, "surface") == 15

    def test_curve_bound(self):
        assert smoothing_bounds(2, "curve") == 0

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            smoothing_bounds(3, "fourfold")

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            smoothing_bounds(1, "threefold")

    def test_out_of_range_names_the_kind(self):
        with pytest.raises(DomainError) as err:
            smoothing_bounds(1, "threefold")
        assert str(err.value) == (
            "no threefold link for m=1: the germ of DetSpec(m=1, n=2, s=1) "
            "is a point and has no complex links"
        )

    def test_no_germ_below_m_1(self):
        with pytest.raises(DomainError, match="need 1 <= s <= m <= n"):
            smoothing_bounds(0, "curve")
