import pytest
from hypothesis import given, settings

from detlinks.errors import ConsistencyError, DomainError
from detlinks.grass_ring import GrassSpec, chern_quot_power, mul
from detlinks.links import grass_betti
from detlinks.partitions import box_complement, partitions_in_box, weight

import oracles
from conftest import assert_canonical, spec_with_classes
from oracles import (
    PresentationPoly,
    QuotientRingOracle,
    grassmann_relations,
    integrate,
    presentation_h,
    quotient_ring,
    schubert,
    schubert_to_presentation,
    weighted_degree,
)


def sigma(spec, *parts):
    return schubert(spec, parts)


class TestMul:
    def test_single_row_box_kills_column(self):
        spec = GrassSpec(1, 3)
        assert mul(sigma(spec, 1), sigma(spec, 1)).coords == {(2,): 1}

    def test_square_box_splits(self):
        spec = GrassSpec(2, 4)
        got = mul(sigma(spec, 1), sigma(spec, 1)).coords
        assert got == {(2,): 1, (1, 1): 1}

    def test_top_times_positive_degree_vanishes(self):
        spec = GrassSpec(2, 4)
        assert not mul(schubert(spec, spec.box), sigma(spec, 1)).coords

    def test_unit_is_identity(self):
        spec = GrassSpec(2, 5)
        cls = sigma(spec, 2, 1)
        assert mul(schubert(spec, ()), cls) == cls

    @settings(deadline=None, max_examples=40)
    @given(spec_with_classes(count=2))
    def test_commutative(self, data):
        _, (a, b) = data
        assert mul(a, b) == mul(b, a)

    @settings(deadline=None, max_examples=25)
    @given(spec_with_classes(count=3, max_m=6))
    def test_associative(self, data):
        _, (a, b, c) = data
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @settings(deadline=None, max_examples=40)
    @given(spec_with_classes(count=2))
    def test_results_are_canonical(self, data):
        _, (a, b) = data
        assert_canonical(mul(a, b))


class TestChern:
    # c(Q) = chern_quot_power(spec, 1) and c(S) = chern_quot_power(spec, -1)
    def test_sub_on_projective_space(self):
        for m in range(2, 6):
            spec = GrassSpec(1, m)
            assert chern_quot_power(spec, -1).coords == {(): 1, (1,): -1}

    def test_quot_single_row(self):
        assert chern_quot_power(GrassSpec(1, 3), 1).coords == {(): 1, (1,): 1, (2,): 1}

    @pytest.mark.parametrize("m", range(0, 5))
    def test_trivial_bundles_have_total_class_one(self, m):
        # S on Grass(m, m) and Q on Grass(0, m) are trivial; no key may
        # leave the empty box
        assert chern_quot_power(GrassSpec(m, m), -1).coords == {(): 1}
        assert chern_quot_power(GrassSpec(0, m), 1).coords == {(): 1}

    @pytest.mark.parametrize("m", range(1, 8))
    def test_whitney_all_degrees(self, m):
        # S + Q is the trivial rank-m bundle: c(S) c(Q) = 1 in every degree
        for r in range(m + 1):
            spec = GrassSpec(r, m)
            product = mul(chern_quot_power(spec, -1), chern_quot_power(spec, 1))
            assert product == schubert(spec, ()), spec

    @pytest.mark.parametrize("m", range(0, 7))
    def test_power_is_the_repeated_product_of_the_total_classes(self, m):
        # c(Q)^e for e >= 0 and c(S)^(-e) for e < 0, as e-fold products of
        # the oracle's single-row and single-column sums; e = 0 is the unit
        for r in range(m + 1):
            spec = GrassSpec(r, m)
            for e in range(-4, 7):
                total = (oracles.total_chern_quot if e >= 0 else oracles.total_chern_sub)(spec)
                expected = schubert(spec, ())
                for _ in range(abs(e)):
                    expected = mul(expected, total)
                got = chern_quot_power(spec, e)
                assert got == expected, (spec, e)
                assert_canonical(got)


class TestIntegrate:
    def test_box_normalization(self):
        spec = GrassSpec(2, 5)
        assert integrate(schubert(spec, spec.box)) == 1

    def test_projective_plane_top_power(self):
        spec = GrassSpec(1, 3)
        h = sigma(spec, 1)
        assert integrate(mul(h, h)) == 1
        # one degree above the dimension the class itself vanishes
        assert integrate(mul(mul(h, h), h)) == 0

    def test_degree_of_grass_2_4(self):
        spec = GrassSpec(2, 4)
        h = sigma(spec, 1)
        assert integrate(mul(mul(h, h), mul(h, h))) == 2

    def test_non_top_class_integrates_to_zero(self):
        spec = GrassSpec(2, 4)
        assert integrate(sigma(spec, 1)) == 0


class TestPoincarePairing:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_pairing_is_permutation(self, m):
        for r in range(m + 1):
            spec = GrassSpec(r, m)
            basis = partitions_in_box(spec.r, spec.cols)
            for lam in basis:
                comp = box_complement(lam, spec.r, spec.cols)
                for mu in basis:
                    if weight(mu) != spec.dim - weight(lam):
                        continue
                    expected = 1 if mu == comp else 0
                    got = integrate(mul(sigma(spec, *lam), sigma(spec, *mu)))
                    assert got == expected, (spec, lam, mu)


class TestPresentation:
    def test_base_case(self):
        steps = presentation_h(3, 0)
        assert steps[0][1] == [PresentationPoly.variable(3, i) for i in (1, 2, 3)]

    def test_rank_one_sign_pattern(self):
        steps = presentation_h(1, 5)
        x = PresentationPoly.variable(1, 1)
        power = x
        for n, (step, polys) in enumerate(steps):
            assert step == n
            assert polys[0] == ((-1) ** n) * power
            power = power * x

    def test_rank_two_single_step(self):
        (_, h1), = presentation_h(2, 1)[1:]
        x1 = PresentationPoly.variable(2, 1)
        x2 = PresentationPoly.variable(2, 2)
        assert h1[0] == x2 - x1 * x1
        assert h1[1] == -(x1 * x2)

    def test_weighted_degrees(self):
        for n, polys in presentation_h(3, 4):
            for k, poly in enumerate(polys, start=1):
                assert weighted_degree(poly) == n + k

    def test_recursion_matrix_witnesses_containment(self):
        # one application of the companion matrix maps step 4 to step 5
        steps = dict(presentation_h(2, 5))
        x1 = PresentationPoly.variable(2, 1)
        x2 = PresentationPoly.variable(2, 2)
        h4, h5 = steps[4], steps[5]
        assert h5[0] == h4[1] - x1 * h4[0]
        assert h5[1] == -(x2 * h4[0])

    def test_relations_of_grass_2_4(self):
        x1 = PresentationPoly.variable(2, 1)
        x2 = PresentationPoly.variable(2, 2)
        assert grassmann_relations(GrassSpec(2, 4)) == [
            x1 * x1 * x1 - 2 * x1 * x2,
            x1 * x1 * x2 - x2 * x2,
        ]

    def test_relations_of_degenerate_boxes(self):
        assert grassmann_relations(GrassSpec(0, 0)) == []
        assert grassmann_relations(GrassSpec(0, 3)) == []
        assert grassmann_relations(GrassSpec(1, 1)) == [PresentationPoly.variable(1, 1)]

    def test_larger_ambient_relations_die_in_smaller_ring(self):
        # the relations for ambient dimension 7 reduce to zero modulo those
        # for ambient dimension 6, matching the restriction of rings
        oracle = QuotientRingOracle(GrassSpec(2, 6))
        for g in grassmann_relations(GrassSpec(2, 7)):
            assert oracle.reduce_poly(g) == {}


class TestOracle:
    def test_projective_plane(self):
        oracle = QuotientRingOracle(GrassSpec(1, 3))
        assert oracle.graded_ranks == (1, 1, 1)
        x_cubed = PresentationPoly(1, {(3,): 1})
        assert oracle.reduce_poly(x_cubed) == {}

    def test_grass_2_4_ranks(self):
        assert QuotientRingOracle(GrassSpec(2, 4)).graded_ranks == (1, 1, 2, 1, 1)

    def test_grass_2_5_total_rank(self):
        assert sum(QuotientRingOracle(GrassSpec(2, 5)).graded_ranks) == 10

    def test_scale_limit(self):
        with pytest.raises(DomainError):
            QuotientRingOracle(GrassSpec(5, 12))

    @pytest.mark.parametrize("alter, fault", [
        # 2J puts Z/2 in degree 3: the pivot at x_1^3 is 2
        (lambda gens: [2 * g for g in gens], r"degree 3 of .* pivot other than 1"),
        # without the degree-4 relation nothing pivots on x_1^2 x_2
        (lambda gens: gens[:1], r"degree 4 of .* without a pivot"),
        # x_1^2 is not in J: a relation among the degree-2 basis monomials
        (lambda gens: gens + [PresentationPoly(2, {(2, 0): 1})], r"degree 2 of .* among the basis"),
    ], ids=["doubled", "dropped", "extra"])
    def test_a_wrong_presentation_of_grass_2_4_raises(self, monkeypatch, alter, fault):
        real = oracles.grassmann_relations
        monkeypatch.setattr(oracles, "grassmann_relations", lambda spec: alter(real(spec)))
        with pytest.raises(ConsistencyError, match=fault):
            QuotientRingOracle(GrassSpec(2, 4))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_ranks_match_gaussian_binomial(self, m):
        for r in range(m + 1):
            spec = GrassSpec(r, m)
            assert quotient_ring(spec).graded_ranks == grass_betti(r, m)[::2]

    @staticmethod
    def check_products(spec):
        oracle = quotient_ring(spec)
        basis = partitions_in_box(spec.r, spec.cols)
        polys = {lam: schubert_to_presentation(spec, lam) for lam in basis}
        for lam in basis:
            for mu in basis:
                product = mul(sigma(spec, *lam), sigma(spec, *mu))
                assert_canonical(product)
                direct = oracle.reduce_poly(polys[lam] * polys[mu])
                via_schubert = {}
                for nu, c in product.coords.items():
                    for e, ce in oracle.reduce_poly(polys[nu]).items():
                        via_schubert[e] = via_schubert.get(e, 0) + c * ce
                via_schubert = {e: c for e, c in via_schubert.items() if c}
                assert direct == via_schubert, (spec, lam, mu)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_structure_constants_match_schubert_mul(self, m):
        for r in range(m + 1):
            self.check_products(GrassSpec(r, m))

    @pytest.mark.parametrize("r", [3, 4])
    def test_structure_constants_of_grass_r_8(self, r):
        # the factors of the hardest timed cells (7, 8, 3) and (7, 8, 4)
        self.check_products(GrassSpec(r, 8))


class TestPoincare:
    def test_examples(self):
        assert grass_betti(1, 3) == (1, 0, 1, 0, 1)
        assert grass_betti(2, 4) == (1, 0, 1, 0, 2, 0, 1, 0, 1)
        assert grass_betti(3, 3) == (1,)
        assert grass_betti(0, 0) == (1,)
        assert grass_betti(1, 1) == (1,)
