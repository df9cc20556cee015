import pytest
from hypothesis import given, settings

from detlinks import grass_ring, tensor_calculus
from detlinks.errors import DomainError
from detlinks.grass_ring import GrassSpec, SparseElement
from detlinks.partitions import box_complement, partitions_in_box
from detlinks.polar import certify_polar_profile
from detlinks.tensor_calculus import (
    QUOT_TENSOR,
    SUB_TENSOR,
    ProdSpec,
    _lascoux,
    chern_tensor,
    integrate_prod,
    mul_prod,
    segre_integrals,
    segre_tensor,
)

from conftest import assert_canonical, prod_spec_with_classes
from oracles import (
    chern_list_quot,
    chern_list_sub,
    chern_tensor_via_roots,
    mul,
    prod_unit,
    schubert,
    schubert_pair,
    tensor,
    universal_tensor_chern,
)

P23 = ProdSpec(1, 3, 2)  # Grass(1,3) x Grass(1,2): the projective plane times a line


def pair(spec, lam, mu):
    return schubert_pair(spec, lam, mu)


class TestProductRing:
    def test_unit_is_identity(self):
        cls = pair(P23, (1,), (1,))
        assert mul_prod(prod_unit(P23), cls) == cls

    def test_kuenneth_factors_do_not_interact(self):
        got = mul_prod(pair(P23, (1,), ()), pair(P23, (), (1,)))
        assert got == pair(P23, (1,), (1,))

    def test_factorwise_growth(self):
        got = mul_prod(pair(P23, (1,), (1,)), pair(P23, (1,), ()))
        assert got == pair(P23, (2,), (1,))

    def test_integrate_box(self):
        assert integrate_prod(pair(P23, (2,), (1,))) == 1

    def test_integrate_binomial_cube(self):
        h = pair(P23, (1,), ()) + pair(P23, (), (1,))
        cube = mul_prod(mul_prod(h, h), h)
        assert cube.coords.get(((2,), (1,))) == 3
        assert integrate_prod(cube) == 3

    def test_integrate_non_top_is_zero(self):
        assert integrate_prod(pair(P23, (1,), (1,))) == 0

    def test_certifier_rejects_a_bad_cell_before_building_a_spec(self, monkeypatch):
        # ProdSpec checks nothing: polar._profile checks (m, n, r) first
        built = []

        def spy(r, n, m, _real=ProdSpec):
            built.append((r, n, m))
            return _real(r, n, m)

        monkeypatch.setattr(tensor_calculus, "ProdSpec", spy)
        for cell in [(4, 3, 2), (3, 4, 4)]:  # m > n, then r > m
            with pytest.raises(DomainError, match="need 0 <= r <= m <= n"):
                certify_polar_profile(*cell)
        assert built == []
        certify_polar_profile(2, 3, 1)
        assert built == [(1, 3, 2)]


class TestTrustedResults:
    @settings(deadline=None, max_examples=40)
    @given(prod_spec_with_classes(count=2))
    def test_mul_prod_results(self, data):
        _, (a, b) = data
        assert_canonical(mul_prod(a, b))

    @settings(deadline=None, max_examples=15)
    @given(prod_spec_with_classes(count=0))
    def test_series_terms(self, data):
        spec, _ = data
        for bundle in (SUB_TENSOR, QUOT_TENSOR):
            for series in (chern_tensor(spec, bundle, spec.dim),
                           segre_tensor(spec, bundle, spec.dim)):
                for term in series.terms:
                    assert_canonical(term)


class TestChernTensor:
    def test_degree_zero_is_unit(self):
        for bundle in (SUB_TENSOR, QUOT_TENSOR):
            series = chern_tensor(P23, bundle, 2)
            assert series[0] == prod_unit(P23)

    def test_line_times_line(self):
        series = chern_tensor(P23, SUB_TENSOR, 1)
        expected = -pair(P23, (1,), ()) - pair(P23, (), (1,))
        assert series[1] == expected

    def test_bundle_times_line(self):
        # Q1 has rank 2, Q2 rank 1: c_1 = c_1(Q1) + 2 c_1(Q2)
        series = chern_tensor(P23, QUOT_TENSOR, 1)
        expected = pair(P23, (1,), ()) + 2 * pair(P23, (), (1,))
        assert series[1] == expected

    def test_requests_above_dimension_are_clamped(self):
        series = chern_tensor(P23, SUB_TENSOR, 99)
        assert len(series) == P23.dim + 1

    def test_rank_bound(self):
        spec = ProdSpec(1, 4, 3)
        series = chern_tensor(spec, SUB_TENSOR, spec.dim)
        for k in range(2, len(series)):  # rank of S1 x S2 is 1
            assert not series[k].coords


class TestSegreTensor:
    def test_s1_is_minus_c1(self):
        for bundle in (SUB_TENSOR, QUOT_TENSOR):
            c = chern_tensor(P23, bundle, 1)
            s = segre_tensor(P23, bundle, 1)
            assert s[1] == -c[1]

    def test_cube_of_hyperplane_sum(self):
        series = segre_tensor(P23, SUB_TENSOR, 3)
        assert integrate_prod(series[3]) == 3

    def test_inversion_identity(self):
        for spec in (P23, ProdSpec(2, 4, 3), ProdSpec(1, 5, 5)):
            for bundle in (SUB_TENSOR, QUOT_TENSOR):
                c = chern_tensor(spec, bundle, spec.dim)
                s = segre_tensor(spec, bundle, spec.dim)
                for k in range(1, spec.dim + 1):
                    acc = SparseElement(spec, {})
                    for j in range(k + 1):
                        acc = acc + mul_prod(c[j], s[k - j])
                    assert not acc.coords, (spec, bundle, k)


class TestPairing:
    CELLS = [(m, n, r) for m in range(7) for n in range(m, m + 4) for r in range(m + 1)]
    WIDE = [(4, 30, 2), (5, 25, 2), (6, 16, 3)]

    def test_equals_the_whole_series_paired_by_box_complement(self):
        # segre_integrals reads s(S1 (x) S2) only at the complements of
        # s(Q1 (x) Q2)'s keys; pair the two whole series instead
        for m, n, r in self.CELLS + self.WIDE:
            spec = ProdSpec(r, n, m)
            big_k, cols1, cols2 = spec.dim, n - r, m - r
            s_quot = segre_tensor(spec, QUOT_TENSOR, big_k)
            s_sub = segre_tensor(spec, SUB_TENSOR, big_k)
            whole = [sum(c * s_sub[big_k - k].coords.get(
                (box_complement(lam, r, cols1), box_complement(mu, r, cols2)), 0)
                for (lam, mu), c in s_quot[k].coords.items()) for k in range(big_k + 1)]
            assert segre_integrals(spec) == whole, (m, n, r)

    def test_certifier_work_does_not_depend_on_n(self, monkeypatch):
        # every box the certifier scans is a factor of Grass(r, m)'s, never
        # Grass(2, 40)'s 2 x 38 box
        boxes = []

        def spy(rows, cols, *weight, _real=partitions_in_box):
            boxes.append((rows, cols))
            return _real(rows, cols, *weight)

        monkeypatch.setattr(tensor_calculus, "partitions_in_box", spy)
        certify_polar_profile(4, 40, 2)
        assert boxes and all(rows == 2 and cols <= 2 for rows, cols in boxes), boxes

    @pytest.mark.parametrize("m, n, r", [(3, 4, 2), (6, 12, 3)])
    def test_certifier_builds_no_ring_element(self, monkeypatch, m, n, r):
        # the whole --verify route works on coefficient dicts: only the
        # whole-series API (mul_prod, CharSeries terms) builds SparseElements
        built = []
        init = grass_ring.SparseElement.__init__

        def spy(self, spec, coords):
            built.append(spec)
            init(self, spec, coords)

        monkeypatch.setattr(grass_ring.SparseElement, "__init__", spy)
        assert certify_polar_profile(m, n, r).values
        assert built == []
        segre_tensor(ProdSpec(r, n, m), QUOT_TENSOR, 1)
        assert built, "the spy sees the whole-series API"


class TestPullbackDegeneration:
    def test_point_second_factor_quot_is_trivial(self):
        spec = ProdSpec(2, 5, 2)  # Grass(2,2) is a point, Q2 = 0
        series = chern_tensor(spec, QUOT_TENSOR, spec.dim)
        assert series[0] == prod_unit(spec)
        for k in range(1, len(series)):
            assert not series[k].coords

    def test_point_second_factor_sub_is_power(self):
        # S2 is the trivial rank-r bundle, so c(S1 x S2) = c(S1)^r
        spec = ProdSpec(2, 5, 2)
        f1 = GrassSpec(2, 5)
        c_s1 = [schubert(f1, ())] + [(-1) ** i * schubert(f1, (1,) * i) for i in (1, 2)]
        square = {}
        for i in range(3):
            for j in range(3):
                term = mul(c_s1[i], c_s1[j])
                square[i + j] = square.get(i + j, term * 0) + term
        series = chern_tensor(spec, SUB_TENSOR, 4)
        unit2 = schubert(GrassSpec(2, 2), ())
        for k in range(5):
            expected = tensor(spec, square.get(k, SparseElement(f1, {})), unit2)
            assert series[k] == expected, k


class TestUniversalPolynomials:
    def test_line_times_line(self):
        got = set(universal_tensor_chern(1, 1, 1))
        assert got == {((1,), (), 1), ((), (1,), 1)}

    def test_rank_two_times_line_degree_two(self):
        got = set(universal_tensor_chern(2, 1, 2))
        assert got == {((2,), (), 1), ((1,), (1,), 1), ((), (1, 1), 1)}

    def test_zero_rank(self):
        assert universal_tensor_chern(0, 3, 1) == ()

    @pytest.mark.parametrize(
        "spec",
        [ProdSpec(1, 2, 2), ProdSpec(1, 4, 3), ProdSpec(2, 4, 4), ProdSpec(2, 4, 2)],
    )
    def test_cross_validation_small(self, spec):
        for bundle in (SUB_TENSOR, QUOT_TENSOR):
            production = chern_tensor(spec, bundle, spec.dim)
            validator = chern_tensor_via_roots(spec, bundle, spec.dim)
            assert len(production) == len(validator)
            for k in range(len(production)):
                assert production[k] == validator[k], (spec, bundle, k)


class TestLascoux:
    @pytest.mark.parametrize("r, n, m", [(1, 3, 3), (2, 4, 3), (2, 5, 4)])
    def test_matches_the_universal_polynomials(self, r, n, m):
        # c(S1 (x) Q2) against the Chern-root expansion on c(S1) and c(Q2)
        spec = ProdSpec(r, n, m)
        c1, c2 = chern_list_sub(spec.factor1), chern_list_quot(spec.factor2)
        lascoux = _lascoux(spec, QUOT_TENSOR)
        assert lascoux[((), ())] == 1 and all(lascoux.values())
        for k in range(r * (m - r) + 1):
            expected = SparseElement(spec, {})
            for alpha, beta, coeff in universal_tensor_chern(r, m - r, k):
                left, right = c1[0], c2[0]
                for idx in alpha:
                    left = mul(left, c1[idx])
                for idx in beta:
                    right = mul(right, c2[idx])
                expected = expected + coeff * tensor(spec, left, right)
            got = {key: c for key, c in lascoux.items() if sum(key[0]) + sum(key[1]) == k}
            assert got == expected.coords, k
        assert all(sum(a) + sum(b) <= r * (m - r) for a, b in lascoux)

    def test_certifier_builds_the_class_once_per_cell(self, monkeypatch):
        # the pairing reads c(S1 (x) Q2) and no other Lascoux class; count the
        # Lascoux determinants of one certification against those of one class
        dets = []
        det = tensor_calculus._det
        monkeypatch.setattr(
            tensor_calculus, "_det", lambda rows: dets.append(None) or det(rows)
        )
        certify_polar_profile(4, 6, 2)
        per_cell = len(dets)
        dets.clear()
        _lascoux(ProdSpec(2, 6, 4), QUOT_TENSOR)
        assert per_cell == len(dets) > 0
