from itertools import combinations, pairwise, zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from detlinks import polar
from detlinks.errors import ConsistencyError, DomainError
from detlinks.polar import (
    certify_polar_profile,
    compute_polar_profile,
    euler_obstruction,
)

import reference_tables as ref
from oracles import duality_check


class TestProfiles:
    def test_2x3(self):
        assert compute_polar_profile(2, 3, 1).values == (3, 4, 3, 0)

    def test_2x2(self):
        assert compute_polar_profile(2, 2, 1).values == (2, 2, 2)

    def test_3x3_both_ranks(self):
        assert compute_polar_profile(3, 3, 1).values == (6, 12, 12, 6, 3)
        # the printed right half of this row ends in 3; the formula and the
        # duality both give the mirror of the rank-1 row
        assert compute_polar_profile(3, 3, 2).values == (3, 6, 12, 12, 6)

    def test_3x4_rank2(self):
        assert compute_polar_profile(3, 4, 2).values == (6, 16, 27, 24, 10, 0, 0)

    def test_4x4_rank2(self):
        assert compute_polar_profile(4, 4, 2).values == ref.POLAR_4N_R2[4]

    def test_5x5_rank1(self):
        assert compute_polar_profile(5, 5, 1).values == ref.POLAR_5N_R1[5]

    def test_degenerate_rank_zero(self):
        prof = compute_polar_profile(1, 2, 0)
        assert prof.values == (1,)
        assert prof.raw_signs == (1,)

    def test_single_value_lookup(self):
        assert compute_polar_profile(3, 4, 2).values[2] == 27
        assert compute_polar_profile(2, 3, 1).value(3) == 0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            compute_polar_profile(3, 4, 2).value(-1)
        with pytest.raises(DomainError):
            compute_polar_profile(3, 2, 1)  # m > n
        with pytest.raises(DomainError):
            compute_polar_profile(3, 4, 4)  # r > m

    def test_signs_alternate_strictly(self):
        for m, n, r in [(2, 3, 1), (3, 4, 1), (3, 4, 2), (4, 5, 2)]:
            prof = compute_polar_profile(m, n, r)
            assert len(prof.raw_signs) == len(prof.values)
            assert all(s in (-1, 1) for s in prof.raw_signs)
            assert all(
                prof.raw_signs[k] == -prof.raw_signs[k + 1]
                for k in range(len(prof.raw_signs) - 1)
            )

    def test_value_accessor_pads_with_zero(self):
        prof = compute_polar_profile(2, 2, 1)
        assert prof.value(17) == 0
        with pytest.raises(DomainError):
            prof.value(-1)


class TestDuality:
    def test_3x4_pairs(self):
        report = duality_check(3, 4, 1)
        assert report.all_equal
        left = compute_polar_profile(3, 4, 1).values
        right = compute_polar_profile(3, 4, 2).values
        assert left[:5] == tuple(reversed(right[:5]))

    def test_2xn_palindromic(self):
        # self-dual rank: the nonzero support (k = 0..2r(m-r)) is a palindrome
        for n in range(2, 8):
            support = compute_polar_profile(2, n, 1).values[:3]
            assert support == tuple(reversed(support))
            assert duality_check(2, n, 1).all_equal

    def test_4x4_outer_ranks(self):
        report = duality_check(4, 4, 1)
        assert report.all_equal
        left = compute_polar_profile(4, 4, 1).values
        right = compute_polar_profile(4, 4, 3).values
        assert left == tuple(reversed(right))

    def test_rank_range(self):
        with pytest.raises(DomainError):
            duality_check(3, 4, 3)
        with pytest.raises(DomainError):
            duality_check(3, 4, 0)


class TestEulerObstruction:
    def test_2x3_germ(self):
        # 3 - 4 + 3 - 0 summed from the top of the profile
        assert euler_obstruction(2, 3, 1, 1) == 2

    def test_3x4_top_stratum_window(self):
        assert euler_obstruction(3, 4, 2, 7) == -7

    def test_top_slice_is_the_multiplicity(self):
        # at i = d the slice is a reduced curve and the obstruction is its
        # multiplicity, the k = 0 polar value
        assert euler_obstruction(2, 3, 1, 4) == 3
        assert euler_obstruction(3, 4, 2, 10) == 6

    def test_range_errors(self):
        with pytest.raises(DomainError):
            euler_obstruction(2, 3, 1, 5)
        with pytest.raises(DomainError):
            euler_obstruction(2, 3, 1, -1)

    def test_point_germ(self):
        assert euler_obstruction(1, 2, 0, 0) == 1

    def test_every_window_is_the_documented_sum(self):
        # sum_{j=i..d} (-1)^(d-j) values[d-j], zero beyond the profile
        for m in range(1, 5):
            for n in range(m, m + 3):
                for r in range(m + 1):
                    prof = compute_polar_profile(m, n, r)
                    d = polar.germ_dim(m, n, r)
                    for i in range(d + 1):
                        expected = sum((-1) ** (d - j) * prof.value(d - j)
                                       for j in range(i, d + 1))
                        assert euler_obstruction(m, n, r, i) == expected, (m, n, r, i)


class TestAgainstPublishedRows:
    @pytest.mark.parametrize("n", sorted(ref.POLAR_2N_R1))
    def test_2xn(self, n):
        expected = ref.padded_profile(ref.POLAR_2N_R1[n], 2, n, 1)
        assert compute_polar_profile(2, n, 1).values == expected

    @pytest.mark.parametrize("n", range(3, 9))
    def test_3xn_rank1(self, n):
        expected = ref.padded_profile(ref.POLAR_3N_R1[n], 3, n, 1)
        assert compute_polar_profile(3, n, 1).values == expected

    @pytest.mark.parametrize("n", range(4, 7))
    def test_4xn(self, n):
        assert compute_polar_profile(4, n, 1).values == ref.padded_profile(
            ref.POLAR_4N_R1[n], 4, n, 1
        )
        assert compute_polar_profile(4, n, 2).values == ref.padded_profile(
            ref.POLAR_4N_R2[n], 4, n, 2
        )

    @pytest.mark.parametrize("m", range(2, 11))
    def test_hilbert_burch_rows(self, m):
        expected = ref.padded_profile(ref.HILBERT_BURCH[m], m, m + 1, m - 1)
        assert compute_polar_profile(m, m + 1, m - 1).values == expected


class TestRoutesAgree:
    """Bott localization (production) against the Schubert route (certifier)."""

    CELLS = [
        (m, n, r) for m in range(1, 6) for n in range(m, 9) for r in range(1, m + 1)
    ] + [(6, 7, r) for r in range(1, 6)] + [
        # long cells, where the revolving-door walk does most of its work
        (2, 12, 1), (3, 12, 2), (3, 20, 2), (4, 12, 3),
        # cells where the fold onto rank m - r and the truncation at
        # 2r(m - r) do the work
        (3, 25, 2), (4, 14, 3), (5, 9, 4), (5, 10, 3), (6, 8, 5), (6, 9, 4),
        # self-dual cells past the tables, where the mirror of the degrees
        # k <= kappa/2 gives the rest
        (2, 20, 1), (4, 14, 2), (6, 8, 3), (6, 9, 3),
        # the hardest tabulated cells
        (7, 8, 3), (7, 8, 4), (6, 12, 3),
    ]

    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: "%d,%d,%d" % c)
    def test_values_and_signs(self, cell):
        bott, schubert = compute_polar_profile(*cell), certify_polar_profile(*cell)
        assert bott.values == schubert.values
        assert bott.raw_signs == schubert.raw_signs

    @pytest.mark.parametrize("cell, degree", [
        ((7, 8, 3), 116424), ((7, 8, 4), 24696), ((6, 12, 3), 572572),
    ])
    def test_closed_form_degree_of_the_hard_cells(self, cell, degree):
        # prod_{i < m-r} C(n+i, r) / C(r+i, r)
        assert compute_polar_profile(*cell).values[0] == degree

    def test_corrupted_fixed_point_is_caught(self, monkeypatch):
        reweight = polar._reweight
        calls, bumped = [], []

        def corrupted(h, removed, added):
            calls.append(None)
            if bumped and h is bumped[-1]:
                h[-1] -= 1  # the next swap takes the bump back out
                bumped.append(None)
            h = reweight(h, removed, added)
            if removed and not bumped:
                h[-1] += 1  # the second fixed point of the first walk
                bumped.append(h)
            return h

        monkeypatch.setattr(polar, "_reweight", corrupted)
        with pytest.raises(ConsistencyError, match="not divisible"):
            compute_polar_profile(4, 5, 2)
        assert len(bumped) == 2 and bumped[-1] is None  # one point only
        # J in {0,1}, {0,2}, {0,3}, {1,2} up to the mirror; per J, two series
        # built at the first of the C(5,2) = 10 points and both updated at
        # each later one
        assert len(calls) == 4 * (2 + 2 * 9)

    @pytest.mark.parametrize("cell", [(3, 4, 2), (4, 6, 3), (5, 7, 4), (5, 8, 3)],
                             ids=lambda c: "%d,%d,%d" % c)
    def test_high_rank_walks_the_dual_rank(self, monkeypatch, cell):
        m, n, r = cell
        walks = []
        door = polar._revolving_door

        def spy(size, rank):
            walks.append((size, rank))
            return door(size, rank)

        monkeypatch.setattr(polar, "_revolving_door", spy)
        compute_polar_profile(m, n, r)
        # the recursion asks for walks on fewer elements; the only walk of
        # C^n is the dual rank's
        assert [w for w in walks if w[0] == n] == [(n, m - r)]
        assert all(rank <= m - r for _, rank in walks)

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(2, 5) for n in range(m, 7)])
    def test_certifier_rank_duality(self, m, n):
        # the certifier sums every degree at rank r itself, so this checks the
        # vanishing range and the rank duality without the production shortcut
        for r in range(1, m):
            kappa = 2 * r * (m - r)
            here = certify_polar_profile(m, n, r).values
            dual = certify_polar_profile(m, n, m - r).values
            assert here[: kappa + 1] == dual[kappa::-1]
            assert not any(here[kappa + 1:])


class TestClosedFormChecks:
    """Each closed form checked in ``polar._profile`` fires on its own."""

    def test_hold_on_every_small_cell(self):
        for m in range(1, 7):
            for n in range(m, 9):
                for r in range(m + 1):
                    values = compute_polar_profile(m, n, r).values
                    polar._check_closed_forms(m, n, r, values)

    # (3,4,2) is (6, 16, 27, 24, 10, 0, 0): degree 6, alternating sum 3,
    # kappa 4 and first moment 6
    @pytest.mark.parametrize("values, what", [
        ((7, -16, 27, 24, 10, 0, 0), "zeroth value is not the degree 6"),
        ((6, 16, 27, 24, 10, 0, -1), "alternating sum is not C(m, r) = 3"),
        ((6, 16, 27, 24, 10, -1, -1), "nonzero values are not exactly k <= 4"),
        ((6, 16, 27, 13, -1, 0, 0), "a value is negative"),
        ((6, 17, 28, 24, 10, 0, 0), "alternating first moment is not r(m - r) C(m, r) = 6"),
    ], ids=["degree", "alternating_sum", "nonzero_range", "negative", "first_moment"])
    def test_first_failing_form_is_named(self, values, what):
        # every profile but the last also breaks a later form, so a check
        # moved ahead of the one that should fire names the wrong form
        with pytest.raises(ConsistencyError) as exc:
            polar._check_closed_forms(3, 4, 2, values)
        assert str(exc.value) == f"polar profile of (m, n, r) = (3, 4, 2): {what}: {values}"

    def test_self_dual_profile_reads_the_same_backwards(self):
        # (4,5,2) is (50, 240, 595, 960, 1116, 960, 595, 240, 50, 0, 0):
        # (1, 2, 1) added at k = 1..3 keeps the five other forms, and the same
        # edit mirrored at k = 5..7 keeps the palindrome as well
        values = list(compute_polar_profile(4, 5, 2).values)
        values[1:4] = [241, 597, 961]
        with pytest.raises(ConsistencyError) as exc:
            polar._check_closed_forms(4, 5, 2, tuple(values))
        assert str(exc.value) == (
            "polar profile of (m, n, r) = (4, 5, 2): self-dual profile is not a "
            f"palindrome: {tuple(values)}")
        values[5:8] = [961, 597, 241]
        polar._check_closed_forms(4, 5, 2, tuple(values))

    def test_dual_integrals_not_reversed(self, monkeypatch):
        # (3,4,2) gets the rank-1 integrals (10, 24, 27, 16, 6) front to back:
        # same alternating sum and nonzero range, wrong degree
        bott = polar._bott_integrals
        monkeypatch.setattr(
            polar, "_bott_integrals", lambda m, n, r: bott(m, n, m - r)[:5] + [0, 0]
        )
        with pytest.raises(ConsistencyError, match="not the degree 6"):
            compute_polar_profile(3, 4, 2)

    # (2,4,1) has no fold and integrals of size (4, 6, 4, 0, 0)
    def _corrupt(self, monkeypatch, edit):
        bott = polar._bott_integrals
        monkeypatch.setattr(
            polar, "_bott_integrals", lambda m, n, r: edit(bott(m, n, r))
        )
        return pytest.raises(ConsistencyError)

    def test_value_bumped_by_two(self, monkeypatch):
        def bump(values):
            values[1] += 2 if values[1] > 0 else -2  # signs still alternate
            return values

        with self._corrupt(monkeypatch, bump) as exc:
            compute_polar_profile(2, 4, 1)
        assert "alternating sum is not C(m, r) = 2" in str(exc.value)

    def test_negated_route_caught(self, monkeypatch):
        # (4,5,2) has no fold; every integral negated keeps the absolute
        # values, so only the sign rule can tell
        with self._corrupt(monkeypatch, lambda values: [-v for v in values]) as exc:
            compute_polar_profile(4, 5, 2)
        assert "zeroth value is not the degree 50" in str(exc.value)

    def test_sign_record_follows_the_convention(self):
        # r = 0 records (1,) by convention, see test_degenerate_rank_zero
        for m in range(1, 7):
            for n in range(m, 9):
                for r in range(1, m + 1):
                    d = (m + n) * r - r * r
                    signs = compute_polar_profile(m, n, r).raw_signs
                    assert signs == tuple(
                        (-1) ** (d - 1 + k) for k in range(len(signs))
                    ), (m, n, r)

    def test_trailing_nonzero(self, monkeypatch):
        def extend(values):
            # two trailing values of alternating sign and equal size leave
            # the alternating sum alone
            sign = -1 if values[2] > 0 else 1
            values[3:5] = [sign, -sign]
            return values

        with self._corrupt(monkeypatch, extend) as exc:
            compute_polar_profile(2, 4, 1)
        assert "nonzero values are not exactly k <= 2" in str(exc.value)


class TestBottSumsMemo:
    """A dual pair shares one memoized Bott sum, and nothing but that sum
    ever enters the memo."""

    @pytest.mark.parametrize("high_first", [False, True], ids=["low-first", "high-first"])
    @pytest.mark.parametrize("cell", [(3, 4, 1), (4, 6, 1), (5, 7, 2)],
                             ids=lambda c: "%d,%d,%d" % c)
    def test_dual_pair_walks_once(self, monkeypatch, cell, high_first):
        m, n, r = cell
        walks = []
        door = polar._revolving_door

        def spy(size, rank):
            walks.append((size, rank))
            return door(size, rank)

        monkeypatch.setattr(polar, "_revolving_door", spy)
        ranks = [m - r, r] if high_first else [r, m - r]
        profiles = [compute_polar_profile(m, n, rank) for rank in ranks]
        assert [w for w in walks if w[0] == n] == [(n, r)]
        for rank, prof in zip(ranks, profiles):
            assert prof == certify_polar_profile(m, n, rank)

    # (3,3,1) has no zero padding, so its integrals are the sums themselves;
    # (3,4,2) is read backwards from the rank-1 sums
    @pytest.mark.parametrize("cell", [(3, 3, 1), (3, 4, 2)], ids=lambda c: "%d,%d,%d" % c)
    def test_edited_integrals_leave_the_sums_alone(self, monkeypatch, cell):
        bott = polar._bott_integrals

        def bump(m, n, r):
            values = bott(m, n, r)
            values[0] += 1  # in place, as ``TestClosedFormChecks._corrupt`` does
            return values

        with monkeypatch.context() as patch:
            patch.setattr(polar, "_bott_integrals", bump)
            with pytest.raises(ConsistencyError, match="zeroth value"):
                compute_polar_profile(*cell)
        assert compute_polar_profile(*cell) == certify_polar_profile(*cell)


class TestRevolvingDoor:
    @pytest.mark.parametrize("n", range(11))
    def test_each_subset_once_by_single_swaps(self, n):
        for r in range(n + 1):
            walk = polar._revolving_door(n, r)
            assert sorted(walk) == list(combinations(range(n), r))
            for prev, sub in pairwise(walk):
                assert len(set(prev) ^ set(sub)) == 2

    def test_long_walk_recurses_on_the_rank_only(self):
        assert polar._revolving_door(1200, 1) == [(j,) for j in range(1200)]


class TestSwapCancellation:
    """A swap applies only the roots it does not both remove and add."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_unpartnered_roots_give_the_full_swap(self, data):
        # the second factor's equally spaced weights, J and its complement
        # as the two sides; x_out of either parity, so roots can be zero
        m = data.draw(st.integers(min_value=1, max_value=8))
        ys = [(m - 1) - 2 * l for l in range(m)]
        sub = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
        shifts = data.draw(st.sets(
            st.integers(min_value=-9, max_value=9).filter(bool).map(lambda s: 2 * s),
            min_size=1, max_size=4))
        x_out = data.draw(st.integers(min_value=-12, max_value=12))
        h = data.draw(st.lists(st.integers(min_value=-30, max_value=30),
                               min_size=1, max_size=10))
        for roots in ([ys[l] for l in sorted(sub)],
                      [y for l, y in enumerate(ys) if l not in sub]):
            keep = polar._unpartnered(roots, shifts)
            assert set(keep) == shifts
            for d, (ins, outs) in keep.items():
                x_in = x_out + d
                full_in = [x_in + y for y in roots]
                full_out = [x_out + y for y in roots]
                kept_in = [x_in + y for y in ins]
                kept_out = [x_out + y for y in outs]
                # the quotient direction, then the sub direction
                assert (polar._reweight(h, kept_in, kept_out)
                        == polar._reweight(h, full_in, full_out))
                assert (polar._reweight(h, kept_out, kept_in)
                        == polar._reweight(h, full_out, full_in))

    def test_swaps_apply_only_the_roots_that_change(self, monkeypatch):
        reweight = polar._reweight
        pairs = []

        def spy(h, removed, added):
            pairs.append(sum(a != b for a, b in zip_longest(removed, added, fillvalue=0)))
            return reweight(h, removed, added)

        monkeypatch.setattr(polar, "_reweight", spy)
        compute_polar_profile(6, 7, 3)
        # the full removed and added lists of every swap apply 2250 pairs
        assert sum(pairs) == 1690


class TestSelfDualRank:
    """At 2r = m only the degrees k <= kappa/2 are summed; the rest mirror them."""

    @pytest.mark.parametrize("cell, updates", [((6, 7, 3), 26860), ((4, 5, 2), 1224)],
                             ids=["6,7,3", "4,5,2"])
    def test_quotient_series_stop_at_half_kappa(self, monkeypatch, cell, updates):
        reweight = polar._reweight
        counted = []

        def spy(h, removed, added):
            applied = sum(a != b for a, b in zip_longest(removed, added, fillvalue=0))
            counted.append(len(h) * applied)
            return reweight(h, removed, added)

        monkeypatch.setattr(polar, "_reweight", spy)
        compute_polar_profile(*cell)
        # quotient series that run to kappa make 34600 and 1552 updates
        assert sum(counted) == updates
