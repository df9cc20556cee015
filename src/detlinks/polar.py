"""Polar multiplicities of generic determinantal varieties.

The germ of the rank-below-(r+1) locus inside the space of m x n complex
matrices has polar multiplicities expressible through an intersection
number on G = Grass(r, n) x Grass(r, m): with K = (m+n)r - 2r^2 = dim G
and d = (m+n)r - r^2 the dimension of the germ,

    signed value at k = (-1)^(d-1) * integral over G of
                        s_k(Q1 (x) Q2) * s_(K-k)(S1 (x) S2),

with Segre classes s(E) = c(-E).  Two independent routes evaluate the
integrals and share one normalizer: ``compute_polar_profile`` (production)
sums Bott's residue formula over the torus fixed points of G in exact
integers; ``certify_polar_profile`` (certifier) pairs the Segre series of
both tensor bundles in the Schubert basis by box complement.  Those series
come in closed form from Lascoux's class c(S1 (x) Q2) times a power of one
factor's Chern class (``tensor_calculus``), with no torus weights and no
fixed points, so the routes share nothing but the normalizer ``_profile``,
which checks (m, n, r) before either route runs; the certifier's modules
import nothing from this one.
``_schubert_integrals`` imports ``tensor_calculus`` on the certifier's first
call, so loading this module and running production load no Schubert
calculus.

The Bott sum uses the weights 2j - (n-1) on C^n and -(2l - (m-1)) on C^m,
which the reflection j -> n-1-j, l -> m-1-l negates, so mirrored fixed
points contribute alike and only about half of the second factor's points
are visited.  For each of those, the first factor's points are walked in
revolving-door order, one swap at a time, and the two h-series of the
tensor roots are updated instead of rebuilt at every point.  A swap only
applies the roots that change: moving a weight from x_out to x_in trades
the roots x_in + y for x_out + y, and x_in + y comes straight back as
x_out + y' when y' = y + (x_in - x_out) is a weight of the same side.
Truncated multiplication by 1 - a t is undone exactly by division by it, so
such a pair cancels, and since the second factor's weights are equally
spaced, which pairs cancel depends only on its point and the shift.

Two classical facts shrink the sum.  The polar classes of the rank <= r
locus are nonzero exactly in degrees k <= kappa = 2r(m - r), its dimension
minus its dual defect (Holme, Manuscripta Math. 61, 1988), so only those
integrals are summed and the rest are zero.  Its dual variety is the
rank <= m - r locus (Kleiman, Tangency and duality, 1986), and the integrals
at rank r are those at rank m - r read backwards from kappa, so ranks above
m/2 are summed at the far smaller dual rank.  At 2r = m the rank is its own
dual, so its integrals read the same backwards: only k <= kappa/2 is summed
and the rest is that half mirrored.  Those sums are kept for the
life of the process and shared by both ranks of a dual pair, so a pair is
summed once, whichever rank is asked for first; nothing served from the
cache ever enters them, and no whole profile is memoized.  The certifier
evaluates every integral at rank r directly, so the two routes agreeing
checks both facts, the mirror included.

The published values are the absolute values of the signed ones, which
strictly alternate in k: the sign at k is (-1)^(d-1+k), fixed by (m, n, r),
so values[k] = (-1)^k * integral_k.  ``_profile`` applies that rule and the
closed forms check its result, nonnegativity included, so a route with a
sign convention bug aborts with a diagnostic instead of silently flipping
signs.  The sign record ``raw_signs`` is derived from the rule
(``sign_record``), never read off the integrals.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, pairwise, zip_longest
from math import comb, lcm, prod
from operator import mul

from .errors import ConsistencyError, DomainError


class PolarProfile(namedtuple("PolarProfile", "m n r values raw_signs")):
    """All polar multiplicities of one germ: values[k] for k = 0..(m+n)r-2r^2.

    ``raw_signs[k]`` is the sign (-1)^(d-1+k) the signed integral carries at
    position k (extended through zero entries), given by ``sign_record``:
    the Segre-convention audit trail next to the normalized values.
    """

    __slots__ = ()

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def value(self, k: int) -> int:
        """values[k], zero beyond the stored range, error for k < 0."""
        if k < 0:
            raise DomainError(f"polar index k={k} is negative")
        return self.values[k] if k <= self.k_max else 0


def germ_dim(m: int, n: int, r: int) -> int:
    """Complex dimension (m+n)r - r^2 of the rank <= r germ of m x n matrices."""
    return (m + n) * r - r * r


def profile_length(m: int, n: int, r: int) -> int:
    """Number of values of the (m, n, r) profile: (m+n)r - 2r^2 + 1; 1 at r = 0."""
    return (m + n) * r - 2 * r * r + 1


@lru_cache(maxsize=None)
def sign_record(m: int, n: int, r: int) -> tuple:
    """raw_signs of the (m, n, r) profile: (-1)^(d-1+k), d = (m+n)r - r^2, for
    k below ``profile_length``, and (1,) for the degenerate r = 0 germ; cached,
    so that the computed and the cached profile of a cell share one tuple."""
    if r == 0:
        return (1,)
    d = germ_dim(m, n, r)
    return tuple((-1) ** (d - 1 + k) for k in range(profile_length(m, n, r)))


def _validate_params(m: int, n: int, r: int):
    if not (0 <= r <= m <= n):
        raise DomainError(f"need 0 <= r <= m <= n, got m={m}, n={n}, r={r}")


def _revolving_door(n: int, r: int) -> list:
    """The r-subsets of range(n) in revolving-door order: consecutive subsets
    differ by one swap.  R(n, r) is R(n-1, r) followed by the reversed
    R(n-1, r-1) with n-1 appended (Knuth, TAOCP 7.2.1.3).  Unrolled in n,
    that is the single subset range(r) followed by, for k = r+1..n, the
    reversed R(k-1, r-1) with k-1 appended, so the recursion is r deep
    whatever n is."""
    if r == 0:
        return [()]
    walk = [tuple(range(r))]
    for k in range(r + 1, n + 1):
        walk.extend(sub + (k - 1,) for sub in reversed(_revolving_door(k - 1, r - 1)))
    return walk


def _euler(sub, weights) -> int:
    """Tangent Euler class at the fixed point ``sub`` of a Grassmannian whose
    space has the given weights: Hom(S, Q) has weights w_j - w_i, i in S,
    j in Q."""
    quot = [w for j, w in enumerate(weights) if j not in sub]
    return prod(w - weights[i] for i in sub for w in quot)


def _unpartnered(roots, shifts) -> dict:
    """For each shift d, the roots y with no partner y + d among ``roots``,
    and those with no partner y - d.  Of the roots x + d + y and x + y that
    a swap from x to x + d trades, these are the ones it changes: the first
    list's x + d + y and the second list's x + y; the rest cancel in pairs."""
    keep = {}
    for d in shifts:
        ins, outs = [], []
        for y in roots:
            if y + d not in roots:
                ins.append(y)
            if y - d not in roots:
                outs.append(y)
        keep[d] = ins, outs
    return keep


def _reweight(h: list, removed, added) -> list:
    """h * prod(1 - a t) / prod(1 - b t), a in removed, b in added, in
    Z[t]/t^len(h); one pass per (a, b) pair.  Truncated multiplication by
    1 - x t undoes division by it exactly, so the result stays integral."""
    for a, b in zip_longest(removed, added, fillvalue=0):
        if a == b:
            continue
        out = []
        prev = new = 0
        for cur in h:
            new = cur - a * prev + b * new
            out.append(new)
            prev = cur
        h = out
    return h


def _bott_integrals(m: int, n: int, r: int) -> list:
    """integral of s_k(Q1 (x) Q2) * s_(K-k)(S1 (x) S2) over G, k = 0..K, by
    Bott's residue formula, as a fresh list.

    Only k <= kappa = 2r(m - r) is summed, the nonvanishing range (Holme);
    the rest are zero.  For 2r > m the integrals are the dual rank's,
    reversed (Kleiman): at k <= kappa the value at rank r equals the value
    at rank m - r and position kappa - k, with the same sign; r = m folds
    onto [1].  Both ranks of a dual pair read the one memoized
    ``_bott_sums`` of the lower rank, and a self-dual rank, 2r = m, reads a
    palindrome.
    """
    sums = _bott_sums(m, n, min(r, m - r))
    if 2 * r > m:
        sums = sums[::-1]
    return list(sums) + [0] * (profile_length(m, n, r) - len(sums))


@lru_cache(maxsize=None)
def _bott_sums(m: int, n: int, r: int) -> tuple:
    """The integrals of ``_bott_integrals`` at k = 0..kappa, kappa = 2r(m - r),
    for 2r <= m only; memoized, so immutable.

    The torus weights are x_j = 2j - (n-1) on C^n and y_l = -(2l - (m-1))
    on C^m, so the tensor roots are the integers x_j + y_l; zero roots are
    factors 1.  At a fixed point (I, J) the tangent weights are x_j - x_i
    (i in I, j not in I) and y_l - y_i (i in J, l not in J): the second
    factor follows its own weights -(2l - (m-1)), not 2l - (m-1).  The
    point contributes (-1)^K h_k(quotient roots) h_(K-k)(sub roots) over
    e_I * e_J, since s_k = (-1)^k h_k.

    The reflection j -> n-1-j, l -> m-1-l negates every root and tangent
    weight, which leaves each contribution unchanged (both sides have
    degree K), so J runs over the subsets up to the mirror, counted twice
    unless J is its own mirror.  For each J, I walks the revolving-door
    order and both h-series stay running series: a swap of I from x_out to
    x_in = x_out + d removes the quotient roots x_in + y and adds x_out + y,
    y in quot2, and the sub series does the reverse over sub2.  x_in + y
    equals x_out + y' exactly when y' = y + d, and such a pair cancels
    exactly in Z[t]/t^N, so the swap applies, through ``_reweight``, only
    the roots ``_unpartnered`` keeps, tabled once per J for each shift d of
    the walk.  e_I is computed once per walk.  The sum runs over the common
    denominator L1 * L2, the lcms of the Euler classes on each factor, and
    the final division is checked to be exact.

    The quotient series stop at degree top = kappa; the sub series still
    reach K, since degree k reads hs[K - k].  At 2r = m the rank is its own
    dual and the integrals are a palindrome in k, so top = kappa/2: that
    half is summed and checked for exact division, and it is returned
    followed by its mirror, kappa + 1 entries as at any other rank.
    """
    big_k = profile_length(m, n, r) - 1
    kappa = 2 * r * (m - r)
    top = kappa // 2 if 2 * r == m else kappa
    xs = [2 * j - (n - 1) for j in range(n)]
    ys = [(m - 1) - 2 * l for l in range(m)]
    walk = _revolving_door(n, r)
    e1 = [_euler(sub, xs) for sub in walk]
    l1 = lcm(*e1)
    # the weights leaving and entering S1 on the way to each subset of the walk
    swaps = [None] + [
        (xs[(set(prev) - set(sub)).pop()], xs[(set(sub) - set(prev)).pop()])
        for prev, sub in pairwise(walk)
    ]
    shifts = {x_in - x_out for x_out, x_in in swaps[1:]}
    moves = list(zip(swaps, [l1 // e for e in e1]))
    sub1 = [xs[i] for i in walk[0]]
    quot1 = [x for i, x in enumerate(xs) if i not in walk[0]]
    halves = []  # (J, 2 unless J is its own mirror) for J up to the mirror
    for sub in combinations(range(m), r):
        mirror = tuple(m - 1 - l for l in reversed(sub))
        if sub <= mirror:
            halves.append((sub, 1 if sub == mirror else 2))
    e2 = [_euler(sub, ys) for sub, _ in halves]
    l2 = lcm(*e2)
    totals = [0] * (top + 1)
    for (sub, count), e in zip(halves, e2):
        sub2 = [ys[l] for l in sub]
        quot2 = [y for l, y in enumerate(ys) if l not in sub]
        hq = _reweight([1] + [0] * top, (), [x + y for x in quot1 for y in quot2])
        hs = _reweight([1] + [0] * big_k, (), [x + y for x in sub1 for y in sub2])
        keep_q, keep_s = _unpartnered(quot2, shifts), _unpartnered(sub2, shifts)
        acc = [0] * (top + 1)
        for swap, w1 in moves:
            if swap:
                x_out, x_in = swap
                ins, outs = keep_q[x_in - x_out]
                hq = _reweight(hq, [x_in + y for y in ins], [x_out + y for y in outs])
                ins, outs = keep_s[x_in - x_out]
                hs = _reweight(hs, [x_out + y for y in outs], [x_in + y for y in ins])
            acc = [t + w1 * a * b for t, a, b in zip(acc, hq, reversed(hs))]
        w2 = count * (l2 // e)
        totals = [t + w2 * a for t, a in zip(totals, acc)]
    denom = l1 * l2
    if any(total % denom for total in totals):
        raise ConsistencyError(
            f"Bott sums for (m, n, r) = ({m}, {n}, {r}) are not divisible by their "
            f"denominator {denom}: {totals}"
        )
    sign = (-1) ** big_k
    half = tuple(sign * (total // denom) for total in totals)
    return half + half[top - 1::-1] if top < kappa else half


def _schubert_integrals(m: int, n: int, r: int) -> list:
    """The same integrals from the Lascoux Segre series of both tensor
    bundles in the Schubert basis, paired by box complement."""
    from .tensor_calculus import QUOT_TENSOR, SUB_TENSOR, ProdSpec, pair_prod, segre_tensor

    spec = ProdSpec(r, n, m)
    big_k = spec.dim
    s_quot = segre_tensor(spec, QUOT_TENSOR, big_k)
    s_sub = segre_tensor(spec, SUB_TENSOR, big_k)
    return [pair_prod(s_quot[k], s_sub[big_k - k]) for k in range(big_k + 1)]


def _check_closed_forms(m: int, n: int, r: int, values):
    """The zeroth value is the degree prod_i C(n+i, r) / C(r+i, r), i < m-r;
    the alternating sum is C(m, r); values[k] is nonzero exactly for
    k <= 2r(m - r); no value is negative; the alternating first moment
    sum_k (-1)^k k values[k] is r(m - r) C(m, r); at 2r = m the values
    k <= kappa read the same backwards.  Tested in that order; only the first
    form that fails builds its message.

    The moment: Piene's formula inverted makes sum_k (-1)^k (d - k) values[k],
    d the germ's dimension, the top Chern-Mather degree of X = P(rank <= r),
    which is chi(Eu_X) (MacPherson), with Eu_X = C(m - p, r - p) on the rank-p
    stratum.  The torus fixes only the mn matrix units of P(C^(m x n)), all of
    rank 1, so only that stratum has chi != 0, namely mn: the degree is
    mn C(m - 1, r - 1) = nr C(m, r), and the moment is (d - nr) C(m, r).

    The palindrome: the rank <= r locus is dual to the rank <= m - r locus
    (Kleiman), and values[k] of the one is values[kappa - k] of the other, so
    a rank that is its own dual reads the same backwards."""
    degree = prod(comb(n + i, r) for i in range(m - r)) // prod(
        comb(r + i, r) for i in range(m - r)
    )
    kappa, alt = 2 * r * (m - r), comb(m, r)
    evens, odds = values[0::2], values[1::2]
    if values[0] != degree:
        what = f"zeroth value is not the degree {degree}"
    elif sum(evens) - sum(odds) != alt:
        what = f"alternating sum is not C(m, r) = {alt}"
    elif not all(values[:kappa + 1]) or any(values[kappa + 1:]):
        what = f"nonzero values are not exactly k <= {kappa}"
    elif min(values) < 0:
        what = "a value is negative"
    elif (sum(map(mul, range(0, len(values), 2), evens))
          - sum(map(mul, range(1, len(values), 2), odds))) != r * (m - r) * alt:
        what = f"alternating first moment is not r(m - r) C(m, r) = {r * (m - r) * alt}"
    elif 2 * r == m and values[:kappa + 1] != values[kappa::-1]:
        what = "self-dual profile is not a palindrome"
    else:
        return
    raise ConsistencyError(f"polar profile of (m, n, r) = ({m}, {n}, {r}): {what}: {values}")


def _profile(m: int, n: int, r: int, integrals) -> PolarProfile:
    """Normalize one route's integrals, values[k] = (-1)^k * integral_k, and
    check them against the closed forms of ``_check_closed_forms``.

    The degenerate r = 0 germ is the reduced origin; both routes give it the
    single integral 1, so its profile is (1).
    """
    _validate_params(m, n, r)
    values = tuple((-1) ** k * v for k, v in enumerate(integrals(m, n, r)))
    _check_closed_forms(m, n, r, values)
    return PolarProfile(m, n, r, values, sign_record(m, n, r))


def compute_polar_profile(m: int, n: int, r: int) -> PolarProfile:
    """Evaluate the full profile for one (m, n, r) by Bott's formula over the
    torus fixed points, checked against the closed forms: the production
    route.  It never reads the on-disk cache, so a served profile never
    stands in for it; it shares the Bott sums of ``_bott_sums`` with every
    earlier computation of the cell or its dual rank in the process, and a
    repeated cell costs only the normalization and the closed-form check."""
    return _profile(m, n, r, _bott_integrals)


def certify_polar_profile(m: int, n: int, r: int) -> PolarProfile:
    """The same profile through the independent Schubert-basis route; used
    to certify computed or cached profiles."""
    return _profile(m, n, r, _schubert_integrals)


def euler_obstruction(m: int, n: int, r: int, i: int,
                      profile=compute_polar_profile) -> int:
    """Local Euler obstruction of the germ sliced by a generic plane of
    codimension i - 1: the alternating sum of the polar multiplicities,

        sum_{j=i..d} (-1)^(d-j) * values[d - j],   d = (m+n)r - r^2,

    with values beyond the profile range contributing zero.  At i = d the
    single surviving term is the multiplicity (the slice is a reduced curve).
    ``profile`` maps (m, n, r) to the PolarProfile to sum, for example one
    the command line served from its cache.
    """
    _validate_params(m, n, r)
    d = germ_dim(m, n, r)
    if not 0 <= i <= d:
        raise DomainError(f"obstruction index i={i} outside 0..{d}")
    values = profile(m, n, r).values[: d - i + 1]
    return sum(values[0::2]) - sum(values[1::2])
