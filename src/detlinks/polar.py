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
both tensor bundles in the Schubert basis (``tensor_calculus``).

The published values are the absolute values; the signed integrals strictly
alternate in k, and that alternation is verified on every profile rather
than assumed.  A failure means a convention bug and aborts with a diagnostic
instead of silently flipping signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm, prod

from .errors import ConsistencyError, DomainError
from .tensor_calculus import (
    QUOT_TENSOR,
    SUB_TENSOR,
    ProdSpec,
    pair_prod,
    segre_tensor,
)


@dataclass(frozen=True)
class PolarProfile:
    """All polar multiplicities of one germ: values[k] for k = 0..(m+n)r-2r^2.

    ``raw_signs[k]`` records the sign the unnormalized integral carries at
    position k (the strictly alternating pattern, extended through zero
    entries), keeping the Segre-convention audit trail next to the
    normalized values.
    """

    m: int
    n: int
    r: int
    values: tuple
    raw_signs: tuple

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def value(self, k: int) -> int:
        """values[k], zero beyond the stored range, error for k < 0."""
        if k < 0:
            raise DomainError(f"polar index k={k} is negative")
        return self.values[k] if k <= self.k_max else 0


def _validate_params(m: int, n: int, r: int):
    if not (0 <= r <= m <= n):
        raise DomainError(f"need 0 <= r <= m <= n, got m={m}, n={n}, r={r}")


def _fixed_points(size: int, r: int, sign: int) -> list:
    """(sub indices, quotient indices, tangent Euler class) at every torus
    fixed point of Grass(r, size) when C^size has weights sign * j.  The
    tangent space Hom(S, Q) has weights sign * (j - i), i in S, j in Q."""
    points = []
    for sub in combinations(range(size), r):
        quot = [j for j in range(size) if j not in sub]
        points.append((sub, quot, prod(sign * (j - i) for i in sub for j in quot)))
    return points


def _h_series(seed: int, roots: list, top: int) -> list:
    """seed * h_k(roots) for k = 0..top: the series seed / prod (1 - x t)."""
    h = [seed] + [0] * top
    for x in roots:
        prev = seed
        for k in range(1, top + 1):
            prev = h[k] = h[k] + x * prev
    return h


def _bott_integrals(m: int, n: int, r: int) -> list:
    """integral of s_k(Q1 (x) Q2) * s_(K-k)(S1 (x) S2) over G, k = 0..K, by
    Bott's residue formula.

    The torus weights are j on C^n and -l on C^m, so every tensor root is
    the integer j - l; zero roots contribute a factor 1 and are skipped.
    A fixed point (I, J) contributes (-1)^K h_k(quotient roots) times
    h_(K-k)(sub roots) over e_I * e_J, since s_k = (-1)^k h_k.  The sum runs
    over the common denominator L1 * L2, the lcms of the Euler classes on
    each factor, and the final division is checked to be exact.
    """
    big_k = (m + n) * r - 2 * r * r
    first, second = _fixed_points(n, r, 1), _fixed_points(m, r, -1)
    l1 = lcm(*(euler for _, _, euler in first))
    l2 = lcm(*(euler for _, _, euler in second))
    totals = [0] * (big_k + 1)
    for sub1, quot1, e1 in first:
        w1 = l1 // e1
        for sub2, quot2, e2 in second:
            hq = _h_series(
                w1 * (l2 // e2), [j - l for j in quot1 for l in quot2 if j != l], big_k
            )
            hs = _h_series(1, [i - l for i in sub1 for l in sub2 if i != l], big_k)
            totals = [t + a * b for t, a, b in zip(totals, hq, reversed(hs))]
    denom = l1 * l2
    if any(total % denom for total in totals):
        raise ConsistencyError(
            f"Bott sums for (m, n, r) = ({m}, {n}, {r}) are not divisible by their "
            f"denominator {denom}: {totals}"
        )
    return [(-1) ** big_k * (total // denom) for total in totals]


def _schubert_integrals(m: int, n: int, r: int) -> list:
    """The same integrals from the Segre series of both tensor bundles in
    the Schubert basis, paired by box complement."""
    spec = ProdSpec(r, n, m)
    big_k = spec.dim
    s_quot = segre_tensor(spec, QUOT_TENSOR, big_k)
    s_sub = segre_tensor(spec, SUB_TENSOR, big_k)
    return [pair_prod(s_quot[k], s_sub[big_k - k]) for k in range(big_k + 1)]


def _profile(m: int, n: int, r: int, integrals) -> PolarProfile:
    """Normalize one route's integrals: prefactor, positivity of the zeroth
    value and strict sign alternation.

    The degenerate r = 0 germ is the reduced origin and gets profile (1).
    """
    _validate_params(m, n, r)
    if r == 0:
        return PolarProfile(m, n, 0, (1,), (1,))
    d = (m + n) * r - r * r
    prefactor = (-1) ** (d - 1)
    signed = [prefactor * v for v in integrals(m, n, r)]
    if signed[0] == 0:
        raise ConsistencyError(
            f"vanishing multiplicity for (m, n, r) = ({m}, {n}, {r}); "
            "the zeroth polar value must be positive"
        )
    phase = 1 if signed[0] > 0 else -1
    signs = tuple(phase * (-1) ** k for k in range(len(signed)))
    for k, v in enumerate(signed):
        if v and (1 if v > 0 else -1) != signs[k]:
            raise ConsistencyError(
                f"raw polar integrals for ({m}, {n}, {r}) do not alternate in sign "
                f"at k={k}: {signed}"
            )
    return PolarProfile(m, n, r, tuple(abs(v) for v in signed), signs)


def compute_polar_profile(m: int, n: int, r: int) -> PolarProfile:
    """Evaluate the full profile for one (m, n, r), bypassing the memo, by
    Bott's formula over the torus fixed points."""
    return _profile(m, n, r, _bott_integrals)


def certify_polar_profile(m: int, n: int, r: int) -> PolarProfile:
    """The same profile through the independent Schubert-basis route; used
    to certify computed or cached profiles."""
    return _profile(m, n, r, _schubert_integrals)


_PROFILES: dict = {}


def polar_profile(m: int, n: int, r: int) -> PolarProfile:
    """Memoized profile."""
    key = (m, n, r)
    if key not in _PROFILES:
        _PROFILES[key] = compute_polar_profile(m, n, r)
    return _PROFILES[key]


def seed_profile(profile: PolarProfile):
    """Install an externally cached profile into the in-memory memo.

    Persisted values are trusted as-is; recomputation happens only through
    an explicit verify pass.
    """
    _PROFILES[(profile.m, profile.n, profile.r)] = profile


def polar_multiplicity(m: int, n: int, r: int, k: int) -> int:
    """Single polar multiplicity: the k-th entry of the (m, n, r) profile."""
    _validate_params(m, n, r)
    profile = polar_profile(m, n, r)
    if not 0 <= k <= profile.k_max:
        raise DomainError(
            f"polar index k={k} outside 0..{profile.k_max} for (m, n, r) = ({m}, {n}, {r})"
        )
    return profile.values[k]


@dataclass(frozen=True)
class DualityReport:
    """Entrywise comparison of a profile with its complementary-rank mirror.

    pairs holds (k, k_dual, value_at_r, value_at_m_minus_r).
    """

    m: int
    n: int
    r: int
    pairs: tuple
    all_equal: bool


def duality_check(m: int, n: int, r: int) -> DualityReport:
    """Compare values[k] at rank r against values[2(m-r)r - k] at rank m - r."""
    _validate_params(m, n, r)
    if not 1 <= r <= m - 1:
        raise DomainError(f"duality needs 1 <= r <= m-1, got r={r}, m={m}")
    left = polar_profile(m, n, r)
    right = polar_profile(m, n, m - r)
    shift = 2 * (m - r) * r
    pairs = []
    ok = True
    for k in range(left.k_max + 1):
        kd = shift - k
        lv = left.value(k)
        rv = right.value(kd) if kd >= 0 else 0
        pairs.append((k, kd, lv, rv))
        ok = ok and lv == rv
    return DualityReport(m, n, r, tuple(pairs), ok)


def euler_obstruction(m: int, n: int, r: int, i: int) -> int:
    """Local Euler obstruction of the germ sliced by a generic plane of
    codimension i - 1: the alternating sum of the polar multiplicities,

        sum_{j=i..d} (-1)^(d-j) * values[d - j],   d = (m+n)r - r^2,

    with values beyond the profile range contributing zero.  At i = d the
    single surviving term is the multiplicity (the slice is a reduced curve).
    """
    _validate_params(m, n, r)
    d = (m + n) * r - r * r
    if not 0 <= i <= d:
        raise DomainError(f"obstruction index i={i} outside 0..{d}")
    profile = polar_profile(m, n, r)
    total = 0
    for j in range(i, d + 1):
        total += (-1) ** (d - j) * profile.value(d - j)
    return total
