"""Polar multiplicities of generic determinantal varieties.

The germ of the rank-below-(r+1) locus inside the space of m x n complex
matrices has polar multiplicities expressible through an intersection
number on G = Grass(r, n) x Grass(r, m): with K = (m+n)r - 2r^2 = dim G
and d = (m+n)r - r^2 the dimension of the germ,

    signed value at k = (-1)^(d-1) * integral over G of
                        s_k(Q1 (x) Q2) * s_(K-k)(S1 (x) S2),

with Segre classes s(E) = c(-E) and the integral read off by the
box-complement pairing.  The published values are the absolute values; the
signed integrals strictly alternate in k, and that alternation is verified
on every profile rather than assumed.  A failure means a convention bug and
aborts with a diagnostic instead of silently flipping signs.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def compute_polar_profile(m: int, n: int, r: int) -> PolarProfile:
    """Evaluate the full profile for one (m, n, r), bypassing the memo.

    The degenerate r = 0 germ is the reduced origin and gets profile (1).
    """
    _validate_params(m, n, r)
    if r == 0:
        return PolarProfile(m, n, 0, (1,), (1,))
    spec = ProdSpec(r, n, m)
    big_k = spec.dim
    d = (m + n) * r - r * r
    s_quot = segre_tensor(spec, QUOT_TENSOR, big_k)
    s_sub = segre_tensor(spec, SUB_TENSOR, big_k)
    prefactor = (-1) ** (d - 1)
    signed = [
        prefactor * pair_prod(s_quot[k], s_sub[big_k - k])
        for k in range(big_k + 1)
    ]
    if signed[0] == 0:
        raise ConsistencyError(
            f"vanishing multiplicity for (m, n, r) = ({m}, {n}, {r}); "
            "the zeroth polar value must be positive"
        )
    phase = 1 if signed[0] > 0 else -1
    signs = tuple(phase * (-1) ** k for k in range(big_k + 1))
    for k, v in enumerate(signed):
        if v and (1 if v > 0 else -1) != signs[k]:
            raise ConsistencyError(
                f"raw polar integrals for ({m}, {n}, {r}) do not alternate in sign "
                f"at k={k}: {signed}"
            )
    return PolarProfile(m, n, r, tuple(abs(v) for v in signed), signs)


_PROFILES: dict = {}


def polar_profile(m: int, n: int, r: int) -> PolarProfile:
    """Memoized profile; successive k-values share the same tensor series."""
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
