"""Characteristic classes of tensor bundles on a product of two Grassmannians.

The product ring H*(Grass(r, n) x Grass(r, m)) is handled factorwise in the
Schubert basis; its elements are ``ProdClass``, the
``partitions.SparseElement`` keyed by pairs of partitions.  The classes
the polar integrals consume are the Segre classes of the two tensor
bundles built from the tautological pairs: the product of the subbundles
(rank r^2) and the product of the quotient bundles (rank (n-r)(m-r)).
Polar profiles are computed by torus localization in ``polar``; this
module is the Schubert route that certifies them
(``polar.certify_polar_profile``, ``--verify``).

Two independent routes compute the Chern series and both are kept:

* the Newton path works entirely inside the finite product ring.  Power
  sums of the factor bundles come from the Newton identities, power sums of
  a tensor product are binomial convolutions, and the Newton identities are
  run backwards to recover Chern classes, or, on the negated power sums, the
  Segre classes s(E) = c(-E).  Every intermediate value is fully reduced
  into the Schubert basis, so nothing grows beyond the ring's rank; the one
  division (by k in the k-th Newton step) is checked to be exact.  Each
  call computes its series afresh and nothing is memoized: the certifier
  asks once for each (spec, bundle).

* the validator expands the product of (1 + a_i + b_j) over formal Chern
  roots once per rank pair and degree, rewrites it in elementary symmetric
  terms, memoizes that universal polynomial, and evaluates it on the factor
  Chern classes.  This route blows up combinatorially for large ranks and is
  only used at small scale to certify the Newton path; the identity
  c * s = 1 certifies the Segre series against the Chern series.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import ConsistencyError, DomainError
from .grass_ring import (
    GrassClass,
    GrassSpec,
    _mul_basis,
    _mul_into,
    chern_list_quot,
    chern_list_sub,
)
from .partitions import SparseElement, as_partition, box_complement, conjugate

SUB_TENSOR = "sub_tensor"
QUOT_TENSOR = "quot_tensor"


@dataclass(frozen=True)
class ProdSpec:
    """Spec for the product ring H*(Grass(r, n) x Grass(r, m)), r <= m <= n."""

    r: int
    n: int
    m: int

    def __post_init__(self):
        if not 0 <= self.r <= self.m <= self.n:
            raise DomainError(
                f"need 0 <= r <= m <= n, got r={self.r}, m={self.m}, n={self.n}"
            )

    @property
    def factor1(self) -> GrassSpec:
        return GrassSpec(self.r, self.n)

    @property
    def factor2(self) -> GrassSpec:
        return GrassSpec(self.r, self.m)

    @property
    def dim(self) -> int:
        return self.factor1.dim + self.factor2.dim

    @property
    def rank(self) -> int:
        return self.factor1.rank * self.factor2.rank

    @property
    def box(self) -> tuple:
        return (self.factor1.box, self.factor2.box)


class ProdClass(SparseElement):
    """Element of the product ring: ``spec`` is a ProdSpec and ``coords`` a
    sparse map (partition, partition) -> int."""

    __slots__ = ()

    @staticmethod
    def _key(spec, key):
        lam, mu = key
        return GrassClass._key(spec.factor1, lam), GrassClass._key(spec.factor2, mu)

    @classmethod
    def unit(cls, spec):
        return cls(spec, {((), ()): 1})

    @classmethod
    def schubert_pair(cls, spec, lam, mu):
        return cls(spec, {(as_partition(lam), as_partition(mu)): 1})

    @classmethod
    def tensor(cls, spec, a: GrassClass, b: GrassClass):
        """Kuenneth embedding of a pair of single-factor classes."""
        if a.spec != spec.factor1 or b.spec != spec.factor2:
            raise ValueError("factor classes do not match the product spec")
        coords = {}
        for lam, ca in a.coords.items():
            for mu, cb in b.coords.items():
                coords[(lam, mu)] = ca * cb
        return cls(spec, coords)

    def _mul(self, other):
        return mul_prod(self, other)

    def __repr__(self):
        terms = " + ".join(
            f"{c}*s{list(l)}x{list(m)}" for (l, m), c in sorted(self.coords.items())
        )
        return f"<ProdClass r={self.spec.r} n={self.spec.n} m={self.spec.m}: {terms or '0'}>"


def _mul_prod_into(acc: dict, a: ProdClass, b: ProdClass, scale: int = 1) -> dict:
    """Add scale * a * b into the coordinate dict ``acc``, factorwise, with
    truncation outside either box; zero coefficients may remain in ``acc``."""
    r = a.spec.r
    cols1, cols2 = a.spec.n - r, a.spec.m - r
    for (l1, m1), c1 in a.coords.items():
        c1 *= scale
        for (l2, m2), c2 in b.coords.items():
            left = _mul_basis(r, cols1, l1, l2) if l1 >= l2 else _mul_basis(r, cols1, l2, l1)
            if not left:
                continue
            right = _mul_basis(r, cols2, m1, m2) if m1 >= m2 else _mul_basis(r, cols2, m2, m1)
            c = c1 * c2
            for lam, cl in left:
                cl *= c
                for mu, cm in right:
                    key = (lam, mu)
                    acc[key] = acc.get(key, 0) + cl * cm
    return acc


def mul_prod(a: ProdClass, b: ProdClass) -> ProdClass:
    """Factorwise product with truncation outside either box."""
    if a.spec != b.spec:
        raise ValueError(f"mismatched product specs {a.spec} and {b.spec}")
    return ProdClass._trusted(a.spec, _mul_prod_into({}, a, b))


def integrate_prod(a: ProdClass) -> int:
    """Coefficient of the (box, box) class."""
    return a.coords.get(a.spec.box, 0)


def pair_prod(a: ProdClass, b: ProdClass) -> int:
    """integrate_prod(mul_prod(a, b)) by the box-complement pairing.

    The Schubert basis of each factor is self-dual up to box complement, so
    only b's coefficient at the factorwise complement of each key of a
    contributes.
    """
    if a.spec != b.spec:
        raise ValueError(f"mismatched product specs {a.spec} and {b.spec}")
    r = a.spec.r
    cols1, cols2 = a.spec.n - r, a.spec.m - r
    total = 0
    for (lam, mu), c in a.coords.items():
        c2 = b.coords.get((box_complement(lam, r, cols1), box_complement(mu, r, cols2)))
        if c2:
            total += c * c2
    return total


@dataclass(frozen=True)
class CharSeries:
    """Truncated characteristic-class series of one tensor bundle.

    ``terms[k]`` is the homogeneous degree-k part, fully reduced; term 0 is
    the unit class.
    """

    spec: ProdSpec
    flavor: str  # "chern" | "segre"
    bundle: str  # SUB_TENSOR | QUOT_TENSOR
    terms: tuple

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, k):
        return self.terms[k]


def _factor_chern(spec: ProdSpec, bundle: str):
    """Chern class lists [1, c_1, ..., c_rank] of the two factor bundles
    being tensored; a list's length is its bundle's rank plus one."""
    if bundle == SUB_TENSOR:
        return chern_list_sub(spec.factor1), chern_list_sub(spec.factor2)
    if bundle == QUOT_TENSOR:
        return chern_list_quot(spec.factor1), chern_list_quot(spec.factor2)
    raise ValueError(f"unknown bundle tag {bundle!r}")


def _newton_power_sums(chern: list, up_to: int) -> list:
    """Power sums p_0..p_up_to of a bundle from its Chern classes.

    p_0 is rank * unit; then p_k = sum_{i<k} (-1)^(i-1) c_i p_{k-i}
    + (-1)^(k-1) k c_k with c_i = 0 beyond the rank.
    """
    spec = chern[0].spec
    rank = len(chern) - 1
    ps = [GrassClass._trusted(spec, {(): rank})]
    for k in range(1, up_to + 1):
        acc = {}
        for i in range(1, min(k, rank + 1)):
            _mul_into(acc, chern[i], ps[k - i], 1 if i % 2 else -1)
        if k <= rank:
            _mul_into(acc, chern[k], chern[0], (-1) ** (k - 1) * k)
        ps.append(GrassClass._trusted(spec, acc))
    return ps


def _tensor_series(spec: ProdSpec, bundle: str, up_to: int, sign: int) -> tuple:
    """Chern (sign 1) or Segre (sign -1) series of a tensor bundle through
    degree up_to, computed afresh on every call.

    The tensor power sums are binomial convolutions of the factor power
    sums, p_k(E (x) F) = sum_i C(k, i) p_i(E) p_{k-i}(F).  Newton's
    identities k c_k = sum_{i=1..k} (-1)^(i-1) c_{k-i} p_i give the Chern
    classes from them; since s(E) = c(-E) and p_i(-E) = -p_i(E), the same
    recursion on the negated power sums gives the Segre classes.  The
    division by k is checked to be exact.
    """
    c1, c2 = _factor_chern(spec, bundle)
    ps1, ps2 = _newton_power_sums(c1, up_to), _newton_power_sums(c2, up_to)
    power = [None]  # p_0 never enters the recursion
    series = [ProdClass.unit(spec)]
    for k in range(1, up_to + 1):
        acc = {}
        for i in range(k + 1):
            for lam, ca in ps1[i].coords.items():
                for mu, cb in ps2[k - i].coords.items():
                    acc[(lam, mu)] = acc.get((lam, mu), 0) + comb(k, i) * ca * cb
        power.append(ProdClass._trusted(spec, acc))
        acc = {}
        for i in range(1, k + 1):
            _mul_prod_into(acc, series[k - i], power[i], sign if i % 2 else -sign)
        if any(c % k for c in acc.values()):
            raise ConsistencyError(
                f"inexact division by {k} while solving the Newton identities on {spec}"
            )
        series.append(ProdClass._trusted(spec, {key: c // k for key, c in acc.items()}))
    return tuple(series)


def _clamp(spec: ProdSpec, up_to: int) -> int:
    if up_to < 0:
        raise DomainError("series degree must be nonnegative")
    return min(up_to, spec.dim)


def chern_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Total Chern class of the tensor bundle, truncated at degree ``up_to``.

    Requests above dim G are clamped: every class vanishes there anyway.
    """
    up_to = _clamp(spec, up_to)
    return CharSeries(spec, "chern", bundle, _tensor_series(spec, bundle, up_to, 1))


def segre_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Segre series s = c(-E) of the tensor bundle, truncated at ``up_to``.

    Solved by Newton's identities on the negated power sums, without building
    the Chern series; requests above dim G are clamped as in chern_tensor.
    """
    up_to = _clamp(spec, up_to)
    return CharSeries(spec, "segre", bundle, _tensor_series(spec, bundle, up_to, -1))


# ---------------------------------------------------------------------------
# validator: universal polynomials from formal Chern roots
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tensor_root_expansion(p: int, q: int, up_to: int):
    """Product of (1 + a_i + b_j) over i < p, j < q, truncated above total
    degree up_to, as a dict of exponent tuples of length p + q."""
    poly = {(0,) * (p + q): 1}
    for i in range(p):
        for j in range(q):
            nxt = {}
            for expo, c in poly.items():
                nxt[expo] = nxt.get(expo, 0) + c
                if sum(expo) < up_to:
                    for pos in (i, p + j):
                        bumped = expo[:pos] + (expo[pos] + 1,) + expo[pos + 1:]
                        nxt[bumped] = nxt.get(bumped, 0) + c
            poly = nxt
    return poly


@lru_cache(maxsize=None)
def _elementary_block(p: int, q: int, k: int, block: int):
    """e_k in the first block of p variables (block 0) or the last q (block 1)."""
    nvars = p + q
    lo, hi = (0, p) if block == 0 else (p, p + q)
    idxs = range(lo, hi)
    out = {}

    def rec(start, left, expo):
        if left == 0:
            out[tuple(expo)] = 1
            return
        for v in range(start, hi - left + 1):
            expo[v] = 1
            rec(v + 1, left - 1, expo)
            expo[v] = 0

    if k <= hi - lo:
        rec(lo, k, [0] * nvars)
    return out


@lru_cache(maxsize=None)
def _e_product_expansion(p: int, q: int, alpha: tuple, beta: tuple):
    """Monomial expansion of prod e_{alpha_i}(a-block) * prod e_{beta_j}(b-block)."""
    poly = {(0,) * (p + q): 1}
    factors = [(k, 0) for k in alpha] + [(k, 1) for k in beta]
    for k, block in factors:
        fac = _elementary_block(p, q, k, block)
        nxt = {}
        for e1, c1 in poly.items():
            for e2, c2 in fac.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        poly = nxt
    return poly


@lru_cache(maxsize=None)
def universal_tensor_chern(p: int, q: int, k: int):
    """c_k of a tensor product of bundles of ranks (p, q) as a universal
    polynomial: tuple of (alpha, beta, coeff) meaning
    coeff * prod_i c_{alpha_i}(E) * prod_j c_{beta_j}(F).

    Computed once per (rank pair, degree) by symmetrizing the Chern-root
    product, then reused.  Exponentially large in the ranks; validator only.
    """
    if k == 0:
        return (((), (), 1),)
    if p == 0 or q == 0:
        return ()
    full = _tensor_root_expansion(p, q, k)
    f = {e: c for e, c in full.items() if sum(e) == k and c}
    out = []
    while f:
        lead = max(f)
        c = f[lead]
        a_part = as_partition(tuple(x for x in lead[:p] if x))
        b_part = as_partition(tuple(x for x in lead[p:] if x))
        if tuple(sorted(lead[:p], reverse=True)) != lead[:p] or \
           tuple(sorted(lead[p:], reverse=True)) != lead[p:]:
            raise ConsistencyError("leading monomial of a symmetric remainder is not dominant")
        alpha, beta = conjugate(a_part), conjugate(b_part)
        expansion = _e_product_expansion(p, q, alpha, beta)
        for e, ec in expansion.items():
            nc = f.get(e, 0) - c * ec
            if nc:
                f[e] = nc
            else:
                f.pop(e, None)
        out.append((alpha, beta, c))
    return tuple(out)


def chern_tensor_via_roots(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Validator route: evaluate the universal polynomials on the factors.

    Slow and memory-hungry for large ranks; meant for cross-checking the
    Newton series at small scale.
    """
    up_to = _clamp(spec, up_to)
    c1, c2 = _factor_chern(spec, bundle)
    p, q = len(c1) - 1, len(c2) - 1
    unit1, unit2 = GrassClass.unit(spec.factor1), GrassClass.unit(spec.factor2)
    terms = []
    for k in range(up_to + 1):
        acc = ProdClass.zero(spec)
        for alpha, beta, coeff in universal_tensor_chern(p, q, k):
            left = unit1
            for idx in alpha:
                left = left * c1[idx]
            right = unit2
            for idx in beta:
                right = right * c2[idx]
            acc = acc + coeff * ProdClass.tensor(spec, left, right)
        terms.append(acc)
    return CharSeries(spec, "chern", bundle, tuple(terms))
