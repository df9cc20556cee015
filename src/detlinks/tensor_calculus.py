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

All four series come in closed form from two finite classes:

* Lascoux's formula (C. R. Acad. Sci. Paris 286, 1978; Macdonald,
  Symmetric Functions and Hall Polynomials, I.4 Ex. 5): for roots x of S1
  (rank r) and y of a bundle F of rank f,

      prod (1 + x_i + y_j) = sum over mu in lam in (f^r) of
          det[C(lam_i + r - i, mu_j + r - j)] * s_mu(x) * s_nu(y),

  with nu = (r - lam'_f, ..., r - lam'_1), not conjugated.  In the Schubert
  basis s_mu(S1) = (-1)^|mu| sigma_mu, s_nu(S2) = (-1)^|nu| sigma_nu and
  s_nu(Q2) = sigma_nu', the class at ``box_complement(lam, r, m - r)``;
  classes outside a box vanish.  This gives c(S1 (x) S2) and c(S1 (x) Q2).

* S + Q is trivial on each factor, so c(Q1 (x) Q2) = c(S1 (x) S2) c(Q1)^m
  c(Q2)^n, s(Q1 (x) Q2) = c(S1 (x) Q2) c(S2)^n and s(S1 (x) S2) =
  c(S1 (x) Q2) c(Q1)^m.  Each power lives on one factor and multiplies each
  distinct key of the Lascoux class on that factor once.  Nothing is
  recursive, and the one memo keeps the last Lascoux class, which both Segre
  series of one cell share.

The validator expands the product of (1 + a_i + b_j) over formal Chern
roots into a universal polynomial in the factor Chern classes, memoized
per rank pair and degree; it blows up with the ranks and certifies the
Chern series at small scale.  The Bott route in ``polar`` certifies the
Segre series through the polar integrals.
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
    chern_list_quot,
    chern_list_sub,
    mul,
)
from .partitions import (
    SparseElement,
    as_partition,
    box_complement,
    conjugate,
    partitions_in_box,
    weight,
)

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


def mul_prod(a: ProdClass, b: ProdClass) -> ProdClass:
    """Factorwise product with truncation outside either box."""
    if a.spec != b.spec:
        raise ValueError(f"mismatched product specs {a.spec} and {b.spec}")
    r = a.spec.r
    cols1, cols2 = a.spec.n - r, a.spec.m - r
    acc = {}
    for (l1, m1), c1 in a.coords.items():
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
    return ProdClass._trusted(a.spec, acc)


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


def _det(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination; each division is exact."""
    a, sign, prev = [list(row) for row in rows], 1, 1
    for k in range(len(a) - 1):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, len(a)):
            a[i] = [(x * a[k][k] - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


@lru_cache(maxsize=1)
def _lascoux(spec: ProdSpec, bundle: str) -> ProdClass:
    """c(S1 (x) F) for F = S2 (bundle SUB_TENSOR) or F = Q2 (QUOT_TENSOR),
    by Lascoux's finite formula in the conventions of the module docstring."""
    r, cols1, cols2 = spec.r, spec.n - spec.r, spec.m - spec.r
    f = r if bundle == SUB_TENSOR else cols2
    coords = {}
    for lam in partitions_in_box(r, f):
        if bundle == SUB_TENSOR:
            nu = box_complement(conjugate(lam), r, r)
            if nu and nu[0] > cols2:
                continue
            sign = (-1) ** weight(nu)
        else:
            nu, sign = box_complement(lam, r, f), 1
        padded = lam + (0,) * (r - len(lam))
        rows = [p + r - i for i, p in enumerate(padded, 1)]
        for mu in partitions_in_box(r, min(padded[0] if r else 0, cols1)):
            if all(a <= b for a, b in zip(mu, padded)):
                cols = [p + r - j for j, p in enumerate(mu + (0,) * (r - len(mu)), 1)]
                d = _det([[comb(a, b) for b in cols] for a in rows])
                coords[(mu, nu)] = (-1) ** weight(mu) * sign * d
    return ProdClass._trusted(spec, coords)


def _times_power(coords: dict, factor: int, chern: list, exponent: int) -> dict:
    """coords times sum(chern)^exponent, a class on one factor (0 or 1):
    each distinct key of coords on that factor is multiplied by it once."""
    total, power = sum(chern[1:], chern[0]), chern[0]
    for _ in range(exponent):
        power = mul(power, total)
    others = {}
    for key, c in coords.items():
        others.setdefault(key[factor], []).append((key[1 - factor], c))
    out = {}
    for lam, rest in others.items():
        for nu, cn in mul(GrassClass._trusted(power.spec, {lam: 1}), power).coords.items():
            for other, c in rest:
                key = (nu, other) if factor == 0 else (other, nu)
                out[key] = out.get(key, 0) + cn * c
    return out


def _tensor_series(spec: ProdSpec, flavor: str, bundle: str, up_to: int) -> tuple:
    """Chern or Segre series of a tensor bundle through degree up_to: one
    Lascoux class times powers of factor Chern classes, split by degree."""
    if bundle not in (SUB_TENSOR, QUOT_TENSOR):
        raise ValueError(f"unknown bundle tag {bundle!r}")
    cq1, cq2 = chern_list_quot(spec.factor1), chern_list_quot(spec.factor2)
    if flavor == "chern":
        coords = _lascoux(spec, SUB_TENSOR).coords
        if bundle == QUOT_TENSOR:
            coords = _times_power(_times_power(coords, 0, cq1, spec.m), 1, cq2, spec.n)
    elif bundle == QUOT_TENSOR:
        cs2 = chern_list_sub(spec.factor2)
        coords = _times_power(_lascoux(spec, QUOT_TENSOR).coords, 1, cs2, spec.n)
    else:
        coords = _times_power(_lascoux(spec, QUOT_TENSOR).coords, 0, cq1, spec.m)
    terms = [{} for _ in range(up_to + 1)]
    for key, c in coords.items():
        k = weight(key[0]) + weight(key[1])
        if k <= up_to:
            terms[k][key] = c
    return tuple(ProdClass._trusted(spec, t) for t in terms)


def _clamp(spec: ProdSpec, up_to: int) -> int:
    if up_to < 0:
        raise DomainError("series degree must be nonnegative")
    return min(up_to, spec.dim)


def chern_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Total Chern class of the tensor bundle, truncated at degree ``up_to``.

    Requests above dim G are clamped: every class vanishes there anyway.
    """
    up_to = _clamp(spec, up_to)
    return CharSeries(spec, "chern", bundle, _tensor_series(spec, "chern", bundle, up_to))


def segre_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Segre series s = c(-E) of the tensor bundle, truncated at ``up_to``.

    Built from c(S1 (x) Q2) without the Chern series; requests above dim G
    are clamped as in chern_tensor.
    """
    up_to = _clamp(spec, up_to)
    return CharSeries(spec, "segre", bundle, _tensor_series(spec, "segre", bundle, up_to))


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
    Lascoux series at small scale.
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
