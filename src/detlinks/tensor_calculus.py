"""Characteristic classes of tensor bundles on a product of two Grassmannians.

The product ring H*(Grass(r, n) x Grass(r, m)) is handled factorwise in the
Schubert basis; its elements are the ``grass_ring.SparseElement`` over a
``ProdSpec``, keyed by pairs of partitions and multiplied by ``mul_prod``.
The classes the polar integrals consume are the Segre classes of the two
tensor bundles built from the tautological pairs: the product of the
subbundles (rank r^2) and the product of the quotient bundles (rank
(n-r)(m-r)).
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

``ProdSpec``, ``mul_prod`` and ``pair_prod`` trust their callers as
``grass_ring`` does: a spec has 0 <= r <= m <= n, the operands of a
product share one spec, and every key is a pair of partitions inside the
factor boxes.  ``polar._profile`` checks (m, n, r) before the certifier
builds a spec, and this module imports nothing from ``polar``.

The tests certify the Chern series against a Chern-root expansion into
universal polynomials in the factor Chern classes (``tests/oracles.py``),
at small scale because it blows up with the ranks.  The Bott route in
``polar`` certifies the Segre series through the polar integrals.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import DomainError
from .grass_ring import (
    GrassSpec,
    SparseElement,
    _mul_basis,
    mul,
    total_chern_quot,
    total_chern_sub,
)
from .partitions import box_complement, conjugate, partitions_in_box, weight

SUB_TENSOR = "sub_tensor"
QUOT_TENSOR = "quot_tensor"


@dataclass(frozen=True)
class ProdSpec:
    """Spec for the product ring H*(Grass(r, n) x Grass(r, m)), r <= m <= n."""

    r: int
    n: int
    m: int

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


def mul_prod(a: SparseElement, b: SparseElement) -> SparseElement:
    """Factorwise product with truncation outside either box."""
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
    return SparseElement(a.spec, acc)


def integrate_prod(a: SparseElement) -> int:
    """Coefficient of the (box, box) class."""
    return a.coords.get(a.spec.box, 0)


def pair_prod(a: SparseElement, b: SparseElement) -> int:
    """integrate_prod(mul_prod(a, b)) by the box-complement pairing.

    The Schubert basis of each factor is self-dual up to box complement, so
    only b's coefficient at the factorwise complement of each key of a
    contributes.
    """
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
    bundle: str  # SUB_TENSOR | QUOT_TENSOR
    terms: tuple

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, k):
        return self.terms[k]


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
def _lascoux(spec: ProdSpec, bundle: str) -> SparseElement:
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
    return SparseElement(spec, coords)


def _times_power(coords: dict, factor: int, total: SparseElement, exponent: int) -> dict:
    """coords times total^exponent, a class on one factor (0 or 1): each
    distinct key of coords on that factor is multiplied by it once."""
    power = SparseElement(total.spec, {(): 1})
    for _ in range(exponent):
        power = mul(power, total)
    others = {}
    for key, c in coords.items():
        others.setdefault(key[factor], []).append((key[1 - factor], c))
    out = {}
    for lam, rest in others.items():
        for nu, cn in mul(SparseElement(power.spec, {lam: 1}), power).coords.items():
            for other, c in rest:
                key = (nu, other) if factor == 0 else (other, nu)
                out[key] = out.get(key, 0) + cn * c
    return out


def _tensor_series(spec: ProdSpec, flavor: str, bundle: str, up_to: int) -> tuple:
    """Chern or Segre series of a tensor bundle through degree up_to: one
    Lascoux class times powers of factor total Chern classes, split by degree."""
    if bundle not in (SUB_TENSOR, QUOT_TENSOR):
        raise ValueError(f"unknown bundle tag {bundle!r}")
    if flavor == "chern":
        coords = _lascoux(spec, SUB_TENSOR).coords
        if bundle == QUOT_TENSOR:
            coords = _times_power(coords, 0, total_chern_quot(spec.factor1), spec.m)
            coords = _times_power(coords, 1, total_chern_quot(spec.factor2), spec.n)
    else:
        coords = _lascoux(spec, QUOT_TENSOR).coords
        if bundle == QUOT_TENSOR:
            coords = _times_power(coords, 1, total_chern_sub(spec.factor2), spec.n)
        else:
            coords = _times_power(coords, 0, total_chern_quot(spec.factor1), spec.m)
    terms = [{} for _ in range(up_to + 1)]
    for key, c in coords.items():
        k = weight(key[0]) + weight(key[1])
        if k <= up_to:
            terms[k][key] = c
    return tuple(SparseElement(spec, t) for t in terms)


def _clamp(spec: ProdSpec, up_to: int) -> int:
    if up_to < 0:
        raise DomainError("series degree must be nonnegative")
    return min(up_to, spec.dim)


def chern_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Total Chern class of the tensor bundle, truncated at degree ``up_to``.

    Requests above dim G are clamped: every class vanishes there anyway.
    """
    up_to = _clamp(spec, up_to)
    return CharSeries(spec, bundle, _tensor_series(spec, "chern", bundle, up_to))


def segre_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Segre series s = c(-E) of the tensor bundle, truncated at ``up_to``.

    Built from c(S1 (x) Q2) without the Chern series; requests above dim G
    are clamped as in chern_tensor.
    """
    up_to = _clamp(spec, up_to)
    return CharSeries(spec, bundle, _tensor_series(spec, "segre", bundle, up_to))
