"""Characteristic classes of tensor bundles on a product of two Grassmannians.

The product ring H*(Grass(r, n) x Grass(r, m)) is handled factorwise in the
Schubert basis, its classes keyed by pairs of partitions: bare coefficient
dicts on the certifier's path, ``grass_ring.SparseElement``s over a
``ProdSpec`` where the whole-series API returns them (``mul_prod`` and
the ``CharSeries`` terms).  The polar integrals consume the Segre classes
of the two tensor bundles built from the tautological pairs: the product of
the subbundles (rank r^2) and of the quotient bundles (rank (n-r)(m-r)).
Polar profiles are computed by torus localization in ``polar``; this
module is the Schubert route that certifies them
(``polar.certify_polar_profile``, ``--verify``): ``segre_integrals`` pairs
the two Segre classes by box complement and builds only the coordinates
that pairing reads.

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
  c(S1 (x) Q2) c(Q1)^m.  Each power lives on one factor, and
  ``_times_power`` expands each distinct key of the Lascoux class on that
  factor times the power in closed form (c(S2)^n = c(Q2)^(-n)), so no
  Schubert classes are multiplied.  Nothing is recursive and nothing is
  memoized: the certifier builds c(S1 (x) Q2) once per cell.
  ``chern_tensor`` and ``segre_tensor`` build whole series; the certifier
  reads s(S1 (x) S2) only at the box complements of s(Q1 (x) Q2)'s keys,
  one skew value (``grass_ring.skew_at_ones``) per column and Lascoux key.

``ProdSpec``, ``mul_prod``, ``segre_integrals``, ``chern_tensor`` and
``segre_tensor`` trust their callers as ``grass_ring`` does: a spec has
0 <= r <= m <= n, the operands of a product share one spec, every key is a
pair of partitions inside the factor boxes, a bundle is SUB_TENSOR or
QUOT_TENSOR and a series degree is nonnegative.  ``polar._profile`` checks
(m, n, r) before the certifier builds a spec, and this module imports
nothing from ``polar``.

The tests certify the Chern series against a Chern-root expansion into
universal polynomials in the factor Chern classes (``tests/oracles.py``),
at small scale because it blows up with the ranks.  The Bott route in
``polar`` certifies the Segre series through the polar integrals.
"""
from __future__ import annotations

from collections import namedtuple
from math import comb

from .grass_ring import GrassSpec, SparseElement, _det, _mul_basis, skew_at_ones
from .partitions import box_complement, conjugate, partitions_in_box, weight

SUB_TENSOR = "sub_tensor"
QUOT_TENSOR = "quot_tensor"


class ProdSpec(namedtuple("ProdSpec", "r n m")):
    """Spec for the product ring H*(Grass(r, n) x Grass(r, m)), r <= m <= n."""

    __slots__ = ()

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


def segre_integrals(spec: ProdSpec) -> list:
    """integral over G of s_k(Q1 (x) Q2) * s_(K-k)(S1 (x) S2), k = 0..K, by
    the box-complement pairing, reading the second series only where the
    pairing looks.

    With L = c(S1 (x) Q2) = sum L[mu, nu] sigma_mu (x) sigma_nu
    (``_lascoux``), A = s(Q1 (x) Q2) = L c(Q2)^(-n) and B = s(S1 (x) S2) =
    L c(Q1)^m (module docstring).  L's factor-1 keys mu lie in the small
    r x (m - r) box, since mu <= lam <= ((m - r)^r) in Lascoux's sum, and A
    has L's factor-1 keys, since its power acts on factor 2 only.  The
    Schubert basis of each factor is self-dual up to box complement, so
    integral_(|mu| + |beta|) gains A[mu, beta] B[mu^c, beta^c], a term of
    B of degree K - |mu| - |beta|, and no other coordinate of B is read: B
    is needed only on the columns alpha = mu^c, at most C(m, r) of them, not
    on the C(n, r) partitions of Grass(r, n)'s box.  There B[alpha, beta'] =
    sum over L's keys (mu', beta') of L[mu', beta'] s_{alpha/mu'}(1^m), the
    coefficient ``_times_power`` would give sigma_alpha in
    sigma_mu' c(Q1)^m.  Each skew value is computed once per (alpha, mu'),
    and each coordinate of B is read once, so apart from integer sizes the
    cost does not depend on n.
    """
    r, cols1, cols2 = spec.r, spec.n - spec.r, spec.m - spec.r
    lascoux = _lascoux(spec, QUOT_TENSOR)
    seconds = _split(lascoux, 1)
    # skews[mu][mu'] = s_{mu^c/mu'}(1^m), for every pair of L's factor-1 keys
    alphas = {mu: box_complement(mu, r, cols1) for mu, _ in lascoux}
    skews = {mu: {lam: skew_at_ones(alpha, lam, spec.m) for lam in alphas}
             for mu, alpha in alphas.items()}
    out = [0] * (spec.dim + 1)
    for (mu, beta), c in _times_power(lascoux, 1, spec.factor2, -spec.n).items():
        column, rest = skews[mu], seconds.get(box_complement(beta, r, cols2), ())
        out[weight(mu) + weight(beta)] += c * sum(column[lam] * c2 for lam, c2 in rest)
    return out


class CharSeries:
    """Truncated characteristic-class series of one tensor bundle (SUB_TENSOR
    or QUOT_TENSOR).

    ``terms[k]`` is the homogeneous degree-k part, fully reduced; term 0 is
    the unit class.
    """

    __slots__ = ("spec", "bundle", "terms")

    def __init__(self, spec: ProdSpec, bundle: str, terms: tuple):
        self.spec, self.bundle, self.terms = spec, bundle, terms

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, k):
        return self.terms[k]


def _lascoux(spec: ProdSpec, bundle: str) -> dict:
    """The nonzero coefficients of c(S1 (x) F) for F = S2 (bundle SUB_TENSOR)
    or F = Q2 (QUOT_TENSOR), by Lascoux's finite formula in the conventions
    of the module docstring, keyed by pairs of partitions."""
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
                if d := _det([[comb(a, b) for b in cols] for a in rows]):
                    coords[(mu, nu)] = (-1) ** weight(mu) * sign * d
    return coords


def _split(coords: dict, factor: int) -> dict:
    """coords grouped by their key on one factor (0 or 1): that key ->
    [(key on the other factor, coefficient)]."""
    out = {}
    for key, c in coords.items():
        out.setdefault(key[factor], []).append((key[1 - factor], c))
    return out


def _times_power(coords: dict, factor: int, spec: GrassSpec, e: int) -> dict:
    """coords times c(Q)^e of one factor (0 or 1, with ring spec ``spec``),
    for any integer e, in closed form (Macdonald, Symmetric Functions and
    Hall Polynomials, I.4 (4.3) and I.5 (5.4)).

    sigma_lam = s_lam(a) for the roots a of S^v, so c(Q) = prod 1/(1 - a_i),
    and the Cauchy identity at y = 1^e gives c(Q)^e = sum over mu of
    s_mu(a) s_mu(1^e).  Since s_{nu/lam} = sum over mu of c^nu_{lam mu} s_mu,
    s_lam(a) sum_mu s_mu(a) s_mu(y) = sum over nu of s_{nu/lam}(y) s_nu(a);
    truncation to the box is a ring map, so nu runs over the box, and
    sigma_lam c(Q)^e has the coefficient ``skew_at_ones(nu, lam, e)`` at
    sigma_nu.  1^e maps sum h_k t^k to (1 - t)^(-e), a ring map for every
    integer e, so e = -n gives c(S)^n = c(Q)^(-n) exactly.  Each distinct
    key lam of coords on the factor is expanded once; zeros are skipped."""
    box, out = partitions_in_box(spec.r, spec.cols), {}
    for lam, rest in _split(coords, factor).items():
        for nu in box:
            if cn := skew_at_ones(nu, lam, e):
                for other, c in rest:
                    key = (nu, other) if factor == 0 else (other, nu)
                    out[key] = out.get(key, 0) + cn * c
    return out


def _by_degree(spec: ProdSpec, bundle: str, coords: dict, up_to: int) -> CharSeries:
    """coords split by degree into dim G + 1 terms, kept through up_to."""
    terms = [{} for _ in range(spec.dim + 1)]
    for key, c in coords.items():
        terms[weight(key[0]) + weight(key[1])][key] = c
    return CharSeries(spec, bundle, tuple(SparseElement(spec, t) for t in terms[:up_to + 1]))


def chern_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Total Chern class of the tensor bundle through degree min(up_to, dim G)."""
    coords = _lascoux(spec, SUB_TENSOR)
    if bundle == QUOT_TENSOR:
        coords = _times_power(coords, 0, spec.factor1, spec.m)
        coords = _times_power(coords, 1, spec.factor2, spec.n)
    return _by_degree(spec, bundle, coords, up_to)


def segre_tensor(spec: ProdSpec, bundle: str, up_to: int) -> CharSeries:
    """Segre series s = c(-E) of the tensor bundle through degree
    min(up_to, dim G), built from c(S1 (x) Q2) without the Chern series."""
    coords = _lascoux(spec, QUOT_TENSOR)
    if bundle == QUOT_TENSOR:
        coords = _times_power(coords, 1, spec.factor2, -spec.n)
    else:
        coords = _times_power(coords, 0, spec.factor1, spec.m)
    return _by_degree(spec, bundle, coords, up_to)
