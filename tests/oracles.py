"""Reference computations that certify the Schubert calculus, the link
Euler characteristics and the rank duality of the polar profiles, and the
few constructors the tests build classes with.  They live here because only
the tests run them; ``src/`` holds production, the certifier and the four
served commands.

* ``PresentationPoly`` is an integer polynomial in the subbundle Chern
  classes x_1..x_r, the one ``grass_ring.SparseElement`` subclass, with its
  own key check and polynomial product.  ``presentation_h`` iterates the
  recursion whose last step, ``grassmann_relations``, generates the ideal
  J of the presentation H*(Grass(r, m)) = Z[x_1..x_r]/J.
* ``QuotientRingOracle`` builds that quotient in degrees 0..dim + r, one
  Hermite normal form per degree, and verifies that the e-monomials of the
  partitions in the box are a Z-basis of it; that holds for every
  Grass(r, m) with m <= 8, the range the tests certify.  With
  ``schubert_to_presentation`` it certifies the Pieri-recursion products
  of ``grass_ring._mul_basis`` through ``mul``, and its graded ranks
  certify the Grassmannian Betti numbers of ``links.grass_betti``.
* ``euler_step`` computes one Morse step chi(L^i) - chi(L^(i+1)) of the
  complex links as a single term per stratum.  It certifies the Euler
  characteristics of ``links.euler_complex_link``, whose stratum sums
  telescope to those steps.
* ``duality_check`` compares a polar profile with its complementary-rank
  mirror entry by entry (``DualityReport``).  It certifies the rank
  duality of the polar multiplicities of ``polar.compute_polar_profile``.
* ``segre_profile`` gives the whole rank-1 and corank-1 profiles from the
  Chern classes of the Segre variety P^(m-1) x P^(n-1) by Piene's formula.
  It certifies both routes of ``polar`` on those families with no Segre
  class of a tensor bundle, no torus weight and no Schubert class.
* ``chern_tensor_via_roots`` expands the product of (1 + a_i + b_j) over
  formal Chern roots into universal polynomials in the factor Chern
  classes (``universal_tensor_chern``) and evaluates them on the two
  factors.  It certifies the Lascoux series of
  ``tensor_calculus.chern_tensor`` and the coefficient dict of
  ``tensor_calculus._lascoux``.  It blows up with the ranks, so it runs at
  small scale only.

Neither side trusts the other: each reference reaches its numbers without
the route it certifies.  ``as_partition`` and ``fits_in_box`` state what a
canonical key inside a box is, for the tests' key checks.  ``schubert``,
``schubert_pair``, ``prod_unit``, ``constant``, ``integrate`` and
``weighted_degree`` build and read single classes for the tests;
``SparseElement`` checks no key, so they take partitions inside the box.
``total_chern_sub`` and ``total_chern_quot`` are the total Chern classes of
the tautological bundles, a single-column and a single-row sum; their
repeated products, times a Schubert class, are the reference for the skew
values of ``grass_ring.skew_at_ones`` and their expansion
``tensor_calculus._times_power``, and ``chern_list_sub`` and
``chern_list_quot`` split them into their degrees.  ``mul`` is the product
of one Grassmannian: ``tensor_calculus.mul_prod``, the one Schubert product
that ships, with a point, Grass(r, r), as the second factor.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import permutations
from math import comb

from detlinks.errors import ConsistencyError, DomainError
from detlinks.grass_ring import GrassSpec, SparseElement
from detlinks.links import DetSpec, egz_factor, link_strata
from detlinks.partitions import conjugate, weight
from detlinks.polar import _validate_params, compute_polar_profile, germ_dim, profile_length
from detlinks.tensor_calculus import (
    QUOT_TENSOR,
    SUB_TENSOR,
    CharSeries,
    ProdSpec,
    mul_prod,
)


# ---------------------------------------------------------------------------
# polynomial presentation
# ---------------------------------------------------------------------------

class PresentationPoly(SparseElement):
    """Integer polynomial in the subbundle Chern generators x_1..x_r.

    The spec is the number of variables; keys are exponent tuples of that
    length.  The weighted degree convention is deg x_i = i, matching Chern
    degrees.  Unlike the Schubert-basis elements it checks every key, merges
    repeated ones (``terms`` may be a dict or a list of pairs) and
    multiplies polynomials with ``*``.
    """

    __slots__ = ()

    def __init__(self, nvars: int, terms=None):
        data = {}
        for expo, c in (terms.items() if isinstance(terms, dict) else terms or ()):
            expo = tuple(map(int, expo))
            if len(expo) != nvars or min(expo, default=0) < 0:
                raise ValueError(f"bad exponent vector {expo} for {nvars} variables")
            data[expo] = data.get(expo, 0) + int(c)
        super().__init__(nvars, data)

    @classmethod
    def variable(cls, nvars, i):
        """x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} outside 1..{nvars}")
        expo = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {expo: 1})

    @staticmethod
    def _wdeg(expo):
        return sum((i + 1) * e for i, e in enumerate(expo))

    def __mul__(self, other):
        if type(other) is not type(self):
            return super().__mul__(other)
        if other.spec != self.spec:
            return NotImplemented
        data = {}
        for e1, c1 in self.coords.items():
            for e2, c2 in other.coords.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                data[e] = data.get(e, 0) + c1 * c2
        return PresentationPoly(self.spec, data)


def presentation_h(r: int, n_max: int) -> list:
    """Iterates of the relation recursion, starting from h^(0) = (x_1..x_r).

    One step multiplies the vector by the companion-style matrix whose first
    column is (-x_1, ..., -x_r) and whose superdiagonal is the identity:
    h_i^(n+1) = h_{i+1}^(n) - x_i h_1^(n), with h_{r+1}^(n) read as 0.
    Returns [(n, [h_1^(n), ..., h_r^(n)]) for n = 0..n_max].

    Step n presents the ring for ambient dimension m = r + n: the ideal
    generated by h^(m-r) cuts Z[x_1..x_r] down to a free module of rank
    comb(m, r), a fact ``QuotientRingOracle`` checks against the Gaussian
    binomial coefficients.
    """
    if r < 1:
        raise DomainError("presentation needs r >= 1")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    xs = [PresentationPoly.variable(r, i) for i in range(1, r + 1)]
    cur = list(xs)
    out = [(0, list(cur))]
    for n in range(1, n_max + 1):
        h1 = cur[0]
        nxt = [cur[i + 1] - xs[i] * h1 for i in range(r - 1)]
        nxt.append(-(xs[r - 1] * h1))
        out.append((n, nxt))
        cur = nxt
    return out


def grassmann_relations(spec: GrassSpec) -> list:
    """Generators of the ideal presenting H*(Grass(r, m)) on x_1..x_r."""
    if spec.r == 0:
        return []
    return presentation_h(spec.r, spec.cols)[-1][1]


# ---------------------------------------------------------------------------
# single classes
# ---------------------------------------------------------------------------

def as_partition(parts) -> tuple:
    """Normalize ``parts`` into a partition tuple: trailing zeros are
    dropped, and anything not weakly decreasing and positive is rejected."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if p and (p[-1] < 0 or any(p[i] < p[i + 1] for i in range(len(p) - 1))):
        raise ValueError(f"not a partition: {parts!r}")
    return p


def fits_in_box(p: tuple, rows: int, cols: int) -> bool:
    """Whether ``p`` has at most ``rows`` parts, each at most ``cols``."""
    return len(p) <= rows and (not p or p[0] <= cols)


def schubert(spec: GrassSpec, lam) -> SparseElement:
    """The Schubert class of the partition lam; ``schubert(spec, ())`` is the unit."""
    return SparseElement(spec, {as_partition(lam): 1})


def mul(a: SparseElement, b: SparseElement) -> SparseElement:
    """Product in H*(Grass(r, m)), read off ``mul_prod`` on Grass(r, m) x
    Grass(r, r): the second factor is a point, so its key is always ()."""
    spec = ProdSpec(a.spec.r, a.spec.m, a.spec.r)
    a2, b2 = (SparseElement(spec, {(lam, ()): c for lam, c in x.coords.items()}) for x in (a, b))
    return SparseElement(a.spec, {lam: c for (lam, _), c in mul_prod(a2, b2).coords.items()})


def integrate(a: SparseElement) -> int:
    """Coefficient of the full-box class; zero if there is no top component."""
    return a.coords.get(a.spec.box, 0)


def schubert_pair(spec: ProdSpec, lam, mu) -> SparseElement:
    """The product-ring class of the pair of Schubert classes (lam, mu)."""
    return SparseElement(spec, {(as_partition(lam), as_partition(mu)): 1})


def prod_unit(spec: ProdSpec) -> SparseElement:
    return SparseElement(spec, {((), ()): 1})


def constant(nvars: int, c: int) -> PresentationPoly:
    return PresentationPoly(nvars, {(0,) * nvars: c} if c else {})


def weighted_degree(poly: PresentationPoly) -> int | None:
    """Common weighted degree; None for zero, error if inhomogeneous."""
    degs = {poly._wdeg(e) for e in poly.coords}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("polynomial is not weighted-homogeneous")
    return degs.pop()


# ---------------------------------------------------------------------------
# the brute-force quotient-ring oracle
# ---------------------------------------------------------------------------

def _perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def schubert_to_presentation(spec: GrassSpec, lam) -> PresentationPoly:
    """Express a Schubert class as a polynomial in x_1..x_r.

    Column determinant with entries e_{lam'_i - i + j} where e_k stands for
    the k-th Chern class of the dual subbundle, i.e. (-1)^k x_k.
    """
    lam = as_partition(lam)
    if not fits_in_box(lam, spec.r, spec.cols):
        raise ValueError(f"{lam} does not fit the box of {spec}")
    r = spec.r

    def e_poly(k):
        if k == 0:
            return constant(r, 1)
        if k < 0 or k > r:
            return PresentationPoly(r)
        return PresentationPoly.variable(r, k) * ((-1) ** k)

    mu = conjugate(lam)
    ell = len(mu)
    if ell == 0:
        return constant(r, 1)
    acc = PresentationPoly(r)
    for perm in permutations(range(ell)):
        term = constant(r, _perm_sign(perm))
        for i in range(ell):
            term = term * e_poly(mu[i] - i + perm[i])
            if not term.coords:
                break
        acc = acc + term
    return acc


@lru_cache(maxsize=None)
def _weighted_monomials(nvars: int, d: int):
    """Exponent tuples over x_1..x_nvars of weighted degree d, lex descending."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []

    def rec(i, remaining, acc):
        if i == nvars:
            if remaining == 0:
                out.append(acc)
            return
        w = i + 1
        for e in range(remaining // w, -1, -1):
            rec(i + 1, remaining - e * w, acc + (e,))

    rec(0, d, ())
    return tuple(sorted(out, reverse=True))


def _add_multiple(row, q, other):
    """row += q * other for sparse rows {column: entry}, zeros dropped."""
    for t, v in other.items():
        x = row.get(t, 0) + q * v
        if x:
            row[t] = x
        else:
            del row[t]


def _hermite_form(rows):
    """Hermite normal form of the lattice the sparse integer ``rows`` span.

    Rows are maps {column: entry}.  Returns [(column, row), ...] in column
    order: each row vanishes left of its pivot, each pivot entry is
    positive, and the entries of earlier rows at a pivot column lie in
    [0, pivot).  Only unimodular row operations are used, so the lattice is
    unchanged.  Pure big-int arithmetic.
    """
    by_lead = {}
    for row in rows:
        if row:
            by_lead.setdefault(min(row), []).append(dict(row))
    pivots = []
    while by_lead:
        c = min(by_lead)
        having = by_lead.pop(c)
        while len(having) > 1:  # Euclid on column c, the sparsest smallest row first
            having.sort(key=lambda row: (abs(row[c]), len(row)))
            base, rest = having[0], having[1:]
            having = [base]
            for row in rest:
                _add_multiple(row, -(row[c] // base[c]), base)
                if c in row:
                    having.append(row)
                elif row:
                    by_lead.setdefault(min(row), []).append(row)
        row = having[0]
        pivots.append((c, row if row[c] > 0 else {t: -v for t, v in row.items()}))
    for i, (c, piv) in enumerate(pivots):  # piv vanishes left of c: earlier columns stay reduced
        for _, row in pivots[:i]:
            q = row.get(c, 0) // piv[c]
            if q:
                _add_multiple(row, -q, piv)
    return pivots


class QuotientRingOracle:
    """Brute-force model of H*(Grass(r, m)) as Z[x_1..x_r] modulo relations.

    Each weighted-graded piece of the ideal is put in Hermite normal form
    over the monomials, those of exponent sum above m - r first.  The rest,
    the e-monomials of the partitions in the r x (m - r) box, should be a
    Z-basis of the quotient.  That is verified, not assumed: every pivot
    must be 1 (else the quotient may have torsion), every other monomial
    must have a pivot and no relation may be left on the basis, or a
    ``ConsistencyError`` names the degree and the fault.
    Degrees 0..dim + r are reduced.  Those above dim must vanish, and then
    so does every higher degree, because x_1..x_r generate the ring.  Every
    Grass(r, m) with m <= 8 passes.
    """

    SCALE_LIMIT = 200

    def __init__(self, spec: GrassSpec):
        rank = comb(spec.m, spec.r)
        if rank > self.SCALE_LIMIT:
            raise DomainError(f"oracle limited to rank <= {self.SCALE_LIMIT}, got {rank}")
        self.spec = spec
        self._normal = {}  # monomial of degree <= dim -> {basis monomial: coeff}
        ranks = []
        gens = [(weighted_degree(g), g) for g in grassmann_relations(spec)]
        for d in range(spec.dim + spec.r + 1):
            monos = sorted(_weighted_monomials(spec.r, d), key=lambda e: sum(e) <= spec.cols)
            outside = sum(1 for e in monos if sum(e) > spec.cols)
            index = {e: i for i, e in enumerate(monos)}
            rows = []
            for gd, g in gens:
                for u in _weighted_monomials(spec.r, d - gd):  # none if gd > d
                    rows.append({index[tuple(a + b for a, b in zip(e, u))]: c
                                 for e, c in g.coords.items()})
            pivots = _hermite_form(rows)
            cols = [c for c, _ in pivots]
            if any(row[c] != 1 for c, row in pivots):
                fault = "has a pivot other than 1: the quotient may have torsion"
            elif cols[:outside] != list(range(outside)):
                fault = "leaves a monomial outside the basis without a pivot"
            elif len(cols) > outside:
                fault = "has a relation among the basis monomials"
            else:
                fault = None
            if fault:
                raise ConsistencyError(f"degree {d} of {spec} {fault}")
            if d <= spec.dim:
                ranks.append(len(monos) - outside)
                self._normal.update((e, {e: 1}) for e in monos[outside:])
                for c, row in pivots:
                    self._normal[monos[c]] = {monos[t]: -v for t, v in row.items() if t != c}
        self.graded_ranks = tuple(ranks)

    def reduce_poly(self, poly: PresentationPoly) -> dict:
        """Normal form of a polynomial: map basis monomial -> coefficient.

        Terms of degree above dim are zero in the ring and drop out.
        """
        if poly.spec != self.spec.r:
            raise ValueError("variable count does not match the spec")
        out = {}
        for e, c in poly.coords.items():
            for b, cb in self._normal.get(e, {}).items():
                out[b] = out.get(b, 0) + c * cb
        return {b: c for b, c in out.items() if c}


@lru_cache(maxsize=None)
def quotient_ring(spec: GrassSpec) -> QuotientRingOracle:
    """``QuotientRingOracle(spec)``, built once per process: several tests
    read the same rings, and an oracle is never changed after it is built."""
    return QuotientRingOracle(spec)


# ---------------------------------------------------------------------------
# universal polynomials from formal Chern roots
# ---------------------------------------------------------------------------

def tensor(spec: ProdSpec, a: SparseElement, b: SparseElement) -> SparseElement:
    """Kuenneth embedding of a pair of single-factor classes."""
    if a.spec != spec.factor1 or b.spec != spec.factor2:
        raise ValueError("factor classes do not match the product spec")
    coords = {}
    for lam, ca in a.coords.items():
        for mu, cb in b.coords.items():
            coords[(lam, mu)] = ca * cb
    return SparseElement(spec, coords)


def _by_degree(total: SparseElement, rank: int) -> list:
    """A total Chern class split into [1, c_1, ..., c_rank]."""
    return [SparseElement(total.spec, {lam: c for lam, c in total.coords.items() if weight(lam) == i})
            for i in range(rank + 1)]


def total_chern_sub(spec: GrassSpec) -> SparseElement:
    """Total Chern class of the tautological subbundle: the sum over i <= r
    of (-1)^i times the single-column class of height i.  On Grass(m, m)
    the subbundle is trivial and the class is 1."""
    if spec.cols == 0:
        return SparseElement(spec, {(): 1})
    return SparseElement(spec, {(1,) * i: (-1) ** i for i in range(spec.r + 1)})


def total_chern_quot(spec: GrassSpec) -> SparseElement:
    """Total Chern class of the tautological quotient bundle: the sum over
    k <= m - r of the single-row classes of width k.  On Grass(0, m) the
    quotient is trivial and the class is 1."""
    if spec.r == 0:
        return SparseElement(spec, {(): 1})
    return SparseElement(spec, {(k,) if k else (): 1 for k in range(spec.cols + 1)})


def chern_list_sub(spec: GrassSpec) -> list:
    return _by_degree(total_chern_sub(spec), spec.r)


def chern_list_quot(spec: GrassSpec) -> list:
    return _by_degree(total_chern_quot(spec), spec.cols)


def _factor_chern(spec: ProdSpec, bundle: str):
    """Chern class lists [1, c_1, ..., c_rank] of the two factor bundles
    being tensored; a list's length is its bundle's rank plus one."""
    if bundle == SUB_TENSOR:
        return chern_list_sub(spec.factor1), chern_list_sub(spec.factor2)
    if bundle == QUOT_TENSOR:
        return chern_list_quot(spec.factor1), chern_list_quot(spec.factor2)
    raise ValueError(f"unknown bundle tag {bundle!r}")


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
    product, then reused.  Exponentially large in the ranks.
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
    """The universal polynomials evaluated on the factors' Chern classes.

    Slow and memory-hungry for large ranks; meant for cross-checking the
    Lascoux series at small scale.
    """
    up_to = min(up_to, spec.dim)
    c1, c2 = _factor_chern(spec, bundle)
    p, q = len(c1) - 1, len(c2) - 1
    terms = []
    for k in range(up_to + 1):
        acc = SparseElement(spec, {})
        for alpha, beta, coeff in universal_tensor_chern(p, q, k):
            left, right = c1[0], c2[0]
            for idx in alpha:
                left = mul(left, c1[idx])
            for idx in beta:
                right = mul(right, c2[idx])
            acc = acc + coeff * tensor(spec, left, right)
        terms.append(acc)
    return CharSeries(spec, bundle, tuple(terms))


# ---------------------------------------------------------------------------
# link and polar certifiers
# ---------------------------------------------------------------------------

def segre_profile(m: int, n: int, r: int) -> tuple:
    """The (m, n, r) polar profile for r = 1 or r = m - 1 >= 1, from the
    polar degrees of the Segre variety X = P^(m-1) x P^(n-1) (Piene, Ann.
    Sci. ENS 11, 1978; Holme, Manuscripta Math. 61, 1988).

    X is the projectivized rank-1 germ, smooth of dimension d = m + n - 2,
    with c(X) = (1 + h1)^m (1 + h2)^n, h = h1 + h2 and deg h1^(m-1) h2^(n-1)
    = 1, so deg_j = deg c_j(X) h^(d-j) = sum over a of C(m, a) C(n, j - a)
    C(d - j, m - 1 - a).  Piene's formula gives values[k] = sum over j <= k
    of (-1)^j C(d - j + 1, d - k + 1) deg_j for k <= 2(m - 1), and 0 beyond.
    Rank m - 1 is the dual (Kleiman): those first 2(m - 1) + 1 values read
    backwards, padded with zeros.  No Segre class of a tensor bundle, no
    torus weight and no Schubert class enters."""
    d, kappa = m + n - 2, 2 * (m - 1)
    deg = [sum(comb(m, a) * comb(n, j - a) * comb(d - j, m - 1 - a)
               for a in range(max(0, j - n), min(m - 1, j) + 1)) for j in range(d + 1)]
    values = [sum((-1) ** j * comb(d - j + 1, d - k + 1) * deg[j] for j in range(k + 1))
              for k in range(kappa + 1)]
    if r != 1:
        values.reverse()
    return tuple(values) + (0,) * (profile_length(m, n, r) - len(values))


def euler_step(spec: DetSpec, i: int) -> int:
    """Single Morse-theoretic step chi(L^i) - chi(L^(i+1)).

    The difference isolates one term per stratum:
    (-1)^(d' - i - 1) * values[d' - i - 1] times the transverse-link factor,
    where d' is the stratum closure's dimension.
    """
    if not 0 <= i < spec.d - 1:
        raise DomainError(f"step index {i} outside 0..{spec.d - 2} for {spec}")
    total = 0
    for rank in link_strata(spec, i):
        k = germ_dim(spec.m, spec.n, rank) - i - 1
        profile = compute_polar_profile(spec.m, spec.n, rank)
        total += (-1) ** k * profile.value(k) * egz_factor(spec, rank)
    return total


class DualityReport(namedtuple("DualityReport", "m n r pairs all_equal")):
    """Entrywise comparison of a profile with its complementary-rank mirror.

    pairs holds (k, k_dual, value_at_r, value_at_m_minus_r).
    """

    __slots__ = ()


def duality_check(m: int, n: int, r: int) -> DualityReport:
    """Compare values[k] at rank r against values[2(m-r)r - k] at rank m - r."""
    _validate_params(m, n, r)
    if not 1 <= r <= m - 1:
        raise DomainError(f"duality needs 1 <= r <= m-1, got r={r}, m={m}")
    left = compute_polar_profile(m, n, r)
    right = compute_polar_profile(m, n, m - r)
    shift = 2 * (m - r) * r
    pairs = tuple(
        (k, shift - k, left.value(k), right.value(shift - k) if k <= shift else 0)
        for k in range(left.k_max + 1)
    )
    return DualityReport(m, n, r, pairs, all(lv == rv for _, _, lv, rv in pairs))
