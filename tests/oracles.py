"""Reference computations that certify the Schubert calculus, and the few
constructors the tests build classes with.  They live here because only
the tests run them; ``src/`` holds production, the certifier and the
commands.

* ``QuotientRingOracle`` builds H*(Grass(r, m)) as Z[x_1..x_r] modulo the
  relations ``grass_ring.grassmann_relations`` prints, degree by degree,
  with exact integer row reduction.  With ``schubert_to_presentation`` it
  certifies the Pieri/Giambelli products of ``grass_ring.mul``, and its
  graded ranks certify the Grassmannian Betti numbers of
  ``links.grass_betti``.
* ``chern_tensor_via_roots`` expands the product of (1 + a_i + b_j) over
  formal Chern roots into universal polynomials in the factor Chern
  classes (``universal_tensor_chern``) and evaluates them on the two
  factors.  It certifies the Lascoux series of
  ``tensor_calculus.chern_tensor`` and ``tensor_calculus._lascoux``.  It
  blows up with the ranks, so it runs at small scale only.

Neither side trusts the other: each reference reaches its numbers without
the route it certifies.  ``schubert``, ``schubert_pair``, ``prod_unit``,
``constant``, ``integrate`` and ``weighted_degree`` build and read single
classes for the tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from detlinks.errors import ConsistencyError, DomainError
from detlinks.grass_ring import (
    GrassClass,
    GrassSpec,
    PresentationPoly,
    _perm_sign,
    chern_list_quot,
    chern_list_sub,
    grassmann_relations,
)
from detlinks.partitions import as_partition, conjugate, fits_in_box
from detlinks.tensor_calculus import (
    QUOT_TENSOR,
    SUB_TENSOR,
    CharSeries,
    ProdClass,
    ProdSpec,
    _clamp,
)


# ---------------------------------------------------------------------------
# single classes
# ---------------------------------------------------------------------------

def schubert(spec: GrassSpec, lam) -> GrassClass:
    """The Schubert class of the partition lam."""
    return GrassClass(spec, {as_partition(lam): 1})


def integrate(a: GrassClass) -> int:
    """Coefficient of the full-box class; zero if there is no top component."""
    return a.coords.get(a.spec.box, 0)


def schubert_pair(spec: ProdSpec, lam, mu) -> ProdClass:
    """The product-ring class of the pair of Schubert classes (lam, mu)."""
    return ProdClass(spec, {(as_partition(lam), as_partition(mu)): 1})


def prod_unit(spec: ProdSpec) -> ProdClass:
    return ProdClass(spec, {((), ()): 1})


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
            return PresentationPoly.zero(r)
        return PresentationPoly.variable(r, k) * ((-1) ** k)

    mu = conjugate(lam)
    ell = len(mu)
    if ell == 0:
        return constant(r, 1)
    acc = PresentationPoly.zero(r)
    for perm in permutations(range(ell)):
        term = constant(r, _perm_sign(perm))
        for i in range(ell):
            term = term * e_poly(mu[i] - i + perm[i])
            if term.is_zero():
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


def _integer_echelon(rows, ncols):
    """Exact integer row echelon preferring unit pivots.

    The pivot order is chosen greedily at entries of absolute value one
    (creating them by Euclidean column reduction when necessary), because a
    left-to-right sweep can get stuck on a non-unit pivot even when the row
    lattice is a direct summand.  A successful run returns (pivots, []),
    where every pivot entry is 1, each pivot row vanishes at the other
    pivot columns, and the non-pivot coordinates are therefore a Z-basis of
    the quotient.  If no unit pivot can be produced for some rows they are
    returned unreduced as the second component; the caller treats that as
    possible torsion.  Pure big-int arithmetic throughout.
    """
    work = [list(r) for r in rows if any(r)]
    pivots = []
    while work:
        pos = None
        for ri, row in enumerate(work):
            for c, v in enumerate(row):
                if v == 1 or v == -1:
                    pos = (ri, c)
                    break
            if pos:
                break
        if pos is None:
            progressed = False
            for c in range(ncols):
                having = [r for r in work if r[c]]
                if len(having) < 2:
                    continue
                having.sort(key=lambda r: abs(r[c]))
                base = having[0]
                for r in having[1:]:
                    q = r[c] // base[c]
                    if q:
                        for t in range(ncols):
                            r[t] -= q * base[t]
                        progressed = True
            work = [r for r in work if any(r)]
            if progressed:
                continue
            return sorted(pivots), work
        ri, c = pos
        piv = work.pop(ri)
        if piv[c] < 0:
            piv = [-x for x in piv]
        for row in work:
            if row[c]:
                q = row[c]
                for t in range(ncols):
                    row[t] -= q * piv[t]
        for _, prow in pivots:
            if prow[c]:
                q = prow[c]
                for t in range(ncols):
                    prow[t] -= q * piv[t]
        pivots.append((c, piv))
        work = [r for r in work if any(r)]
    return sorted(pivots), []


class QuotientRingOracle:
    """Brute-force model of H*(Grass(r, m)) as Z[x_1..x_r] modulo relations.

    Each weighted-graded piece is handled by exact integer row reduction of
    the ideal's span over the monomial basis.  Unit pivots are verified, not
    assumed: a quotient with torsion would be reported loudly instead of
    being normalized away.
    """

    SCALE_LIMIT = 200

    def __init__(self, spec: GrassSpec):
        if spec.rank > self.SCALE_LIMIT:
            raise DomainError(
                f"oracle limited to rank <= {self.SCALE_LIMIT}, got {spec.rank}"
            )
        self.spec = spec
        self._pieces = {}  # degree -> (monomials, pivots, standard monomial list)
        gens = grassmann_relations(spec)
        top = 2 * spec.dim  # products of two basis monomials stay below this
        for d in range(top + 1):
            monos = _weighted_monomials(spec.r, d)
            index = {e: i for i, e in enumerate(monos)}
            rows = []
            for g in gens:
                gd = weighted_degree(g)
                if gd is None or gd > d:
                    continue
                for u in _weighted_monomials(spec.r, d - gd):
                    row = [0] * len(monos)
                    for e, c in g.coords.items():
                        prod = tuple(a + b for a, b in zip(e, u))
                        row[index[prod]] = c
                    rows.append(row)
            basis, stuck = _integer_echelon(rows, len(monos))
            if stuck:
                raise ConsistencyError(
                    f"no unit-pivot echelon in degree {d} of {spec}: the "
                    "quotient may have torsion or no monomial basis there"
                )
            pivot_cols = {col for col, _ in basis}
            standard = tuple(e for i, e in enumerate(monos) if i not in pivot_cols)
            self._pieces[d] = (monos, basis, standard)

    @property
    def graded_ranks(self) -> tuple:
        """Ranks of the graded pieces for degrees 0..dim."""
        return tuple(len(self._pieces[d][2]) for d in range(self.spec.dim + 1))

    def _reduce_vector(self, d, vec):
        monos, basis, standard = self._pieces[d]
        v = list(vec)
        for col, row in basis:
            c = v[col]
            if c:
                # pivot rows may have support on either side of their pivot
                for t in range(len(v)):
                    v[t] -= c * row[t]
        index = {e: i for i, e in enumerate(monos)}
        return {e: v[index[e]] for e in standard if v[index[e]]}

    def reduce_poly(self, poly: PresentationPoly) -> dict:
        """Normal form of a polynomial: map standard monomial -> coefficient."""
        if poly.spec != self.spec.r:
            raise ValueError("variable count does not match the spec")
        buckets = {}
        for e, c in poly.coords.items():
            d = PresentationPoly._wdeg(e)
            buckets.setdefault(d, {})[e] = c
        out = {}
        for d, terms in buckets.items():
            if d not in self._pieces:
                if any(terms.values()):
                    raise ValueError(f"degree {d} beyond the oracle's table")
                continue
            monos = self._pieces[d][0]
            vec = [terms.get(e, 0) for e in monos]
            out.update(self._reduce_vector(d, vec))
        return out


# ---------------------------------------------------------------------------
# universal polynomials from formal Chern roots
# ---------------------------------------------------------------------------

def tensor(spec: ProdSpec, a: GrassClass, b: GrassClass) -> ProdClass:
    """Kuenneth embedding of a pair of single-factor classes."""
    if a.spec != spec.factor1 or b.spec != spec.factor2:
        raise ValueError("factor classes do not match the product spec")
    coords = {}
    for lam, ca in a.coords.items():
        for mu, cb in b.coords.items():
            coords[(lam, mu)] = ca * cb
    return ProdClass(spec, coords)


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
            acc = acc + coeff * tensor(spec, left, right)
        terms.append(acc)
    return CharSeries(spec, bundle, tuple(terms))
