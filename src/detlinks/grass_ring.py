"""Integral cohomology of a Grassmannian in the Schubert basis.

Every ring element of the certifier is a ``SparseElement``: a spec plus a
map from keys to nonzero integers.  Over a ``GrassSpec`` the keys are
partitions inside the r x (m - r) box of H*(Grass(r, m)); over a
``tensor_calculus.ProdSpec`` they are pairs of partitions, one in each
factor's box.  Multiplication is the function of the spec: ``mul`` here,
by one Pieri recursion on the last row of the shorter factor (``_pieri``
adds a horizontal strip, ``_mul_basis`` peels rows off), and ``mul_prod``
in ``tensor_calculus``.  Degrees are Chern degrees: the class indexed by a
partition of weight w lives in cohomological degree 2w.  The certifier in
``tensor_calculus`` multiplies in this basis, by powers of the total Chern
classes of the tautological bundles, each in closed form
(``chern_quot_power``).

This ring is an internal of the certifier, and it trusts its callers as
``SparseElement`` trusts its keys: a ``GrassSpec`` has 0 <= r <= m, the
two factors of ``mul`` share one spec, and every key is a partition inside
the spec's box.  Nothing here checks that.  ``polar._profile`` checks
(m, n, r) before the certifier builds any spec.

The tests certify the Pieri products against the presentation
Z[x_1..x_r]/J, which ``tests/oracles.py`` builds for every m <= 8 with one
Hermite normal form per degree up to dim + r; neither side trusts the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import conjugate, partitions_in_box, weight


@dataclass(frozen=True)
class GrassSpec:
    """Ring spec for H*(Grass(r, m)): r-planes in an m-dimensional space."""

    r: int
    m: int

    @property
    def cols(self) -> int:
        return self.m - self.r

    @property
    def dim(self) -> int:
        """Complex dimension r(m - r); also the top Chern degree."""
        return self.r * self.cols

    @property
    def box(self) -> tuple:
        """The full-box partition ((m-r), ..., (m-r)), r parts."""
        return (self.cols,) * self.r if self.cols else ()


class SparseElement:
    """Sparse integer combination of keys over a ring spec.

    The constructor drops zero coefficients and checks no key: every
    producer (``mul``, ``mul_prod``, ``chern_quot_power``, the tensor
    series) emits keys that are canonical and inside the box of its spec.
    ``*`` only scales by an integer; the spec's product is a function.
    Instances are immutable by convention: every operation returns a fresh
    element.
    """

    __slots__ = ("spec", "coords")
    __hash__ = None

    def __init__(self, spec, coords: dict):
        self.spec = spec
        self.coords = {k: c for k, c in coords.items() if c}

    def __add__(self, other):
        if type(other) is not type(self) or other.spec != self.spec:
            return NotImplemented
        data = dict(self.coords)
        for k, c in other.coords.items():
            data[k] = data.get(k, 0) + c
        return type(self)(self.spec, data)

    def __neg__(self):
        return type(self)(self.spec, {k: -c for k, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)(self.spec, {k: c * other for k, c in self.coords.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        return type(other) is type(self) and (self.spec, self.coords) == (other.spec, other.coords)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec!r}, {self.coords!r})"


@lru_cache(maxsize=None)
def _pieri(rows: int, cols: int, lam: tuple, k: int):
    """Partitions obtained from lam by adding a horizontal strip of k boxes
    inside the rows x cols rectangle (each column gains at most one box)."""
    if k == 0:
        return (lam,)
    padded = lam + (0,) * (rows - len(lam))
    out = []

    def place(i, budget, acc):
        if i == rows:
            if budget == 0:
                out.append(acc)
            return
        low = padded[i]
        high = cols if i == 0 else padded[i - 1]
        for v in range(low, min(high, low + budget) + 1):
            # zeros come last, so skipping them drops the trailing zeros
            place(i + 1, budget - (v - low), acc + (v,) if v else acc)

    place(0, k, ())
    return tuple(out)


@lru_cache(maxsize=None)
def _mul_basis(rows: int, cols: int, lam: tuple, mu: tuple):
    """Structure constants of the product of two Schubert classes inside the
    rows x cols box, as a tuple of (partition, coefficient).  ``mul`` passes
    the smaller partition second, so both orders share one cache entry.

    A Pieri recursion on the last row of the shorter factor: with
    mu = head + (last,), the Pieri step of ``last`` on sigma_head is sigma_mu
    plus sigma_nu for each other nu of ``_pieri(rows, cols, head, last)``, so
    sigma_lam * sigma_mu is that step on sigma_lam * sigma_head minus each
    sigma_lam * sigma_nu.  The identity holds in the box because truncation
    to the box is a ring map.  Each such nu has nu_l < mu_l (l = len(mu)),
    because nu_i >= mu_i for i < l at equal weight; so the pair (rows of mu,
    last row of mu) falls lexicographically at every call, and the
    recursion ends."""
    if weight(lam) + weight(mu) > rows * cols:
        return ()
    if len(mu) > len(lam):
        lam, mu = mu, lam
    if not mu:
        return ((lam, 1),)
    head, last = mu[:-1], mu[-1]
    total = {}
    for nu, c in _mul_basis(rows, cols, lam, head):
        for nu2 in _pieri(rows, cols, nu, last):
            total[nu2] = total.get(nu2, 0) + c
    for nu in _pieri(rows, cols, head, last):
        if nu != mu:
            for nu2, c in _mul_basis(rows, cols, lam, nu):
                total[nu2] = total.get(nu2, 0) - c
    return tuple((nu, c) for nu, c in total.items() if c)


def mul(a: SparseElement, b: SparseElement) -> SparseElement:
    """Product in H*(Grass(r, m)); terms leaving the box are truncated away."""
    rows, cols = a.spec.r, a.spec.cols
    acc = {}
    for lam, c1 in a.coords.items():
        for mu, c2 in b.coords.items():
            c = c1 * c2
            for nu, sc in _mul_basis(rows, cols, *((lam, mu) if lam >= mu else (mu, lam))):
                acc[nu] = acc.get(nu, 0) + c * sc
    return SparseElement(a.spec, acc)


def chern_quot_power(spec: GrassSpec, e: int) -> SparseElement:
    """c(Q)^e for any integer e, in closed form (Macdonald, Symmetric
    Functions and Hall Polynomials, I.4 (4.3) and I.3 Ex. 4).

    sigma_lam = s_lam(a) for the roots a of S^v, so c(Q) = prod 1/(1 - a_i).
    The Cauchy identity at y = 1^e gives c(Q)^e = sum over lam in the box of
    s_lam(1^e) sigma_lam; truncation to the box is a ring map.  By the
    hook-content formula s_lam(1^e) = prod over the boxes x of lam of
    (e + c(x)) / h(x), an integer-valued polynomial in e.  c(S) = 1/c(Q),
    so c(S)^e is that polynomial at -e; by the dual Cauchy identity it is
    (-1)^|lam| s_lam'(1^e).  So each division is exact."""
    coords = {}
    for lam in partitions_in_box(spec.r, spec.cols):
        conj, num, den = conjugate(lam), 1, 1
        for i, row in enumerate(lam):
            for j in range(row):
                num *= e + j - i
                den *= row - j + conj[j] - i - 1
        coords[lam] = num // den
    return SparseElement(spec, coords)
