"""Integral cohomology of a Grassmannian in the Schubert basis.

A ``SparseElement`` is a spec plus a map from keys to nonzero integers.
Over a ``GrassSpec`` the keys are partitions inside the r x (m - r) box of
H*(Grass(r, m)); over a ``tensor_calculus.ProdSpec`` they are pairs of
partitions, one in each factor's box.  Only the whole-series API returns
ring elements (``tensor_calculus.mul_prod`` and the ``CharSeries`` terms);
the certifier (``tensor_calculus.segre_integrals``) works on bare
coefficient dicts and builds none.  The Schubert structure constants come
from one Pieri recursion on the last row of the shorter factor (``_pieri``
adds a horizontal strip, ``_mul_basis`` peels rows off); only
``tensor_calculus.mul_prod`` reads them.  Degrees are Chern degrees: the
class indexed by a partition of weight w lives in cohomological degree 2w.
The certifier multiplies no two Schubert classes: a class times a power
of c(Q) or c(S) has the skew values s_{nu/lam}(1^e) as coefficients
(``tensor_calculus._times_power``), each one skew Jacobi-Trudi determinant
(``skew_at_ones``, through ``_det``), the one skew-determinant code path for
both a whole power and the single coefficients the certifier's pairing
reads.

This module is an internal of the Schubert route, and it trusts its callers as
``SparseElement`` trusts its keys: a ``GrassSpec`` has 0 <= r <= m and
every key is a partition inside the spec's box.  Nothing here checks that.
``polar._profile`` checks (m, n, r) before the certifier builds any spec.

The tests certify the Pieri products (through ``mul_prod``) against the
presentation Z[x_1..x_r]/J, which ``tests/oracles.py`` builds for every
m <= 8 with one Hermite normal form per degree up to dim + r, and the closed
form against repeated products; neither side trusts the other.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .partitions import weight


class GrassSpec(namedtuple("GrassSpec", "r m")):
    """Ring spec for H*(Grass(r, m)): r-planes in an m-dimensional space."""

    __slots__ = ()

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

    The constructor drops zero coefficients and checks no key: both
    producers (``mul_prod`` and the tensor series of ``tensor_calculus``)
    emit keys that are canonical and inside the box of their spec.
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
    rows x cols box, as a tuple of (partition, coefficient).  ``mul_prod``
    passes the smaller partition second, so both orders share one cache entry.

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


def skew_at_ones(nu: tuple, lam: tuple, e: int) -> int:
    """s_{nu/lam}(1^e) for any integer e: 0 unless lam <= nu, else by the skew
    Jacobi-Trudi identity det[h_{nu_i - i - (lam_j - j)}(1^e)] (Macdonald,
    Symmetric Functions and Hall Polynomials, I.5 (5.4)), with h_k(1^e) =
    prod over t < k of (e + t) / k! (zero for k < 0), an integer-valued
    polynomial in e.  A row i > len(nu) >= len(lam) would be 0 left of the
    diagonal and 1 on it, so the leading len(nu) x len(nu) block has the same
    determinant."""
    if len(nu) < len(lam) or not all(a >= b for a, b in zip(nu, lam)):
        return 0
    h = [1]  # h_k(1^e) = h_(k-1)(1^e) (e + k - 1) / k, exactly
    for k in range(1, sum(nu[:1]) + len(nu)):
        h.append(h[-1] * (e + k - 1) // k)
    shifts = [q - j for j, q in enumerate(lam + (0,) * (len(nu) - len(lam)))]
    return _det([[h[p - i - s] if p - i >= s else 0 for s in shifts] for i, p in enumerate(nu)])

