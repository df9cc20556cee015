"""Integral cohomology of a Grassmannian in the Schubert basis.

An element of H*(Grass(r, m)) is a ``GrassClass``, the
``partitions.SparseElement`` whose keys are partitions inside the
r x (m - r) box, with multiplication by iterated Pieri steps (a general
basis element is first expanded through single-row classes by the
Giambelli determinant).  Degrees are Chern degrees: the class indexed by a
partition of weight w lives in cohomological degree 2w.  The certifier in
``tensor_calculus`` multiplies in this basis, by powers of the total Chern
classes of the tautological bundles, which are given in closed form.

The tests certify the Pieri/Giambelli products against the presentation
Z[x_1..x_r]/J, which ``tests/oracles.py`` builds for every m <= 8 with one
Hermite normal form per degree up to dim + r; neither side trusts the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .errors import DomainError
from .partitions import SparseElement, as_partition, fits_in_box, weight


@dataclass(frozen=True)
class GrassSpec:
    """Ring spec for H*(Grass(r, m)): r-planes in an m-dimensional space."""

    r: int
    m: int

    def __post_init__(self):
        if not 0 <= self.r <= self.m:
            raise DomainError(f"need 0 <= r <= m, got r={self.r}, m={self.m}")

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


class GrassClass(SparseElement):
    """Element of H*(Grass(r, m)) in the Schubert basis.

    ``spec`` is a GrassSpec; ``coords`` maps partitions in the box to
    integers.
    """

    __slots__ = ()

    @staticmethod
    def _key(spec, lam):
        lam = as_partition(lam)
        if not fits_in_box(lam, spec.r, spec.cols):
            raise ValueError(f"{lam} does not fit the {spec.r}x{spec.cols} box")
        return lam

    @classmethod
    def unit(cls, spec):
        return cls(spec, {(): 1})

    def _mul(self, other):
        return mul(self, other)

    def __repr__(self):
        terms = " + ".join(f"{c}*s{list(k)}" for k, c in sorted(self.coords.items()))
        return f"<GrassClass({self.spec.r},{self.spec.m}): {terms or '0'}>"


def _perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


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
                out.append(as_partition(acc))
            return
        low = padded[i]
        high = cols if i == 0 else padded[i - 1]
        for v in range(low, min(high, low + budget) + 1):
            place(i + 1, budget - (v - low), acc + (v,))

    place(0, k, ())
    return tuple(out)


@lru_cache(maxsize=None)
def _h_monomials(mu: tuple):
    """Signed expansion of the Giambelli row determinant for mu into products
    of single-row degrees: returns ((k_1 >= k_2 >= ...), sign) pairs."""
    ell = len(mu)
    if ell == 0:
        return (((), 1),)
    acc = {}
    for perm in permutations(range(ell)):
        subs = tuple(mu[i] - i + perm[i] for i in range(ell))
        if any(s < 0 for s in subs):
            continue
        key = tuple(sorted((s for s in subs if s > 0), reverse=True))
        acc[key] = acc.get(key, 0) + _perm_sign(perm)
    return tuple((ks, c) for ks, c in acc.items() if c)


@lru_cache(maxsize=None)
def _mul_basis(rows: int, cols: int, lam: tuple, mu: tuple):
    """Structure constants of the product of two Schubert classes inside the
    rows x cols box, as a tuple of (partition, coefficient).  Callers pass
    the smaller partition second, so both orders share one cache entry."""
    if weight(lam) + weight(mu) > rows * cols:
        return ()
    if len(mu) > len(lam):
        lam, mu = mu, lam
    total = {}
    for ks, sign in _h_monomials(mu):
        cur = {lam: sign}
        for k in ks:
            nxt = {}
            for nu, c in cur.items():
                for nu2 in _pieri(rows, cols, nu, k):
                    nxt[nu2] = nxt.get(nu2, 0) + c
            cur = nxt
            if not cur:
                break
        for nu, c in cur.items():
            total[nu] = total.get(nu, 0) + c
    return tuple((nu, c) for nu, c in sorted(total.items()) if c)


def mul(a: GrassClass, b: GrassClass) -> GrassClass:
    """Product in H*(Grass(r, m)); terms leaving the box are truncated away."""
    if a.spec != b.spec:
        raise ValueError(f"mismatched ring specs {a.spec} and {b.spec}")
    rows, cols = a.spec.r, a.spec.cols
    acc = {}
    for lam, c1 in a.coords.items():
        for mu, c2 in b.coords.items():
            c = c1 * c2
            for nu, sc in _mul_basis(rows, cols, *((lam, mu) if lam >= mu else (mu, lam))):
                acc[nu] = acc.get(nu, 0) + c * sc
    return GrassClass._trusted(a.spec, acc)


def total_chern_sub(spec: GrassSpec) -> GrassClass:
    """Total Chern class of the tautological subbundle: the sum over i <= r
    of (-1)^i times the single-column class of height i.  On Grass(m, m)
    the subbundle is trivial and the class is 1."""
    if spec.cols == 0:
        return GrassClass.unit(spec)
    return GrassClass._trusted(spec, {(1,) * i: (-1) ** i for i in range(spec.r + 1)})


def total_chern_quot(spec: GrassSpec) -> GrassClass:
    """Total Chern class of the tautological quotient bundle: the sum over
    k <= m - r of the single-row classes of width k.  On Grass(0, m) the
    quotient is trivial and the class is 1."""
    if spec.r == 0:
        return GrassClass.unit(spec)
    return GrassClass._trusted(spec, {(k,) if k else (): 1 for k in range(spec.cols + 1)})
