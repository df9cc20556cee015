"""Topology of the complex links of generic determinantal varieties.

A germ of type (m, n, s) is the locus of m x n matrices of rank below s,
stratified by exact rank.  Its complex link of codimension i is the Milnor
fiber of a generic linear function on the slice by a generic plane of
codimension i.  Euler characteristics come from a stratum sum weighted by
polar multiplicities; for i at or above the dimension of the singular locus
the links are smooth and the cohomology below the middle degree is that of
Grass(s-1, m), which pins every Betti number once the Euler characteristic
is known.

Reading a smoothing's Betti numbers: an isolated, smoothable determinantal
singularity of type (m, n, s) in C^p has dimension D = p - (m-s+1)(n-s+1).
Its smoothing M is a bouquet of the codimension-i link L with spheres S^D,
where i = mn - p - 1 = d - D - 1, and that i is in ``smooth_range()``
exactly when p < (m-s+2)(n-s+2).  So ``betti --codim i`` prints b_0..b_D of
L, with b_k(M) = b_k(L) for k < D and b_D(M) = b_D(L) + (number of
spheres).  The three coordinate axes in C^3 are a generic section of type
(2, 3, 2), so M = L: i = 2, and (1, 2) holds the curve's Milnor number
b_1 = 2 delta - branches + 1 = 2.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import ConsistencyError, DomainError
from .partitions import partitions_in_box
from .polar import compute_polar_profile, euler_obstruction, germ_dim


class DetSpec(namedtuple("DetSpec", "m n s")):
    """Type (m, n, s): m x n matrices of rank < s, with 1 <= s <= m <= n."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, s: int):
        if not 1 <= s <= m <= n:
            raise DomainError(f"need 1 <= s <= m <= n, got m={m}, n={n}, s={s}")
        return super().__new__(cls, m, n, s)

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so that ``_replace`` validates too."""
        return cls(*fields)

    @property
    def r(self) -> int:
        """Rank of the open stratum: s - 1."""
        return self.s - 1

    @property
    def d(self) -> int:
        """Complex dimension of the germ: (m+n)r - r^2."""
        return germ_dim(self.m, self.n, self.r)

    @property
    def sing_dim(self) -> int:
        """Dimension of the singular locus (negative when there is none)."""
        return germ_dim(self.m, self.n, self.r - 1)

    def smooth_range(self) -> range:
        """Codimensions i whose links are smooth: sing_dim <= i < d."""
        return range(max(self.sing_dim, 0), self.d)

    def check_codim(self, i: int, smooth: bool = False):
        """Raise DomainError unless a codimension-i link exists, 0 <= i < d,
        and, with ``smooth``, is smooth.  For s = 1 the germ is a point."""
        d = self.d
        if d == 0:
            raise DomainError(f"the germ of {self} is a point and has no complex links")
        if not 0 <= i < d:
            raise DomainError(f"codimension {i} outside 0..{d - 1} for {self}")
        if smooth and i not in self.smooth_range():
            raise DomainError(
                f"link not smooth at codimension {i} for {self}: smooth range is "
                f"{self.smooth_range().start}..{self.d - 1}"
            )


def link_strata(spec: DetSpec, i: int) -> list:
    """The ranks r' >= 1 whose strata the codimension-i link sums over: those
    of closure dimension (m+n)r' - r'^2 >= i + 1 (the origin's sum is empty)."""
    return [rank for rank in range(1, spec.s) if germ_dim(spec.m, spec.n, rank) >= i + 1]


def egz_factor(spec: DetSpec, stratum_rank: int) -> int:
    """One minus the Euler characteristic of the transverse complex link
    along the rank stratum: the signed binomial
    (-1)^(s - r' - 1) * comb(m - r' - 1, s - r' - 1), after Ebeling and
    Gusein-Zade.  Equals 1 on the open stratum (empty link)."""
    if not 0 <= stratum_rank < spec.s:
        raise DomainError(
            f"stratum rank {stratum_rank} outside 0..{spec.s - 1} for {spec}"
        )
    a = spec.s - stratum_rank - 1
    return (-1) ** a * comb(spec.m - stratum_rank - 1, a)


def euler_complex_link(spec: DetSpec, i: int, profile=compute_polar_profile) -> int:
    """Euler characteristic of the codimension-i complex link.

    Stratum sum: each rank stratum r' contributes its transverse-link factor
    times an alternating partial sum of the polar multiplicities of the rank
    stratum's closure, over the strata of ``link_strata``.  At i = d - 1 the
    link is a finite set of points and the value equals the multiplicity of
    the germ.  ``profile`` maps (m, n, r') to the stratum's PolarProfile, as
    in ``euler_obstruction``.
    """
    spec.check_codim(i)
    return sum(
        euler_obstruction(spec.m, spec.n, rank, i + 1, profile) * egz_factor(spec, rank)
        for rank in link_strata(spec, i)
    )


def grass_betti(r: int, m: int) -> tuple:
    """Betti numbers of Grass(r, m) in cohomological degrees 0..2r(m-r): the
    Schubert cells of degree 2j are the partitions of weight j inside the
    r x (m - r) box, and odd degrees are zero."""
    if not 0 <= r <= m:
        raise DomainError(f"need 0 <= r <= m, got r={r}, m={m}")
    return tuple(
        0 if k % 2 else len(partitions_in_box(r, m - r, k // 2))
        for k in range(2 * r * (m - r) + 1)
    )


def _below_middle(spec: DetSpec, i: int) -> tuple:
    """Betti numbers of a smooth codimension-i link in degrees below its
    middle d - i - 1: those of Grass(s-1, m), zero past its top degree."""
    gb = grass_betti(spec.r, spec.m)
    return tuple(gb[k] if k < len(gb) else 0 for k in range(spec.d - i - 1))


class LinkProfile(namedtuple(
    "LinkProfile", "spec codim chi middle betti torsion_status"
)):
    """Cohomological profile of one smooth complex link.

    ``betti`` covers degrees 0..middle (the link is Stein of complex
    dimension middle = d - i - 1, so nothing lives above).  Below the middle
    the numbers are those of Grass(s-1, m); the middle one is solved from
    the Euler characteristic.  ``torsion_status`` is "free" only where a
    closed-form argument rules torsion out, else "unknown".
    """

    __slots__ = ()


def betti_smooth_complex_link(spec: DetSpec, i: int,
                              profile=compute_polar_profile) -> LinkProfile:
    """Betti vector of the codimension-i link; requires a smooth link.
    ``profile`` is passed to ``euler_complex_link``."""
    spec.check_codim(i, smooth=True)
    chi = euler_complex_link(spec, i, profile)
    middle = spec.d - i - 1
    below = _below_middle(spec, i)
    partial = sum(below[0::2]) - sum(below[1::2])
    mid = (-1) ** middle * (chi - partial)
    if mid < 0:
        raise ConsistencyError(
            f"negative middle Betti number {mid} for {spec} at codimension {i}"
        )
    torsion = "free" if (middle == 0 or (spec.r == 1 and i == 0)) else "unknown"
    return LinkProfile(
        spec=spec,
        codim=i,
        chi=chi,
        middle=middle,
        betti=below + (mid,),
        torsion_status=torsion,
    )


# ---------------------------------------------------------------------------
# the square-ish (m, m+1, m) family
# ---------------------------------------------------------------------------

def hilbert_burch_chi_table(max_m: int, profile=compute_polar_profile) -> list:
    """Euler characteristics of the d-dimensional smooth links of the
    (m, m+1, m) germs, rows d = 0..3, columns m = 1..max_m.

    The link of dimension d sits at codimension i = m(m+1) - d - 3.  For
    m = 1 the germ is the reduced origin and i goes negative: a slice by a
    codimension-0 plane is the contractible germ itself (chi = 1 at i = -1)
    and lower i are vacuous (0).  ``profile`` is passed to
    ``euler_complex_link``.
    """
    if max_m < 1:
        raise DomainError("max_m must be at least 1")
    rows = []
    for d in range(4):
        row = []
        for m in range(1, max_m + 1):
            spec = DetSpec(m, m + 1, m)
            i = m * (m + 1) - d - 3
            if 0 <= i < spec.d:
                row.append(euler_complex_link(spec, i, profile))
            elif i == -1:
                row.append(1)
            else:
                row.append(0)
        rows.append(row)
    return rows
