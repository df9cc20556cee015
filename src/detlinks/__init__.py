"""Polar multiplicities, Euler characteristics, Euler obstructions and
Betti profiles of the links of generic determinantal varieties.

Profiles come from Bott localization over torus fixed points; Schubert
calculus (``grass_ring``, ``tensor_calculus``) certifies them.  The package
root exports the library API of ``errors``, ``polar``, ``links`` and
``partitions``; the Schubert calculus is imported from its own modules, so
importing the package loads none of it.

Everything is computed over Z with arbitrary-precision integers; there is
no floating point anywhere in the pipeline.
"""

from .errors import ConsistencyError, DomainError
from .links import (
    DetSpec,
    LinkProfile,
    OrbitPoincare,
    RealLinkBetti,
    KNOWN_REAL_LINK_TORSION,
    betti_real_link_rank1,
    betti_smooth_complex_link,
    betti_smooth_real_link,
    egz_factor,
    euler_complex_link,
    euler_step,
    grass_betti,
    hilbert_burch_chi_table,
    orbit_poincare,
    poincare_stiefel,
    poincare_unitary,
    smoothing_bounds,
)
from .partitions import (
    IntPolynomial,
    as_partition,
    conjugate,
    gaussian_binomial,
    partitions_in_box,
    weight,
)
from .polar import (
    DualityReport,
    PolarProfile,
    duality_check,
    euler_obstruction,
    polar_multiplicity,
    polar_profile,
)

__version__ = "0.1.0"
