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
    betti_smooth_complex_link,
    egz_factor,
    euler_complex_link,
    grass_betti,
    hilbert_burch_chi_table,
)
from .partitions import (
    conjugate,
    partitions_in_box,
    weight,
)
from .polar import (
    PolarProfile,
    compute_polar_profile,
    euler_obstruction,
)

__version__ = "0.1.0"
