"""Exception types shared across the package."""


class DomainError(ValueError):
    """Mathematically out-of-range parameters (bad (m, n, r, k), non-smooth link, ...)."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed: a profile fails a closed form or holds a
    negative value, a Bott sum divides inexactly, --verify disagrees with the
    cache, a middle Betti number is negative, or an exact-algebra step breaks.

    Raised instead of silently patching the offending value; a convention
    bug must surface, not be normalized away.
    """
