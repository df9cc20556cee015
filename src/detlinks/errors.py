"""Exception types and the one diagnostic writer shared across the package."""

import sys


def report(kind: str, msg):
    """Write the line ``detlinks: <kind>: <msg>`` to stderr, flushed.  A closed
    stderr drops the line: ``sys.stderr`` is None when fd 2 was closed at
    start, and a write raises OSError when fd 2 is not writable.  So a
    diagnostic never changes a command's exit code or its stdout."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(f"detlinks: {kind}: {msg}\n")
        sys.stderr.flush()
    except OSError:
        pass


class DomainError(ValueError):
    """Mathematically out-of-range parameters (bad (m, n, r, k), non-smooth link, ...)."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed: a profile fails a closed form or holds a
    negative value, a Bott sum divides inexactly, --verify disagrees with the
    cache, a middle Betti number is negative, or an exact-algebra step breaks.

    Raised instead of silently patching the offending value; a convention
    bug must surface, not be normalized away.
    """
