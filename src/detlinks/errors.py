"""Exception types and the one guard on the command's two output streams."""

import os
import sys


def write(stream, text: str):
    """Write ``text`` to ``stream``, flushed, and return the OSError that
    refused it, or None.  A stream that is None (its fd was closed at start)
    takes nothing.  After a failed write or flush the stream's fd points at
    /dev/null, so whatever the buffer still holds goes there when the
    interpreter flushes at exit, and a refused stream never turns a
    command's exit code into 120, buffered or not."""
    if stream is None:
        return None
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def report(kind: str, msg):
    """Write the line ``detlinks: <kind>: <msg>`` to stderr through ``write``.
    An unwritable or closed stderr drops the line, so a diagnostic never
    changes a command's exit code or its stdout."""
    write(sys.stderr, f"detlinks: {kind}: {msg}\n")


class DomainError(ValueError):
    """Mathematically out-of-range parameters (bad (m, n, r, k), non-smooth link, ...)."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed: a profile fails a closed form or holds a
    negative value, a Bott sum divides inexactly, --verify disagrees with the
    cache, a middle Betti number is negative, or an exact-algebra step breaks.

    Raised instead of silently patching the offending value; a convention
    bug must surface, not be normalized away.
    """
