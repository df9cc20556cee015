"""Partition combinatorics.

Every cohomology basis downstream is indexed by partitions inside an
``rows x cols`` rectangle, so partitions are kept as bare tuples of weakly
decreasing positive integers with trailing zeros dropped.  Tuples hash and
compare fast, which matters because they key every sparse ring element in
the package (``grass_ring.SparseElement``).
"""

from __future__ import annotations

from functools import lru_cache


#: A partition is a tuple of weakly decreasing positive integers; () is empty.
Partition = tuple


def weight(p: Partition) -> int:
    """Number of boxes of the Young diagram.

    >>> weight((3, 1))
    4
    """
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram.  Involutive.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def box_complement(p: Partition, rows: int, cols: int) -> Partition:
    """Complement of ``p`` inside the rows x cols rectangle, rotated by 180
    degrees.  ``p`` must fit in the box; nothing checks it.  A full row of
    ``p`` leaves an empty row, so those parts are dropped.

    >>> box_complement((2,), 2, 3)
    (3, 1)
    """
    padded = p + (0,) * (rows - len(p))
    return tuple(cols - part for part in reversed(padded) if part < cols)


def _descending(w, max_part, max_len):
    # partitions of w, parts <= max_part, length <= max_len, lex descending
    if w == 0:
        yield ()
        return
    for first in range(min(w, max_part), 0, -1):
        if max_len == 0:
            return
        for rest in _descending(w - first, first, max_len - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _box_weight(rows: int, cols: int, w: int):
    return tuple(_descending(w, cols, rows))


def partitions_in_box(rows: int, cols: int, weight: int | None = None) -> list:
    """All partitions with at most ``rows`` parts, each part at most ``cols``.

    Optionally filtered to a single weight.  The order is canonical: graded
    by weight, then lexicographically descending, so table output and cache
    layouts stay deterministic.

    >>> partitions_in_box(2, 2, 2)
    [(2,), (1, 1)]
    """
    if rows < 0 or cols < 0:
        raise ValueError("box dimensions must be nonnegative")
    if weight is not None:
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        return list(_box_weight(rows, cols, weight))
    out = []
    for w in range(rows * cols + 1):
        out.extend(_box_weight(rows, cols, w))
    return out

