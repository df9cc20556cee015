"""Partition combinatorics and the sparse integer combinations keyed by them.

Every cohomology basis downstream is indexed by partitions inside an
``rows x cols`` rectangle, so partitions are kept as bare tuples of weakly
decreasing positive integers with trailing zeros dropped.  Tuples hash and
compare fast, which matters because they key every sparse ring element in
the package.

Every such element (a Schubert-basis class, a product-ring class) is one
``SparseElement`` subclass: a spec plus a map from keys to nonzero
integers.  The base class owns the additive structure and scaling; a
subclass supplies its key check and its product.
"""

from __future__ import annotations

from functools import lru_cache


#: A partition is a tuple of weakly decreasing positive integers; () is empty.
Partition = tuple


def as_partition(parts) -> Partition:
    """Normalize ``parts`` into a partition tuple.

    Trailing zeros are dropped; anything not weakly decreasing and positive
    is rejected.

    >>> as_partition([3, 1, 0])
    (3, 1)
    """
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if p and (p[-1] < 0 or any(p[i] < p[i + 1] for i in range(len(p) - 1))):
        raise ValueError(f"not a partition: {parts!r}")
    return p


def weight(p: Partition) -> int:
    """Number of boxes of the Young diagram."""
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram.  Involutive.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def fits_in_box(p: Partition, rows: int, cols: int) -> bool:
    """Whether ``p`` has at most ``rows`` parts, each at most ``cols``."""
    return len(p) <= rows and (not p or p[0] <= cols)


def box_complement(p: Partition, rows: int, cols: int) -> Partition:
    """Complement of ``p`` inside the rows x cols rectangle, rotated by 180 degrees.

    >>> box_complement((2,), 2, 3)
    (3, 1)
    """
    if not fits_in_box(p, rows, cols):
        raise ValueError(f"{p} does not fit in a {rows}x{cols} box")
    padded = p + (0,) * (rows - len(p))
    comp = tuple(cols - padded[rows - 1 - i] for i in range(rows))
    return as_partition(comp)


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


class SparseElement:
    """Sparse integer combination of keys over a ring spec.

    ``coords`` maps keys to integers; zero coefficients are never stored.
    The constructor passes every key through the subclass hook
    ``_key(spec, key)``, which returns the normalized key or raises
    ValueError, then merges duplicate keys and drops zeros.  Internal
    results whose keys are known to be valid are built by ``_trusted``,
    which skips that check.  Subclasses supply the product as ``_mul``.
    Instances are immutable by convention: every operation returns a fresh
    element.
    """

    __slots__ = ("spec", "coords")
    __hash__ = None

    def __init__(self, spec, coords=None):
        data = {}
        if coords:
            items = coords.items() if isinstance(coords, dict) else coords
            for key, c in items:
                key = self._key(spec, key)
                if c:
                    data[key] = data.get(key, 0) + int(c)
        self.spec = spec
        self.coords = {k: c for k, c in data.items() if c}

    @classmethod
    def _trusted(cls, spec, coords: dict):
        """``cls(spec, coords)`` for keys already valid: drops zero
        coefficients but skips the key check."""
        obj = cls.__new__(cls)
        obj.spec = spec
        obj.coords = {k: c for k, c in coords.items() if c}
        return obj

    def __add__(self, other):
        if type(other) is not type(self) or other.spec != self.spec:
            return NotImplemented
        data = dict(self.coords)
        for k, c in other.coords.items():
            data[k] = data.get(k, 0) + c
        return self._trusted(self.spec, data)

    def __neg__(self):
        return self._trusted(self.spec, {k: -c for k, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._trusted(self.spec, {k: c * other for k, c in self.coords.items()})
        if type(other) is type(self):
            return self._mul(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        return type(other) is type(self) and (self.spec, self.coords) == (other.spec, other.coords)
