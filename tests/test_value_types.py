"""The value types of ``polar``, ``links``, ``cache`` and the duality
certifier keep the behaviour callers rely on: field equality and hashing,
immutability, the exact repr (error messages embed ``{spec}``), pickling
(the ``--jobs`` pool sends profiles between processes) and ``DetSpec``
validation."""

import pickle

import pytest

from detlinks.cache import CacheFile
from detlinks.errors import DomainError
from detlinks.links import DetSpec, betti_smooth_complex_link
from detlinks.polar import PolarProfile

from oracles import duality_check

# (build a fresh instance, its repr)
VALUES = {
    "PolarProfile": (
        lambda: PolarProfile(2, 3, 1, (3, 4, 3, 0), (-1, 1, -1, 1)),
        "PolarProfile(m=2, n=3, r=1, values=(3, 4, 3, 0), raw_signs=(-1, 1, -1, 1))",
    ),
    "DualityReport": (
        lambda: duality_check(2, 3, 1),
        "DualityReport(m=2, n=3, r=1, pairs=((0, 2, 3, 3), (1, 1, 4, 4), (2, 0, 3, 3), "
        "(3, -1, 0, 0)), all_equal=True)",
    ),
    "DetSpec": (
        lambda: DetSpec(3, 4, 3),
        "DetSpec(m=3, n=4, s=3)",
    ),
    "LinkProfile": (
        lambda: betti_smooth_complex_link(DetSpec(3, 4, 3), 6),
        "LinkProfile(spec=DetSpec(m=3, n=4, s=3), codim=6, chi=-7, middle=3, "
        "betti=(1, 0, 1, 9), torsion_status='unknown')",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_behaviour(name):
    build, text = VALUES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name
    assert value == twin
    assert hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        value.m = 0  # a field for some types, a new attribute for others
    with pytest.raises(AttributeError):
        value.extra = 0
    assert repr(value) == text
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value


def test_detspec_validates_every_construction():
    message = "need 1 <= s <= m <= n, got m=4, n=3, s=2"
    with pytest.raises(DomainError, match=message):
        DetSpec(4, 3, 2)
    with pytest.raises(DomainError, match=message):
        DetSpec(m=4, n=3, s=2)
    with pytest.raises(DomainError, match="got m=3, n=4, s=0"):
        DetSpec(3, 4, 3)._replace(s=0)
    assert DetSpec(3, 4, 3)._replace(n=5) == DetSpec(3, 5, 3)


def test_cache_file_holds_its_own_entries():
    first, second = CacheFile(), CacheFile()
    first.put(PolarProfile(2, 3, 1, (3, 4, 3, 0), (-1, 1, -1, 1)))
    assert list(first.entries) == ["2,3,1"]
    assert second.entries == {}
    entries = {}
    assert CacheFile(entries).entries is entries
