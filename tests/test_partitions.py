import doctest
from math import comb

import pytest
from hypothesis import given, strategies as st

from detlinks import partitions
from detlinks.errors import DomainError
from detlinks.grass_ring import GrassClass, GrassSpec
from detlinks.links import grass_betti
from detlinks.partitions import (
    as_partition,
    box_complement,
    conjugate,
    partitions_in_box,
    weight,
)
from detlinks.tensor_calculus import ProdClass, ProdSpec

from conftest import partition_tuples
from oracles import PresentationPoly

# name -> (constructor taking (spec, coords), spec, another spec or None,
#          three valid keys, a key the constructor must reject)
SPARSE_CASES = {
    "GrassClass": (GrassClass, GrassSpec(2, 4), GrassSpec(2, 5), [(1,), (2, 1), (1, 1)], (3,)),
    "ProdClass": (ProdClass, ProdSpec(1, 3, 2), ProdSpec(1, 4, 2),
                  [((1,), ()), ((2,), (1,)), ((), (1,))], ((), (2,))),
    "PresentationPoly": (PresentationPoly, 2, 3, [(1, 0), (0, 2), (3, 1)], (1, -1)),
}


def test_as_partition_strips_zeros():
    assert as_partition([3, 1, 0]) == (3, 1)
    assert as_partition([]) == ()


@pytest.mark.parametrize("bad", [[1, 2], [2, -1], [0, 3]])
def test_as_partition_rejects(bad):
    with pytest.raises(ValueError):
        as_partition(bad)


def test_partitions_in_single_row_box():
    assert partitions_in_box(1, 2) == [(), (1,), (2,)]


def test_partitions_weight_filter():
    assert partitions_in_box(2, 2, 2) == [(2,), (1, 1)]


def test_partitions_box_count():
    assert len(partitions_in_box(2, 3)) == comb(5, 2)


def test_order_is_graded_then_lex_descending():
    got = partitions_in_box(2, 2)
    assert got == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


@given(partition_tuples())
def test_conjugate_is_involutive(p):
    assert conjugate(conjugate(p)) == p


@given(partition_tuples())
def test_conjugate_preserves_weight(p):
    assert weight(conjugate(p)) == weight(p)


@given(st.integers(0, 8), st.integers(0, 8))
def test_box_count_is_binomial(m, r):
    if r > m:
        r = m
    assert len(partitions_in_box(r, m - r)) == comb(m, r)


def test_box_complement():
    assert box_complement((2, 1), 2, 3) == (2, 1)
    assert box_complement((), 2, 2) == (2, 2)
    with pytest.raises(ValueError):
        box_complement((4,), 1, 3)


# grass_betti(r, m) holds the Gaussian binomial [m choose r], the partition
# counts of the r x (m - r) box by weight, in its even degrees
def test_gaussian_examples():
    assert grass_betti(1, 3)[::2] == (1, 1, 1)
    assert grass_betti(2, 4)[::2] == (1, 1, 2, 1, 1)
    assert grass_betti(0, 5) == (1,)


def test_gaussian_rejects_bad_args():
    with pytest.raises(DomainError):
        grass_betti(3, 2)


@given(st.integers(0, 8), st.integers(0, 8))
def test_gaussian_palindromic_and_counts(m, r):
    if r > m:
        r = m
    betti = grass_betti(r, m)
    assert betti == betti[::-1]
    assert sum(betti) == comb(m, r)


@pytest.mark.parametrize("name", list(SPARSE_CASES))
def test_shared_sparse_arithmetic(name):
    make, spec, other_spec, (k1, k2, k3), bad_key = SPARSE_CASES[name]
    a = make(spec, {k1: 2, k2: -3})
    b = make(spec, {k2: 1, k3: 4})
    assert not (a + (-a)).coords and a + (-a) == make(spec, {})
    assert a - b == a + (-1) * b
    assert not (0 * a).coords and not (a * 0).coords
    assert make(spec, [(k2, -3), (k1, 2)]) == a
    assert make(spec, [(k1, 2), (k1, 3), (k2, 0), (k3, 1), (k3, -1)]).coords == {k1: 5}
    for other_name, (other_make, spec2, *_) in SPARSE_CASES.items():
        if other_name != name:
            assert make(spec, {}) != other_make(spec2, {})
    if other_spec is not None:
        assert make(spec, {}) != make(other_spec, {})
    with pytest.raises(ValueError):
        make(spec, {bad_key: 1})
    with pytest.raises(TypeError):
        hash(a)


def test_docstring_examples_run():
    results = doctest.testmod(partitions)
    assert results.failed == 0
    assert results.attempted >= 4
