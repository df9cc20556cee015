import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from detlinks import cli, polar
from detlinks.grass_ring import GrassSpec, SparseElement
from detlinks.partitions import partitions_in_box
from detlinks.tensor_calculus import ProdSpec

sys.path.insert(0, str(Path(__file__).parent))

from oracles import as_partition, fits_in_box  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_polar_memos():
    """Each test starts with no memoized Bott sums, so a test that patches a
    step of the sum (``_reweight``, ``_revolving_door``) sees the sum run,
    and with no served profile checked, so a test that patches the closed
    forms sees every served cell checked."""
    polar._bott_sums.cache_clear()
    cli._check_served.cache_clear()


def assert_canonical(cls):
    """``SparseElement`` checks no key, so check what a producer returns:
    each key is a canonical partition inside the box of a GrassSpec, or a
    pair of them inside the two factor boxes of a ProdSpec, and no
    coefficient is zero."""
    if isinstance(cls.spec, GrassSpec):
        boxes, keys = (cls.spec,), [(key,) for key in cls.coords]
    else:
        boxes, keys = (cls.spec.factor1, cls.spec.factor2), list(cls.coords)
    for key in keys:
        assert type(key) is tuple and len(key) == len(boxes), key
        for lam, box in zip(key, boxes):
            assert as_partition(lam) == lam and fits_in_box(lam, box.r, box.cols), key
    assert all(cls.coords.values())


def partition_tuples(max_part=8, max_len=6):
    """Arbitrary small partitions."""
    return st.lists(
        st.integers(min_value=1, max_value=max_part), max_size=max_len
    ).map(lambda parts: tuple(sorted(parts, reverse=True)))


@st.composite
def spec_with_classes(draw, count=2, max_m=6, max_coeff=4):
    """A Grassmannian spec plus ``count`` random homogeneous classes on it."""
    m = draw(st.integers(min_value=1, max_value=max_m))
    r = draw(st.integers(min_value=0, max_value=m))
    spec = GrassSpec(r, m)
    classes = []
    for _ in range(count):
        deg = draw(st.integers(min_value=0, max_value=spec.dim))
        basis = partitions_in_box(spec.r, spec.cols, deg)
        coeffs = draw(
            st.lists(
                st.integers(min_value=-max_coeff, max_value=max_coeff),
                min_size=len(basis),
                max_size=len(basis),
            )
        )
        classes.append(SparseElement(spec, dict(zip(basis, coeffs))))
    return spec, classes


def _prod_class(draw, spec, deg, max_coeff):
    f1, f2 = spec.factor1, spec.factor2
    basis = [
        (lam, mu)
        for d1 in range(deg + 1)
        for lam in partitions_in_box(f1.r, f1.cols, d1)
        for mu in partitions_in_box(f2.r, f2.cols, deg - d1)
    ]
    coeffs = draw(
        st.lists(
            st.integers(min_value=-max_coeff, max_value=max_coeff),
            min_size=len(basis),
            max_size=len(basis),
        )
    )
    return SparseElement(spec, dict(zip(basis, coeffs)))


@st.composite
def prod_spec_with_classes(draw, count=2, complementary=False, max_n=5, max_coeff=4):
    """A product-ring spec plus ``count`` random homogeneous classes on it;
    with ``complementary`` the two classes have degrees adding up to dim."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=n))
    r = draw(st.integers(min_value=0, max_value=m))
    spec = ProdSpec(r, n, m)
    degs = [draw(st.integers(min_value=0, max_value=spec.dim)) for _ in range(count)]
    if complementary:
        degs = [degs[0], spec.dim - degs[0]]
    return spec, [_prod_class(draw, spec, d, max_coeff) for d in degs]
