import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skl.basis import BasisParams, basis_row, basis_rows
from skl.errors import DomainError

from conftest import exact_weight

PARTITION_TOL = 1e-12
WEIGHT_FLOOR = -1e-14

#: Frozen from the exact rational reference: p_3(0.3) for m=10, q=5,
#: lambda=1/2, where the true value is 67784738076783/400000000000000.
WEIGHT_10_5_HALF_3_AT_03 = 0.1694618451919575


def test_frozen_weight_value():
    params = BasisParams(m=10, q=5, lam=0.5)
    assert basis_row(params, 0.3)[3] == pytest.approx(
        WEIGHT_10_5_HALF_3_AT_03, abs=1e-15
    )


def test_weights_match_rational_reference(rng):
    for _ in range(25):
        m = int(rng.integers(2, 15))
        q = int(rng.integers(0, 5))
        lam = Fraction(int(rng.integers(0, 8)), 8)
        y = Fraction(int(rng.integers(0, 11)), 10)
        params = BasisParams(m=m, q=q, lam=float(lam))
        row = basis_row(params, float(y))
        for i in range(m + q + 1):
            expected = float(exact_weight(m, q, lam, i, y))
            assert row[i] == pytest.approx(expected, abs=5e-15), (m, q, lam, y, i)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 80),
    q=st.integers(0, 10),
    lam=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
)
def test_partition_of_unity(m, q, lam, y):
    row = basis_row(BasisParams(m=m, q=q, lam=lam), y)
    assert abs(math.fsum(row.tolist()) - 1.0) <= PARTITION_TOL
    assert row.min() >= WEIGHT_FLOOR


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 40),
    q=st.integers(0, 6),
    lam=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
)
def test_lambda_affinity(m, q, lam, y):
    # The blend is affine in lambda, so any value interpolates the ends.
    at_zero = basis_row(BasisParams(m=m, q=q, lam=0.0), y)
    at_one = basis_row(BasisParams(m=m, q=q, lam=1.0), y)
    blended = basis_row(BasisParams(m=m, q=q, lam=lam), y)
    assert blended == pytest.approx((1.0 - lam) * at_zero + lam * at_one, abs=1e-13)


def test_endpoint_concentration():
    params = BasisParams(m=9, q=4, lam=0.37)
    at_zero = basis_row(params, 0.0)
    assert at_zero[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(at_zero[1:] == 0.0)
    at_one = basis_row(params, 1.0)
    assert at_one[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(at_one[:-1] == 0.0)


@pytest.mark.parametrize("m, rel", [(2000, 1e-12), (10_000, 1e-11)])
def test_high_degree_rows(m, rel):
    # Far past where C(M, k) overflows a float: the peak weights still match
    # the rational reference and the row still sums to 1.
    params = BasisParams(m=m, q=5, lam=0.5)
    for y in (Fraction(3, 10), Fraction(1, 2)):
        row = basis_row(params, float(y))
        peak = int(np.argmax(row))
        for i in range(peak - 2, peak + 3):
            expected = float(exact_weight(m, 5, Fraction(1, 2), i, y))
            assert row[i] == pytest.approx(expected, rel=rel), (m, y, i)
        assert abs(math.fsum(row.tolist()) - 1.0) <= PARTITION_TOL
    at_zero, at_one = basis_rows(params, [0.0, 1.0])
    assert at_zero[0] == 1.0 and not at_zero[1:].any()
    assert at_one[-1] == 1.0 and not at_one[:-1].any()


def test_row_length_is_degree_plus_one():
    assert len(basis_row(BasisParams(m=11, q=7, lam=0.2), 0.5)) == 19


def test_rows_matrix_matches_single_rows():
    params = BasisParams(m=6, q=2, lam=0.8)
    ys = np.array([0.0, 0.21, 0.5, 0.99, 1.0])
    rows = basis_rows(params, ys)
    assert rows.shape == (5, 9)
    for k, y in enumerate(ys):
        assert rows[k] == pytest.approx(basis_row(params, float(y)), abs=1e-16)


def test_parameter_validation():
    with pytest.raises(DomainError):
        BasisParams(m=1, q=0, lam=0.5)
    with pytest.raises(DomainError):
        BasisParams(m=5, q=-1, lam=0.5)
    with pytest.raises(DomainError):
        BasisParams(m=5, q=0, lam=1.5)
    with pytest.raises(DomainError):
        basis_row(BasisParams(m=5, q=0, lam=0.5), 1.2)
    with pytest.raises(DomainError):
        basis_row(BasisParams(m=5, q=0, lam=0.5), float("nan"))
    BasisParams(m=2, q=0, lam=0.0)  # smallest legal degree


def test_unchecked_skips_range_guards():
    params = BasisParams(m=5, q=0, lam=0.5, unchecked=True)
    row = basis_row(params, 1.1)  # outside [0,1], allowed when unchecked
    assert np.all(np.isfinite(row))
