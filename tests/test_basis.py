import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skl.basis import (
    BAND_EPSILON,
    BasisParams,
    _bernstein_window,
    band,
    basis_row,
    basis_rows,
    bernstein_rows,
    contract,
)
from skl.errors import DomainError

from conftest import exact_contraction, exact_weight

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


def test_non_finite_points_raise():
    # Finiteness is checked before the range, and no floating point warning
    # escapes (pytest turns those into errors).
    params = BasisParams(m=5)
    with pytest.raises(DomainError, match="nan is not finite"):
        basis_rows(params, [float("nan")])
    for y in (math.inf, -math.inf):
        with pytest.raises(DomainError, match="is not finite"):
            basis_rows(params, [0.5, y])
    for lam in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(DomainError, match="lam must lie in \\[0, 1\\]"):
            BasisParams(m=5, lam=lam)


def test_bernstein_rows_check_their_points():
    assert np.array_equal(bernstein_rows(5, [0.0, 1.0]), np.eye(6)[[0, 5]])
    for y in (1.2, -0.1):
        with pytest.raises(DomainError, match="outside \\[0, 1\\]"):
            bernstein_rows(5, [y])
    with pytest.raises(DomainError, match="nan is not finite"):
        bernstein_rows(5, [float("nan")])


def _dense_contraction(params, ys, values):
    return (basis_rows(params, ys) * values).sum(axis=1)


def test_band_keeps_all_but_epsilon_of_the_row():
    ys = np.array([0.01, 0.5, 0.99])
    for n in (50, 1003, 10_000):
        rows = bernstein_rows(n, ys)
        start, width = band(n, ys)
        for row, first in zip(rows, start):
            kept = np.zeros(n + 1, dtype=bool)
            kept[first : first + width] = True
            assert math.fsum(row[~kept].tolist()) <= BAND_EPSILON, (n, first)
        # A band is a slice of the dense row, bit for bit.
        banded = _bernstein_window(n, ys, start, width)
        for j, first in enumerate(start):
            assert np.array_equal(banded[j], rows[j, first : first + width]), (n, j)
    assert band(1003, ys)[1] == 295


def test_contract_matches_rational_reference_at_high_degree():
    # The banded sums against the exact weights over the whole row: the
    # columns the band leaves out carry nothing a float can see.
    m, q = 995, 5
    values = np.cos(np.arange(m + q + 1) / 7.0) + 2.0
    ys = [Fraction(0), Fraction(1, 1000), Fraction(3, 10), Fraction(11, 20), Fraction(7, 10)]
    ys.append(Fraction(1))
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        got = contract(BasisParams(m=m, q=q, lam=float(lam)), [float(y) for y in ys], values)
        for y, value in zip(ys, got):
            expected = float(exact_contraction(m, q, lam, y, values.tolist()))
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (lam, y)


def test_contract_keeps_the_tail_of_steep_values():
    # The band drops at most 2**-60 of b's mass, but (i/(M+1))**200 puts
    # the terms b_k * v_k near k = 410 at y = 0.3, close enough to the
    # band's end at 446 that the band alone loses 0.4% of the sum (7e-6 at
    # y = 0.5).  Such points must sum their whole row, in any batch.
    m, q = 995, 5
    values = (np.arange(m + q + 1) / (m + q + 1.0)) ** 200
    lam = Fraction(1, 2)
    params = BasisParams(m=m, q=q, lam=float(lam))
    ys = [Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]
    got = contract(params, [float(y) for y in ys], values)
    for y, value in zip(ys, got):
        expected = float(exact_contraction(m, q, lam, y, values.tolist()))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0), y
    assert got[0] == contract(params, [0.3], values)[0]


def test_contract_columns_equal_single_column_calls(monkeypatch):
    # Beside a smooth column, the steep (i/(M+1))**200 column makes points
    # at m = 995 sum whole rows (see the test above), and only for that
    # column; at 0.2 and 0.77 the smooth column's whole-row sum differs in
    # its last bit from its banded one.  Each column must still be the
    # one-column result bit for bit, and each point its own batch's.
    import skl.basis as basis_module

    whole_rows = []
    tap_sums = basis_module._tap_sums

    def spy(params, arr, columns, start, width):
        if width == params.degree - 1:
            whole_rows.append(len(columns))
        return tap_sums(params, arr, columns, start, width)

    monkeypatch.setattr(basis_module, "_tap_sums", spy)
    cases = (
        (BasisParams(m=2, lam=0.25), [0.0, 0.4, 1.0]),
        (BasisParams(m=995, q=5, lam=0.5), [0.0, 0.001, 0.2, 0.3, 0.5, 0.77, 0.9, 1.0]),
    )
    for params, ys in cases:
        idx = np.arange(params.degree + 1)
        V = np.column_stack([np.cos(idx / 7.0) + 2.0, (idx / (params.degree + 1.0)) ** 200])
        got = contract(params, ys, V)
        assert got.shape == (len(ys), 2)
        for c in range(2):
            assert np.array_equal(got[:, c], contract(params, ys, V[:, c])), (params.m, c)
        for j, y in enumerate(ys):
            assert np.array_equal(got[j], contract(params, [y], V)[0]), (params.m, y)
        assert np.array_equal(contract(params, ys, V[:, ::-1]), got[:, ::-1])
    # The banded degree: only the steep one-column calls took whole rows.
    whole_rows.clear()
    params, ys = cases[-1]
    contract(params, ys, V[:, 0])
    assert whole_rows == []
    contract(params, ys, V[:, 1])
    assert whole_rows == [1]
    with pytest.raises(ValueError, match="need 1001 values"):
        contract(params, ys, V[1:])
    with pytest.raises(ValueError, match="need 1001 values"):
        contract(params, ys, V[:, :, None])


def test_contract_at_the_smallest_degree():
    # m = 2, q = 0: b_{M-2} has degree 0, so the band is its one column.
    start, width = band(0, [0.0, 0.4, 1.0])
    assert width == 1 and not start.any()
    lam, values = Fraction(1, 4), [0.5, -1.0, 2.0]
    params = BasisParams(m=2, q=0, lam=float(lam))
    ys = [Fraction(0), Fraction(2, 5), Fraction(1)]
    points = [float(y) for y in ys]
    got = contract(params, points, values)
    for y, value in zip(ys, got):
        exact = exact_contraction(2, 0, lam, y, values)
        # At this degree the reference is exact_weight's own sum.
        assert exact == sum(
            exact_weight(2, 0, lam, i, y) * Fraction(v) for i, v in enumerate(values)
        )
        assert value == pytest.approx(float(exact), abs=1e-15)
    assert got == pytest.approx(_dense_contraction(params, points, values), abs=1e-15)


def test_contract_rejects_points_outside_the_domain():
    params = BasisParams(m=40, q=3, lam=0.6)
    values = np.linspace(-1.0, 2.0, params.degree + 1)
    with pytest.raises(DomainError, match="nan is not finite"):
        contract(params, [0.5, float("nan")], values)
    with pytest.raises(DomainError, match="1.2 outside"):
        contract(BasisParams(m=5), [0.5, 1.2], np.ones(6))
