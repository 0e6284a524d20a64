import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_moment, exact_window_integral
from skl.errors import DomainError
from skl.functions import resolve_function
from skl.numerics import (
    JACOBI_TOLERANCE,
    SINGULAR_ORIGIN_LEVELS,
    Grid,
    composite_nodes,
    evaluate_on,
    jacobi_rule,
    unit_grid,
)
from skl.univariate import (
    CentralMomentSet,
    MomentSet,
    OperatorConfig,
    apply,
    central_moments,
    closed_identity_residual,
    error_curve,
    moments_closed,
    monomial_kantorovich_integral,
    monomial_moment,
    oracle_central_moments,
    oracle_moments,
    point_delta,
    window_integrals,
)

#: Frozen from the exact rational reference (see conftest helpers).
INTEGRAL_10_RHO_HALF_3_2 = 0.1115702479338843  # = 27/242
E1_10_5_HALF_TENTH_AT_03 = 0.49173553719008267  # = 119/242
E2_10_5_HALF_TENTH_AT_03 = 0.2696293513648886  # = 107663/399300
PSI2_10_5_HALF_TENTH_AT_03 = 0.06458802905083896  # = 2579/39930
K_TABLE1_M20_AT_05 = 4.007407275264418
ERR_TABLE1_M20_AT_05 = 0.13240727526441812  # reference column gives 0.1324072752


def table1_target(y):
    return y ** 3 - 5.0 * y ** 2 + 6.0 * y + 2.0


def test_config_validation():
    with pytest.raises(DomainError):
        OperatorConfig(m=10, rho=0.0)
    with pytest.raises(DomainError):
        OperatorConfig(m=10, rho=-1.0)
    with pytest.raises(DomainError):
        OperatorConfig(m=1)
    cfg = OperatorConfig(m=12, q=3)
    assert cfg.degree == 15
    assert cfg.sample_hi == pytest.approx(16.0 / 13.0)


def test_window_integrals_of_one():
    cfg = OperatorConfig(m=7, q=2, lam=0.4, rho=0.3)
    values = window_integrals(cfg, lambda y: np.ones_like(y))
    assert values == pytest.approx(np.ones(10), abs=1e-14)


def test_window_integrals_fall_back_where_jacobi_pair_disagrees():
    # Targets with a kink or a root inside a window: Gauss-Jacobi is off by
    # ~1e-5 there, so exactly those windows take the composite rule's value.
    # Three kinks show that several flagged windows keep that value too.
    kinks = "((y-0.3)^2)^0.5 + ((y-0.55)^2)^0.5 + ((y-0.8)^2)^0.5"
    cases = (("y^0.5", 2.0, [0]), ("((y-0.3)^2)^0.5", 0.9, [6]), (kinks, 2.0, [6, 11, 16]))
    for text, rho, flagged in cases:
        cfg = OperatorConfig(m=20, q=2, lam=0.5, rho=rho)
        f = resolve_function(text)
        idx = np.arange(cfg.degree + 1, dtype=float)

        def rule_values(nodes, weights):
            return evaluate_on(f, (idx[:, None] + nodes[None, :]) / (cfg.m + 1)) @ weights

        low, high = (rule_values(*jacobi_rule(n, 1.0 / rho - 1.0)) for n in (32, 64))
        rejected = np.abs(low - high) > JACOBI_TOLERANCE * np.maximum(1.0, np.abs(high))
        assert np.flatnonzero(rejected).tolist() == flagged
        t, w = composite_nodes(origin_levels=SINGULAR_ORIGIN_LEVELS if rho < 1.0 else 0)
        composite = rule_values(t ** rho, w)
        values = window_integrals(cfg, f)
        assert np.array_equal(values[rejected], composite[rejected])
        assert np.array_equal(values[~rejected], high[~rejected])


def test_frozen_monomial_integral():
    cfg = OperatorConfig(m=10, q=0, rho=0.5)
    assert monomial_kantorovich_integral(cfg, 3, 2) == pytest.approx(
        INTEGRAL_10_RHO_HALF_3_2, abs=1e-16
    )
    assert monomial_kantorovich_integral(cfg, 3, 0) == 1.0
    with pytest.raises(DomainError):
        monomial_kantorovich_integral(cfg, 11, 2)
    with pytest.raises(DomainError):
        monomial_kantorovich_integral(cfg, 0, -1)


def test_monomial_integral_matches_rational_reference(rng):
    for _ in range(30):
        m = int(rng.integers(2, 20))
        i = int(rng.integers(0, m + 1))
        k = int(rng.integers(0, 5))
        rho = Fraction(int(rng.integers(1, 30)), 10)
        cfg = OperatorConfig(m=m, rho=float(rho))
        expected = float(exact_window_integral(m, rho, i, k))
        assert monomial_kantorovich_integral(cfg, i, k) == pytest.approx(
            expected, rel=1e-14
        )


def test_frozen_oracle_moments():
    cfg = OperatorConfig(m=10, q=5, lam=0.5, rho=0.1)
    e0, e1, e2 = oracle_moments(cfg, 0.3)
    assert e0 == pytest.approx(1.0, abs=1e-14)
    assert e1 == pytest.approx(E1_10_5_HALF_TENTH_AT_03, abs=1e-14)
    assert e2 == pytest.approx(E2_10_5_HALF_TENTH_AT_03, abs=1e-14)


def test_oracle_moments_match_rational_reference(rng):
    for _ in range(10):
        m = int(rng.integers(2, 12))
        q = int(rng.integers(0, 4))
        lam = Fraction(int(rng.integers(0, 5)), 4)
        lam = min(lam, Fraction(1))
        rho = Fraction(int(rng.integers(1, 25)), 10)
        u = Fraction(int(rng.integers(0, 11)), 10)
        cfg = OperatorConfig(m=m, q=q, lam=float(lam), rho=float(rho))
        for k in range(3):
            expected = float(exact_moment(m, q, lam, rho, u, k))
            assert monomial_moment(cfg, float(u), k) == pytest.approx(
                expected, abs=2e-13
            ), (m, q, lam, rho, u, k)


def test_quadrature_agrees_with_summation(rng):
    # Dual-route check: the generic quadrature path against the exact
    # binomial summation, including the root-singular rho below 1.
    for rho, tol in ((0.1, 1e-7), (0.5, 1e-9), (1.0, 1e-9), (2.0, 1e-9)):
        for _ in range(10):
            cfg = OperatorConfig(
                m=int(rng.integers(2, 40)),
                q=int(rng.integers(0, 6)),
                lam=float(rng.uniform()),
                rho=rho,
            )
            u = float(rng.uniform())
            k = int(rng.integers(0, 5))
            quad = apply(cfg, lambda y, _k=k: y ** _k, u)
            assert abs(quad - monomial_moment(cfg, u, k)) < tol


def test_frozen_operator_value_and_error():
    cfg = OperatorConfig(m=20, q=5, lam=0.5, rho=0.1)
    value = apply(cfg, table1_target, 0.5)
    assert value == pytest.approx(K_TABLE1_M20_AT_05, abs=1e-11)
    assert abs(value - table1_target(0.5)) == pytest.approx(
        ERR_TABLE1_M20_AT_05, abs=1e-9
    )


def test_apply_shapes():
    cfg = OperatorConfig(m=5, q=1, lam=0.3, rho=1.0)
    scalar = apply(cfg, table1_target, 0.4)
    assert isinstance(scalar, float)
    arr = apply(cfg, table1_target, np.array([0.4, 0.6]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(scalar, abs=1e-15)
    # A point's value does not depend on the batch it arrives in.
    ys = np.linspace(0.0, 1.0, 1001)
    for m in (20, 1000):
        cfg = OperatorConfig(m=m, q=5, lam=0.5, rho=0.1)
        batch = apply(cfg, table1_target, ys)
        single = np.array([apply(cfg, table1_target, float(y)) for y in ys])
        assert np.array_equal(batch, single), m


def test_closed_e1_crossing_point():
    # At m=10, q=0, lambda=1/2, rho=1, u=1/2 the transcription and the
    # operator agree exactly: both give e1 = 1/2.
    cfg = OperatorConfig(m=10, q=0, lam=0.5, rho=1.0)
    ms = moments_closed(cfg, 0.5)
    assert ms.e1 == pytest.approx(0.5, abs=1e-15)
    assert ms.oracle_e1 == pytest.approx(0.5, abs=1e-15)


def test_moment_set_shape_and_discrepancy():
    cfg = OperatorConfig(m=10, q=5, lam=0.5, rho=0.1)
    ms = moments_closed(cfg, 0.3)
    assert isinstance(ms, MomentSet)
    assert ms.at == 0.3
    assert ms.e0 == 1.0
    # The transcribed forms ignore q and genuinely diverge from the
    # operator here; the gap is a documented feature, not noise.
    assert ms.max_discrepancy > 1e-3
    assert ms.max_discrepancy == max(
        abs(ms.e0 - ms.oracle_e0),
        abs(ms.e1 - ms.oracle_e1),
        abs(ms.e2 - ms.oracle_e2),
    )


def test_frozen_central_moment():
    cfg = OperatorConfig(m=10, q=5, lam=0.5, rho=0.1)
    cs = central_moments(cfg, 0.3)
    assert isinstance(cs, CentralMomentSet)
    assert cs.oracle_psi2 == pytest.approx(PSI2_10_5_HALF_TENTH_AT_03, abs=1e-14)
    assert abs(cs.identity_residual) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 50),
    q=st.integers(0, 8),
    lam=st.floats(0.0, 1.0),
    rho=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    u=st.floats(0.0, 1.0),
)
def test_central_moment_identity_property(m, q, lam, rho, u):
    cfg = OperatorConfig(m=m, q=q, lam=lam, rho=rho)
    cs = central_moments(cfg, u)
    assert abs(cs.identity_residual) <= 1e-12
    assert cs.oracle_psi2 >= -1e-12


def test_point_delta_is_sqrt_of_psi2():
    cfg = OperatorConfig(m=14, q=2, lam=0.7, rho=0.5)
    psi2 = oracle_central_moments(cfg, 0.42)[1]
    assert point_delta(cfg, 0.42) == pytest.approx(math.sqrt(psi2), abs=1e-15)


def test_closed_identity_residual_nonzero():
    # The published central moments do not satisfy the raw-central identity
    # built from the published raw moments; the defect is what the audit
    # reports.
    cfg = OperatorConfig(m=10, q=0, lam=0.5, rho=1.0)
    assert abs(closed_identity_residual(cfg, 0.5)) > 1e-3


def test_positivity_and_monotone_window(rng):
    cfg = OperatorConfig(m=9, q=3, lam=0.25, rho=0.5)
    ys = np.linspace(0.0, 1.0, 11)
    values = apply(cfg, lambda y: np.square(y - 0.4), ys)
    assert np.all(values >= -1e-14)


def test_error_curve_table_and_csv(tmp_path):
    cfg = OperatorConfig(m=20, q=5, lam=0.5, rho=0.1)
    table = error_curve(cfg, table1_target, Grid(lo=0.0, hi=1.0, count=11))
    assert table.errors.shape == (11,)
    assert np.all(table.bounds >= 0.0)
    assert np.all(table.deltas > 0.0)
    path = tmp_path / "errs.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,error,bound_thm33,delta"
    assert len(lines) == 12
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    assert parsed[:, 1] == pytest.approx(table.errors, rel=1e-10)


def test_moments_at_grid_edges():
    cfg = OperatorConfig(m=6, q=0, lam=1.0, rho=1.0)
    e0, e1, e2 = oracle_moments(cfg, 0.0)
    # Only the i=0 window survives at u=0: e1 = 1/(2(m+1)), e2 = 1/(3(m+1)^2).
    assert e0 == pytest.approx(1.0, abs=1e-15)
    assert e1 == pytest.approx(1.0 / 14.0, abs=1e-15)
    assert e2 == pytest.approx(1.0 / 147.0, abs=1e-15)
