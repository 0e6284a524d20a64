import numpy as np
import pytest

from skl.analysis import (
    LipschitzParams,
    bound_thm33,
    bound_thm41,
    bound_thm71,
    bound_thm72,
    korovkin_defects,
    moment_defect_curve,
    weighted_convergence,
)
from skl.bivariate import BivariateConfig, SeparableFunction, apply_bi, window_deltas
from skl.errors import DomainError
from skl.modulus import modulus_scan, surface_modulus
from skl.numerics import unit_grid
from skl.univariate import OperatorConfig, apply, oracle_central_moments, point_delta

TABLE1_CFG = OperatorConfig(m=20, q=5, lam=0.5, rho=0.1)

#: The published reference error at x = 0.5, n = 20; any sound bound at
#: that point must sit above it.
REFERENCE_ERROR_05_N20 = 0.1324072752


def table1_target(y):
    return y ** 3 - 5.0 * y ** 2 + 6.0 * y + 2.0


def test_thm33_dominates_reference_error():
    bound, delta = bound_thm33(TABLE1_CFG, table1_target, 0.5)
    assert delta == pytest.approx(point_delta(TABLE1_CFG, 0.5), abs=1e-15)
    assert bound >= REFERENCE_ERROR_05_N20


def test_thm33_scan_reuse_and_structure():
    scan = modulus_scan(table1_target, lo=0.0, hi=TABLE1_CFG.sample_hi)
    b1, d1 = bound_thm33(TABLE1_CFG, table1_target, 0.3, scan=scan)
    b2, d2 = bound_thm33(TABLE1_CFG, table1_target, 0.3)
    assert (b1, d1) == (b2, d2)
    assert b1 == pytest.approx(2.0 * scan.value_at(d1), abs=1e-15)


def test_thm33_sound_on_coarse_grid():
    grid = unit_grid(26)
    scan = modulus_scan(table1_target, lo=0.0, hi=TABLE1_CFG.sample_hi)
    pad = 6.0 * scan.step  # Lipschitz constant of the target on the window
    for x in grid.points:
        err = abs(apply(TABLE1_CFG, table1_target, float(x)) - table1_target(float(x)))
        bound, _ = bound_thm33(TABLE1_CFG, table1_target, float(x), scan=scan)
        assert err <= bound + pad


def test_lipschitz_params_validation():
    with pytest.raises(DomainError):
        LipschitzParams(M=-1.0)
    with pytest.raises(DomainError):
        LipschitzParams(M=1.0, gamma=0.0)
    with pytest.raises(DomainError):
        LipschitzParams(M=1.0, gamma=1.2)
    with pytest.raises(DomainError):
        LipschitzParams(M=1.0, k1=0.0)
    with pytest.raises(DomainError):
        LipschitzParams(M=1.0, tau=1.0001)
    params = LipschitzParams(M=2.0, E_set=(0, 1))
    assert params.E_set == (0.0, 1.0)


def test_thm41_formula_and_domain():
    params = LipschitzParams(M=3.0, gamma=0.8, k1=2.0, k2=0.5)
    u = 0.4
    psi2 = max(oracle_central_moments(TABLE1_CFG, u)[1], 0.0)
    expected = 3.0 * (psi2 / (2.0 * u + 0.5 * u * u)) ** 0.4
    assert bound_thm41(TABLE1_CFG, params, u) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        bound_thm41(TABLE1_CFG, params, 0.0)
    # Linear in M.
    doubled = LipschitzParams(M=6.0, gamma=0.8, k1=2.0, k2=0.5)
    assert bound_thm41(TABLE1_CFG, doubled, u) == pytest.approx(
        2.0 * bound_thm41(TABLE1_CFG, params, u), rel=1e-14
    )


BI_CFG = BivariateConfig(m1=10, m2=10, q1=5, q2=5, lam1=0.5, lam2=0.5, rho=0.9)


def test_thm71_structure_and_soundness():
    g = SeparableFunction(lambda a: a ** 3, lambda b: b ** 2)
    samples = surface_modulus(
        g, hi1=BI_CFG.axis1.sample_hi, hi2=BI_CFG.axis2.sample_hi, count=301
    )
    for point in ((0.25, 0.75), (0.5, 0.5), (1.0, 0.1)):
        bound, d1, d2 = bound_thm71(BI_CFG, g, *point, samples=samples)
        assert (d1, d2) == window_deltas(BI_CFG, *point)
        assert bound == pytest.approx(
            2.0 * (samples.omega1(d1) + samples.omega2(d2)), abs=1e-15
        )
        err = abs(apply_bi(BI_CFG, g, *point) - g(*point))
        assert err <= bound  # huge margin at this size; no padding needed


def test_thm72_formula_and_empty_anchor_set():
    params = LipschitzParams(M=1.5, tau=0.6, E_set=(0.0, 0.5, 1.0))
    y1, y2 = 0.3, 0.85
    d1 = min(abs(a - y1) for a in params.E_set)
    d2 = min(abs(a - y2) for a in params.E_set)
    delta1, delta2 = window_deltas(BI_CFG, y1, y2)
    tau = params.tau
    expected = 1.5 * (
        (d1 ** tau + delta1 ** tau) * (d2 ** tau + delta2 ** tau)
        + d1 ** tau * d2 ** tau
    )
    assert bound_thm72(BI_CFG, params, y1, y2) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        bound_thm72(BI_CFG, LipschitzParams(M=1.0), y1, y2)


def test_thm72_zero_at_anchor_with_zero_radii():
    # With y on the anchor set, only the delta terms survive.
    params = LipschitzParams(M=1.0, tau=1.0, E_set=(0.3,))
    delta1, delta2 = window_deltas(BI_CFG, 0.3, 0.3)
    assert bound_thm72(BI_CFG, params, 0.3, 0.3) == pytest.approx(
        delta1 * delta2, rel=1e-12
    )


def test_moment_defect_zero_for_constant():
    curve = moment_defect_curve(TABLE1_CFG, (0,), unit_grid(101))
    assert np.all(curve <= 1e-14)


def test_korovkin_defects_shrink():
    defects = korovkin_defects((10, 20, 40), q=5, lam=0.5, rho=0.1, grid=unit_grid(1001))
    assert defects.shape == (3, 2)
    # One contraction per m gives each k the maximum of its own curve.
    for a, m in enumerate((10, 20, 40)):
        config = OperatorConfig(m=m, q=5, lam=0.5, rho=0.1)
        maxima = [moment_defect_curve(config, (k,), unit_grid(1001)).max() for k in (1, 2)]
        assert np.array_equal(defects[a], maxima), m
    for col in range(2):
        assert defects[2, col] < defects[1, col] < defects[0, col]


def test_weighted_convergence_rows():
    report = weighted_convergence((10, 20, 40), q=5, lam=0.5, rho=0.1, grid=unit_grid(1001))
    assert np.all(report.row(0) == 0.0)  # unit-mass windows: defect is exactly 0
    assert report.is_decreasing(0)
    assert report.is_decreasing(1)
    assert report.is_decreasing(2)
    assert report.n_ladder == (10, 20, 40)
    assert report.norms.shape == (3, 3)
