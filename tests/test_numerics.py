import math
from fractions import Fraction

import numpy as np
import pytest

from skl.errors import DomainError, EvaluationError
from skl.numerics import (
    BinomialTable,
    Grid,
    QuadratureRule,
    binomial,
    composite_nodes,
    evaluate_on,
    fsum_product,
    integrate_unit,
    jacobi_rule,
    sup_on_grid,
    unit_grid,
)


def test_binomial_small_exact():
    table = BinomialTable()
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert table.exact(n, k) == math.comb(n, k)
            assert table.value(n, k) == float(math.comb(n, k))


def test_binomial_out_of_range_is_zero():
    table = BinomialTable()
    assert table.value(5, -1) == 0.0
    assert table.value(5, 6) == 0.0
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_binomial_beyond_exact_limit_matches_comb():
    table = BinomialTable()
    for n, k in ((200, 3), (500, 250), (1200, 17)):
        expected = math.comb(n, k)
        assert table.value(n, k) == pytest.approx(float(expected), rel=1e-12)


def test_binomial_row():
    table = BinomialTable()
    row = table.row(9)
    assert row.tolist() == [float(math.comb(9, k)) for k in range(10)]


def test_gauss_legendre_exact_for_high_degree():
    rule = QuadratureRule.gauss_legendre(32)
    assert math.fsum(rule.weights.tolist()) == pytest.approx(1.0, abs=1e-15)
    # Order-32 Gauss is exact through degree 63.
    for k in (1, 5, 20, 63):
        value = float(rule.weights @ rule.nodes ** k)
        assert value == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_jacobi_rule_exact_for_high_degree():
    # beta = 1/rho - 1 for rho = 2, 1, 0.9 and 0.1.
    for beta in (-0.5, 0.0, 1.0 / 0.9 - 1.0, 9.0):
        nodes, weights = jacobi_rule(32, beta)
        assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=1e-15)
        assert nodes.min() > 0.0 and nodes.max() < 1.0
        # Order-32 Gauss is exact through degree 63 for its weight.
        for k in range(64):
            value = float(weights @ nodes ** k)
            assert value == pytest.approx((beta + 1.0) / (beta + k + 1.0), rel=1e-13)
    with pytest.raises(DomainError):
        jacobi_rule(32, -1.0)


def test_composite_nodes_cover_unit_interval():
    t, w = composite_nodes(subdivisions=8, origin_levels=16)
    assert t.min() > 0.0 and t.max() < 1.0
    assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.diff(t) > 0)


def test_origin_refinement_handles_root_singularity():
    # d/dt t^0.1 blows up at 0; plain composite quadrature stalls near 1e-7
    # accuracy while geometric refinement reaches the requested 1e-10.
    exact = 1.0 / 1.1
    refined = integrate_unit(lambda t: t ** 0.1, origin_levels=16)
    assert abs(refined - exact) < 1e-10
    plain = integrate_unit(lambda t: t ** 0.1, origin_levels=0)
    assert abs(plain - exact) > abs(refined - exact)


def test_integrate_unit_polynomial():
    value = integrate_unit(lambda t: 3.0 * t ** 2 - t + 0.25)
    assert value == pytest.approx(1.0 - 0.5 + 0.25, abs=1e-14)


def test_grid_validation_and_step():
    grid = Grid(lo=0.0, hi=1.0, count=5)
    assert grid.step == pytest.approx(0.25)
    assert grid.points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(DomainError):
        Grid(lo=0.0, hi=1.0, count=1)
    with pytest.raises(DomainError):
        Grid(lo=1.0, hi=0.0, count=5)


def test_grid_points_immutable():
    grid = unit_grid(11)
    with pytest.raises(ValueError):
        grid.points[0] = 5.0


def test_sup_on_grid_first_argmax():
    grid = Grid(lo=0.0, hi=1.0, count=5)
    value, arg = sup_on_grid(lambda x: np.where(x > 0.6, 1.0, np.where(x > 0.2, 2.0, 0.0)), grid)
    assert value == 2.0
    assert arg == 0.25  # ties resolve to the first grid point


def test_fsum_product_matches_rational_dot():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, size=64)
    # Adversarial cancellation: large paired terms of opposite sign.
    b = np.concatenate([np.full(32, 1e12), np.full(32, -1e12)]) + rng.uniform(size=64)
    exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
    assert fsum_product(a, b) == pytest.approx(float(exact), rel=1e-15, abs=1e-9)


def test_evaluate_on_scalar_fallback():
    def scalar_only(x):
        return math.sin(x)  # rejects arrays

    xs = np.linspace(0.0, 1.0, 7)
    values = evaluate_on(scalar_only, xs)
    assert values == pytest.approx(np.sin(xs))


def test_evaluate_on_rejects_nonfinite():
    with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
        evaluate_on(lambda x: 1.0 / (x - 0.5), np.array([0.25, 0.5]))
