import math

import numpy as np
import pytest

from skl.errors import DomainError, EvaluationError
from skl.numerics import (
    Grid,
    composite_nodes,
    evaluate_on,
    jacobi_rule,
    unit_grid,
)


def test_gauss_legendre_exact_for_high_degree():
    # One cell of the composite rule is the 32-node Gauss-Legendre rule.
    nodes, weights = composite_nodes(subdivisions=1)
    assert len(nodes) == 32
    assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=1e-15)
    # Order-32 Gauss is exact through degree 63.
    for k in (1, 5, 20, 63):
        value = float(weights @ nodes ** k)
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
    # beta**2 overflows, 2 + beta rounds to 1, or beta is infinite: no
    # finite recurrence, refused without a floating point warning.
    for beta in (1e300, 1.0 / 1e16 - 1.0, math.inf):
        with pytest.raises(DomainError, match="no finite 8-node Jacobi rule"):
            jacobi_rule(8, beta)


def test_composite_nodes_cover_unit_interval():
    t, w = composite_nodes(subdivisions=8, origin_levels=16)
    assert t.min() > 0.0 and t.max() < 1.0
    assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.diff(t) > 0)


def composite_integral(f, origin_levels=0):
    t, w = composite_nodes(origin_levels=origin_levels)
    return float(np.dot(w, f(t)))


def test_origin_refinement_handles_root_singularity():
    # d/dt t^0.1 blows up at 0; plain composite quadrature stalls near 1e-7
    # accuracy while geometric refinement reaches the requested 1e-10.
    exact = 1.0 / 1.1
    refined = composite_integral(lambda t: t ** 0.1, origin_levels=16)
    assert abs(refined - exact) < 1e-10
    plain = composite_integral(lambda t: t ** 0.1, origin_levels=0)
    assert abs(plain - exact) > abs(refined - exact)


def test_composite_rule_polynomial():
    value = composite_integral(lambda t: 3.0 * t ** 2 - t + 0.25)
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


def test_evaluate_on_scalar_fallback():
    def scalar_only(x):
        return math.sin(x)  # rejects arrays

    xs = np.linspace(0.0, 1.0, 7)
    values = evaluate_on(scalar_only, xs)
    assert values == pytest.approx(np.sin(xs))


def test_evaluate_on_rejects_nonfinite():
    with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
        evaluate_on(lambda x: 1.0 / (x - 0.5), np.array([0.25, 0.5]))
