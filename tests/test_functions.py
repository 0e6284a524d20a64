import numpy as np
import pytest

from skl.bivariate import BivariateConfig, apply_bi
from skl.errors import EvaluationError
from skl.functions import (
    BUILTINS,
    Expression,
    ExpressionError,
    parse_expression,
    resolve_function,
)
from skl.univariate import apply


def test_expression_matches_builtin_polynomial():
    builtin = resolve_function("table1-poly")
    ys = np.linspace(0.0, 1.0, 17)
    assert builtin(ys) == pytest.approx(np.polyval([1.0, -5.0, 6.0, 2.0], ys), abs=1e-15)


def test_operator_precedence_and_associativity():
    # Constant expressions still take one argument per declared variable.
    assert parse_expression("2 + 3 * 4^2")(0.0) == pytest.approx(50.0)
    assert parse_expression("2^3^2")(0.0) == pytest.approx(512.0)  # right-assoc
    assert parse_expression("(2 + 3) * 4")(0.0) == pytest.approx(20.0)
    assert parse_expression("7 / 2 / 2")(0.0) == pytest.approx(1.75)  # left-assoc
    assert parse_expression("-y^2")(3.0) == pytest.approx(-9.0)
    assert parse_expression("2 - -3")(0.0) == pytest.approx(5.0)
    with pytest.raises(TypeError):
        parse_expression("y + 1")()


def test_two_variable_expression():
    expr = parse_expression("y1^3 * y2^2", variables=("y1", "y2"))
    assert expr(0.5, 2.0) == pytest.approx(0.5)
    fig3 = resolve_function("fig3-poly", arity=2)
    a = np.linspace(0, 1, 5)
    b = np.linspace(0, 1, 5)
    assert expr(a, b) == pytest.approx(fig3(a, b), abs=1e-15)


def test_parse_errors():
    for bad in ("y +", "2 * * 3", "(1 + 2", "y z", "", "1 $ 2"):
        with pytest.raises(ExpressionError):
            parse_expression(bad)
    with pytest.raises(ExpressionError):
        parse_expression("x + 1")  # unknown variable for the 1-d alphabet


def test_resolve_builtins_and_arity():
    for k in range(5):
        fn = resolve_function(f"e{k}")
        assert fn(0.5) == pytest.approx(0.5 ** k)
    with pytest.raises(ExpressionError):
        resolve_function("table1-poly", arity=2)
    with pytest.raises(ExpressionError):
        resolve_function("fig3-poly", arity=1)
    with pytest.raises(ExpressionError):
        resolve_function("y + 1", arity=3)
    assert set(BUILTINS) >= {"table1-poly", "fig3-poly", "e0", "e4"}


def test_const_prefix_broadcasts():
    one = resolve_function("const:1")
    assert one(0.3) == 1.0
    arr = one(np.linspace(0, 1, 7))
    assert isinstance(arr, np.ndarray)
    assert arr.shape == (7,)
    assert np.all(arr == 1.0)
    two_d = resolve_function("const:2.5", arity=2)
    assert two_d(0.1, 0.9) == 2.5
    with pytest.raises(ExpressionError):
        resolve_function("const:abc")


def test_expression_of_one_variable_broadcasts_over_both():
    # y1^2 uses only its first argument; its value must still have the
    # broadcast shape, or evaluate_on drops to a point-by-point loop.
    a, b = np.linspace(0, 1, 3)[:, None], np.linspace(0, 1, 4)[None, :]
    for text in ("y1^2", "y2 + 1"):
        assert resolve_function(text, arity=2)(a, b).shape == (3, 4)
    config = BivariateConfig(m1=5, m2=7, q1=1, q2=2, lam1=0.25, lam2=0.75, rho=0.5)
    ys1, ys2 = np.linspace(0, 1, 5), np.linspace(0, 1, 6)
    surface = apply_bi(config, resolve_function("y1^2", arity=2), ys1, ys2)
    expected = np.outer(apply(config.axis1, resolve_function("y^2"), ys1), np.ones(6))
    assert surface == pytest.approx(expected, abs=1e-12)


def test_expression_repr_and_type():
    expr = parse_expression("y * 2")
    assert isinstance(expr, Expression)
    assert "y * 2" in repr(expr)


def test_division_by_zero_raises():
    expr = parse_expression("1 / y")
    with pytest.raises(ZeroDivisionError):
        expr(0.0)
    assert expr(0.5) == pytest.approx(2.0)


def test_complex_and_overflowing_values_raise():
    with pytest.raises(EvaluationError, match=r"'\(-1\)\^0\.5' has a complex value"):
        parse_expression("(-1)^0.5")(0.5)
    with pytest.raises(EvaluationError, match="complex"):
        parse_expression("(y - 1)^0.5")(0.25)
    with pytest.raises(EvaluationError, match="'10\\^400' overflows"):
        parse_expression("10^400")(np.linspace(0.0, 1.0, 3))
    # Array results that leave the reals stay arrays; callers check finiteness.
    with np.errstate(all="raise"):
        values = parse_expression("(y - 1)^0.5 + 1/y")(np.array([0.0, 0.25]))
    assert np.isnan(values).all()
