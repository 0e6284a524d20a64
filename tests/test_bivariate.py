import numpy as np
import pytest

from skl.audit import bi_moment_rows
from skl.bivariate import (
    BivariateConfig,
    SeparableFunction,
    _generic_window_integrals,
    apply_bi,
    surface_table,
    window_deltas,
)
from skl.cli import main
from skl.errors import DomainError
from skl.functions import resolve_function
from skl.numerics import (
    JACOBI_ORDERS,
    JACOBI_TOLERANCE,
    SINGULAR_ORIGIN_LEVELS,
    Grid,
    composite_nodes,
    evaluate_on,
    jacobi_rule,
)
from skl.univariate import oracle_central_moments, oracle_moments, point_delta

#: Frozen from the exact rational reference: product moment K(s*t) at
#: (0.4, 0.6) for m1=5, m2=7, q1=1, q2=2, lam1=1/4, lam2=3/4, rho=2,
#: where e10 = 41/90 and e01 = 43/60.
BI_E11_FROZEN = 0.3264814814814815

CONFIG = BivariateConfig(m1=5, m2=7, q1=1, q2=2, lam1=0.25, lam2=0.75, rho=2.0)


def test_config_axes():
    assert CONFIG.axis1.degree == 6
    assert CONFIG.axis2.degree == 9
    with pytest.raises(DomainError):
        BivariateConfig(m1=1, m2=5)
    with pytest.raises(DomainError):
        BivariateConfig(m1=5, m2=5, rho=0.0)


def test_constant_target_reproduced():
    value = apply_bi(CONFIG, lambda a, b: np.ones_like(a * b), 0.3, 0.8)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_frozen_product_moment_both_paths():
    generic = apply_bi(CONFIG, lambda a, b: a * b, 0.4, 0.6, force_generic=True)
    assert generic == pytest.approx(BI_E11_FROZEN, abs=1e-12)
    factored = oracle_moments(CONFIG.axis1, 0.4, (1,))[0] * oracle_moments(
        CONFIG.axis2, 0.6, (1,)
    )[0]
    assert factored == pytest.approx(BI_E11_FROZEN, abs=1e-14)


def test_separable_path_matches_generic(rng):
    for rho in (1.0, 2.0, 0.9):
        config = BivariateConfig(
            m1=int(rng.integers(2, 8)),
            m2=int(rng.integers(2, 8)),
            q1=int(rng.integers(0, 3)),
            q2=int(rng.integers(0, 3)),
            lam1=float(rng.uniform()),
            lam2=float(rng.uniform()),
            rho=rho,
        )
        c1 = rng.uniform(-2.0, 2.0, size=3)
        c2 = rng.uniform(-2.0, 2.0, size=3)
        g = SeparableFunction(
            lambda a, _c=c1: np.polyval(_c, a), lambda b, _c=c2: np.polyval(_c, b)
        )
        ys = np.array([0.15, 0.5, 0.85])
        fast = apply_bi(config, g, ys, ys)
        slow = apply_bi(config, g, ys, ys, force_generic=True)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_generic_path_evaluation_count():
    # The cubic is exact at 8 nodes, so every window pair stops at the
    # ladder's first pair: 8^2 + 16^2 evaluations each.
    config = BivariateConfig(m1=10, m2=10, q1=2, q2=2, lam1=0.5, lam2=0.5, rho=0.9)
    evaluations = 0

    def cube(a, b):
        nonlocal evaluations
        evaluations += np.broadcast(a, b).size
        return (a + b) ** 3

    y1, y2 = 0.3, 0.7
    value = apply_bi(config, cube, y1, y2)
    M = config.axis1.degree
    assert evaluations == (M + 1) ** 2 * (8 ** 2 + 16 ** 2)
    # (y1 + y2)^3 expands into separable monomial products.
    e1 = oracle_moments(config.axis1, y1, range(4))
    e2 = oracle_moments(config.axis2, y2, range(4))
    expanded = sum(c * e1[j] * e2[3 - j] for j, c in enumerate((1, 3, 3, 1)))
    assert value == pytest.approx(expanded, abs=1e-12)


def test_generic_ladder_stops_each_pair_on_its_own():
    # A kink along y1 = y2 defeats every Gauss-Jacobi pair only on the
    # window pairs it crosses.  Replayed one pair at a time from each
    # rule's values, every pair keeps the larger rule of its first agreeing
    # pair (or the composite value) bit for bit, whatever other pairs
    # shared its block, and only the pairs still climbing pay for a rule.
    rho = 0.5
    config = BivariateConfig(m1=6, m2=6, rho=rho)
    kink = resolve_function("((y1-y2)^2)^0.5", arity=2)
    evaluations = 0

    def counted(a, b):
        nonlocal evaluations
        evaluations += np.broadcast(a, b).size
        return kink(a, b)

    integrals = _generic_window_integrals(config, counted)
    idx = np.arange(config.axis1.degree + 1)

    def rule_values(nodes, weights):
        out = np.empty((len(idx), len(idx)))
        for i1 in idx:
            for i2 in idx:
                pts1 = (i1 + nodes) / (config.m1 + 1)
                pts2 = (i2 + nodes) / (config.m2 + 1)
                out[i1, i2] = weights @ evaluate_on(kink, pts1[:, None], pts2[None, :]) @ weights
        return out

    t, w = composite_nodes(origin_levels=SINGULAR_ORIGIN_LEVELS)
    expected = rule_values(t ** rho, w)
    rules = [rule_values(*jacobi_rule(n, 1.0 / rho - 1.0)) for n in JACOBI_ORDERS]
    pending = np.ones(expected.shape, dtype=bool)
    reaching = [pending.sum(), pending.sum()]
    for low, high in zip(rules, rules[1:]):
        agree = pending & (np.abs(low - high) <= JACOBI_TOLERANCE * np.maximum(1.0, np.abs(high)))
        expected[agree] = high[agree]
        pending &= ~agree
        reaching.append(pending.sum())
    i1, i2 = np.nonzero(pending)
    assert 0 < len(i1) < pending.size
    assert np.all(np.abs(i1 - i2) <= 1)
    assert np.array_equal(integrals, expected)
    sizes = [n * n for n in JACOBI_ORDERS] + [len(t) ** 2]
    assert evaluations == sum(r * s for r, s in zip(reaching, sizes))


def test_symmetric_config_symmetric_result():
    config = BivariateConfig(m1=6, m2=6, q1=2, q2=2, lam1=0.3, lam2=0.3, rho=1.5)
    ys = np.array([0.2, 0.45, 0.7])
    values = apply_bi(config, lambda a, b: a * a + b * b, ys, ys)
    assert values == pytest.approx(values.T, abs=1e-12)


def test_scalar_collapse_and_grid_shape():
    assert isinstance(apply_bi(CONFIG, lambda a, b: a + b, 0.5, 0.5), float)
    out = apply_bi(CONFIG, lambda a, b: a + b, np.linspace(0, 1, 4), np.linspace(0, 1, 3))
    assert out.shape == (4, 3)


def test_bi_moments_oracle_columns():
    raw = bi_moment_rows(CONFIG, 0.4, 0.6)["bi-raw"]
    assert list(raw) == ["e00", "e10", "e01", "e11", "e20", "e02"]
    oracle = {row: value for row, (_, value) in raw.items()}
    assert oracle["e00"] == pytest.approx(1.0, abs=1e-14)
    assert oracle["e11"] == pytest.approx(BI_E11_FROZEN, abs=1e-14)
    assert oracle["e11"] == pytest.approx(oracle["e10"] * oracle["e01"], abs=1e-15)
    assert oracle["e20"] == pytest.approx(oracle_moments(CONFIG.axis1, 0.4)[2], abs=1e-15)
    # Transcribed identities genuinely diverge from the operator.
    assert max(abs(closed - value) for closed, value in raw.values()) > 1e-3


def test_bi_central_moments_oracle_columns():
    central = bi_moment_rows(CONFIG, 0.4, 0.6)["bi-central"]
    assert list(central) == ["eta10", "eta01", "eta11", "eta20", "eta02"]
    oracle = {row: value for row, (_, value) in central.items()}
    psi1_1, psi2_1 = oracle_central_moments(CONFIG.axis1, 0.4)
    psi1_2, psi2_2 = oracle_central_moments(CONFIG.axis2, 0.6)
    assert oracle["eta10"] == pytest.approx(psi1_1, abs=1e-15)
    assert oracle["eta01"] == pytest.approx(psi1_2, abs=1e-15)
    assert oracle["eta20"] == pytest.approx(psi2_1, abs=1e-15)
    assert oracle["eta02"] == pytest.approx(psi2_2, abs=1e-15)
    assert oracle["eta11"] == pytest.approx(psi1_1 * psi1_2, abs=1e-15)


def test_window_deltas_are_axis_radii():
    d1, d2 = window_deltas(CONFIG, 0.4, 0.6)
    assert d1 == point_delta(CONFIG.axis1, 0.4)
    assert d2 == point_delta(CONFIG.axis2, 0.6)
    assert d1 >= 0.0 and d2 >= 0.0


def test_surface_table_and_csv(tmp_path, capsys):
    grid = Grid(lo=0.0, hi=1.0, count=5)
    g = SeparableFunction(lambda a: a ** 3, lambda b: b ** 2)
    table = surface_table(CONFIG, g, grid, grid)
    assert table.approx.shape == (5, 5)
    assert table.errors.shape == (5, 5)
    assert table.sup_error == pytest.approx(table.errors.max())
    # The command writes the same surface for the same config (fig3-poly is
    # its default target, y1^3 * y2^2).
    path = tmp_path / "surface.csv"
    code = main(
        ["bivariate", "--m1", "5", "--m2", "7", "--q1", "1", "--q2", "2",
         "--lambda1", "0.25", "--lambda2", "0.75", "--rho", "2",
         "--grid", "0:1:5", "--out", str(path)]
    )
    assert code == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    lines = path.read_text().splitlines()
    assert lines[0] == "y1,y2,K,f,error"
    assert len(lines) == 26
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    assert parsed[:, 2] == pytest.approx(table.approx.ravel(), rel=1e-10)
