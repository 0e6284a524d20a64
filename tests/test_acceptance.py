"""Acceptance checklist for the shipped claims.

One test per criterion; each prints a single PASS/FAIL line carrying the
measured numbers, so `pytest -v` (or `-s`) reads as a checklist.  The
korovkin threshold criterion is known red for the second monomial and is
asserted as stated rather than loosened; the verification command reports
the same numbers without gating on them.
"""

import math
import time

import numpy as np

from skl.analysis import bound_thm71, korovkin_defects, weighted_convergence
from skl.basis import BasisParams, basis_row
from skl.bivariate import (
    BivariateConfig,
    SeparableFunction,
    apply_bi,
    surface_table,
    window_deltas,
)
from skl.functions import resolve_function
from skl.modulus import surface_modulus
from skl.numerics import DEFAULT_SUP_GRID_POINTS, unit_grid
from skl.reference import (
    FIGURE3_GRID_POINTS,
    FIGURE3_LAM,
    FIGURE3_MS,
    FIGURE3_Q,
    FIGURE3_RHO,
    TABLE1_ERRORS,
    TABLE1_LAM,
    TABLE1_MS,
    TABLE1_Q,
    TABLE1_RHO,
    TABLE1_XS,
)
from skl.reports import table1_errors
from skl.univariate import (
    OperatorConfig,
    apply,
    error_curve,
    identity_residual,
    oracle_central_moments,
    oracle_moments,
)

SEED = 402718


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_reference_table_exact_tier():
    start = time.perf_counter()
    computed = table1_errors()
    elapsed = time.perf_counter() - start
    deviation = float(np.abs(computed - TABLE1_ERRORS).max())
    anchors = (
        (0.1, 20, 0.2717372121),
        (0.5, 20, 0.1324072752),
        (1.0, 40, 0.1466965539),
    )
    anchor_ok = all(
        TABLE1_ERRORS[np.where(TABLE1_XS == x)[0][0], TABLE1_MS.index(m)] == v
        for x, m, v in anchors
    )
    _verdict(
        "criterion 1",
        deviation <= 1e-6 and anchor_ok and elapsed < 1.0,
        f"30-entry table, max deviation {deviation:.3e} (exact tier 1e-6), "
        f"{elapsed:.3f}s",
    )


def test_criterion_2_quadrature_matches_summation():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = {1e-9: 0.0, 1e-7: 0.0}
    for _ in range(200):
        config = OperatorConfig(
            m=int(rng.integers(2, 51)),
            q=int(rng.integers(0, 6)),
            lam=float(rng.uniform()),
            rho=float(rng.choice((0.1, 0.5, 1.0, 2.0))),
        )
        u = float(rng.uniform())
        tol = 1e-7 if config.rho == 0.1 else 1e-9
        summed = oracle_moments(config, u, range(5))
        for k in range(5):

            def e_k(y, _k=k):
                return y ** _k

            gap = abs(apply(config, e_k, u) - summed[k])
            worst[tol] = max(worst[tol], gap)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 2",
        worst[1e-9] <= 1e-9 and worst[1e-7] <= 1e-7 and elapsed < 30.0,
        f"200 configs, k<=4: max gap {worst[1e-9]:.2e} (tol 1e-9), "
        f"{worst[1e-7]:.2e} for rho=0.1 (tol 1e-7), {elapsed:.1f}s",
    )


def test_criterion_3_partition_of_unity():
    rng = np.random.default_rng(SEED)
    worst_gap = 0.0
    worst_weight = 0.0
    for _ in range(1000):
        params = BasisParams(
            m=int(rng.integers(2, 101)),
            q=int(rng.integers(0, 11)),
            lam=float(rng.uniform()),
        )
        row = basis_row(params, float(rng.uniform()))
        worst_gap = max(worst_gap, abs(math.fsum(row.tolist()) - 1.0))
        worst_weight = min(worst_weight, float(row.min()))
    _verdict(
        "criterion 3",
        worst_gap <= 1e-12 and worst_weight >= -1e-14,
        f"1000 draws: max |sum-1| {worst_gap:.2e} (tol 1e-12), "
        f"min weight {worst_weight:.2e} (floor -1e-14)",
    )


def test_criterion_4_central_moment_algebra():
    rng = np.random.default_rng(SEED)
    worst_residual = 0.0
    min_psi2 = math.inf
    for _ in range(300):
        config = OperatorConfig(
            m=int(rng.integers(2, 61)),
            q=int(rng.integers(0, 8)),
            lam=float(rng.uniform()),
            rho=float(rng.choice((0.1, 0.5, 0.9, 1.0, 2.0))),
        )
        u = float(rng.uniform())
        worst_residual = max(worst_residual, abs(identity_residual(config, u)))
        min_psi2 = min(min_psi2, oracle_central_moments(config, u)[1])
    _verdict(
        "criterion 4",
        worst_residual <= 1e-12 and min_psi2 >= -1e-12,
        f"300 draws: max |psi2 - (e2 - 2u e1 + u^2)| {worst_residual:.2e} "
        f"(tol 1e-12), min psi2 {min_psi2:.2e} (floor -1e-12)",
    )


def test_criterion_5_korovkin_threshold():
    ladder = (10, 20, 40, 80, 160)
    defects = korovkin_defects(
        ladder, q=TABLE1_Q, lam=TABLE1_LAM, rho=TABLE1_RHO, ks=(1, 2),
        grid=unit_grid(2001),
    )
    trend_ok = all(
        defects[a + 1, b] <= defects[a, b] * 1.1
        for a in range(len(ladder) - 1)
        for b in range(2)
    )
    final_ok = bool((defects[-1] < 0.05).all())
    _verdict(
        "criterion 5",
        trend_ok and final_ok,
        f"m=160 sup defects: k=1 {defects[-1, 0]:.6f}, k=2 {defects[-1, 1]:.6f} "
        f"(threshold 0.05), ladder decreasing within 10%: {trend_ok}",
    )


def test_criterion_6_bound_soundness():
    # Univariate: the demo table configuration on a 101-point grid.
    f = resolve_function("table1-poly")
    grid = unit_grid(101)
    min_margin_uni = math.inf
    for m in TABLE1_MS:
        config = OperatorConfig(m=m, q=TABLE1_Q, lam=TABLE1_LAM, rho=TABLE1_RHO)
        # The scanned modulus falls short of the true one by at most
        # |f'| * scan step, and |f'| <= 6 on the sampling window.
        pad_uni = 6.0 * config.sample_hi / (DEFAULT_SUP_GRID_POINTS - 1)
        table = error_curve(config, f, grid)
        min_margin_uni = min(
            min_margin_uni, float((table.bounds + pad_uni - table.errors).min())
        )

    # Bivariate: the demo surface configuration on an 11 x 11 grid.  The
    # per-axis radii depend on one coordinate each, so the bound grid needs
    # only 2 * 11 modulus queries.
    g = resolve_function("fig3-poly", arity=2)
    grid2 = unit_grid(11)
    min_margin_bi = math.inf
    for m in FIGURE3_MS:
        config = BivariateConfig(
            m1=m, m2=m, q1=FIGURE3_Q, q2=FIGURE3_Q,
            lam1=FIGURE3_LAM, lam2=FIGURE3_LAM, rho=FIGURE3_RHO,
        )
        hi1, hi2 = config.axis1.sample_hi, config.axis2.sample_hi
        samples = surface_modulus(g, hi1=hi1, hi2=hi2, count=501)
        # Derivative bounds of y1^3 y2^2 over the sampling rectangle.
        l1, l2 = 3.0 * hi1**2 * hi2**2, 2.0 * hi1**3 * hi2
        pad_bi = l1 * samples.step1 + l2 * samples.step2
        d1s = [window_deltas(config, float(y), 0.5)[0] for y in grid2.points]
        d2s = [window_deltas(config, 0.5, float(y))[1] for y in grid2.points]
        w1s = np.array([samples.omega1(d) for d in d1s])
        w2s = np.array([samples.omega2(d) for d in d2s])
        bounds = 2.0 * (w1s[:, None] + w2s[None, :])
        errors = surface_table(config, g, grid2, grid2).errors
        min_margin_bi = min(min_margin_bi, float((bounds + pad_bi - errors).min()))
        # The assembled grid agrees with the single-point entry point.
        spot, _, _ = bound_thm71(config, g, 0.5, 0.5, samples=samples)
        assert spot == 2.0 * (w1s[5] + w2s[5])
    _verdict(
        "criterion 6",
        min_margin_uni >= 0.0 and min_margin_bi >= 0.0,
        f"min margin (bound + pad - error): univariate {min_margin_uni:.3e}, "
        f"bivariate {min_margin_bi:.3e}",
    )


def test_criterion_7_tensor_factorization():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        rho = float(rng.choice((0.1, 0.5, 0.9, 1.0, 2.0)))
        config = BivariateConfig(
            m1=int(rng.integers(2, 9)),
            m2=int(rng.integers(2, 9)),
            q1=int(rng.integers(0, 3)),
            q2=int(rng.integers(0, 3)),
            lam1=float(rng.uniform()),
            lam2=float(rng.uniform()),
            rho=rho,
        )
        c1 = rng.uniform(-2.0, 2.0, size=4)
        c2 = rng.uniform(-2.0, 2.0, size=4)

        def p(y, _c=c1):
            return np.polyval(_c, y)

        def r(y, _c=c2):
            return np.polyval(_c, y)

        pair = SeparableFunction(p, r)
        y1, y2 = float(rng.uniform()), float(rng.uniform())
        joint = apply_bi(config, pair, y1, y2, force_generic=True)
        split = apply(config.axis1, p, y1) * apply(config.axis2, r, y2)
        worst = max(worst, abs(joint - split))

    g = resolve_function("fig3-poly", arity=2)
    grid = unit_grid(FIGURE3_GRID_POINTS)
    sups = []
    for m in FIGURE3_MS:
        config = BivariateConfig(
            m1=m, m2=m, q1=FIGURE3_Q, q2=FIGURE3_Q,
            lam1=FIGURE3_LAM, lam2=FIGURE3_LAM, rho=FIGURE3_RHO,
        )
        sups.append(surface_table(config, g, grid, grid).sup_error)
    _verdict(
        "criterion 7",
        worst <= 1e-10 and sups[1] < sups[0],
        f"50 separable pairs: max |joint - product| {worst:.2e} (tol 1e-10); "
        f"surface sup error m=20 {sups[1]:.4f} < m=10 {sups[0]:.4f}",
    )


def test_criterion_8_weighted_norm_trend():
    ladder = (10, 20, 40, 80)
    report = weighted_convergence(ladder, q=TABLE1_Q, lam=TABLE1_LAM, rho=TABLE1_RHO)
    zero_row = bool((report.row(0) == 0.0).all())
    decreasing = report.is_decreasing(1, slack=0.1) and report.is_decreasing(2, slack=0.1)
    # Witness that the i=0 row is structurally zero, not merely stored so.
    from skl.analysis import moment_defect_curve

    config = OperatorConfig(m=10, q=TABLE1_Q, lam=TABLE1_LAM, rho=TABLE1_RHO)
    e0_defect = float(moment_defect_curve(config, (0,), unit_grid(101)).max())
    _verdict(
        "criterion 8",
        zero_row and decreasing and e0_defect <= 1e-13,
        f"i=0 row identically 0 (spot defect {e0_defect:.1e}), "
        f"i=1 row {np.array2string(report.row(1), precision=4)}, "
        f"i=2 row {np.array2string(report.row(2), precision=4)} "
        f"both decreasing within 10%: {decreasing}",
    )
