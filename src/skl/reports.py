"""Artifact generation plus the verification and audit suites.

This module backs the command-line surface: the reference error table, the
demo figures, single-point evaluation and moment/bound queries, and the
``verify`` command.  ``verify`` runs two very different kinds of checks and
keeps them strictly apart:

* asserted invariants (partition of unity, positivity, linearity, tensor
  factorization, central-moment algebra, quadrature-vs-summation agreement,
  the Korovkin trend, bound soundness) gate the exit status;
* the closed-form audit compares the transcribed moment identities against
  the oracle and is reported only.  The identities are known to diverge
  from the operator, so wiring them into the verdict would turn a
  documented discrepancy into a permanent failure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .analysis import (
    LipschitzParams,
    bound_thm33,
    bound_thm41,
    bound_thm71,
    bound_thm72,
    korovkin_defects,
)
from .basis import BasisParams, basis_row
from .bivariate import (
    BivariateConfig,
    SeparableFunction,
    apply_bi,
    bi_central_moments,
    bi_moments,
    surface_table,
    window_deltas,
)
from .errors import UsageError
from .functions import resolve_function
from .modulus import surface_modulus
from .numerics import DEFAULT_SUP_GRID_POINTS, Grid, unit_grid
from .reference import (
    FIGURE1_GRID_POINTS,
    FIGURE3_FUNCTION,
    FIGURE3_GRID_POINTS,
    FIGURE3_LAM,
    FIGURE3_MS,
    FIGURE3_Q,
    FIGURE3_RHO,
    TABLE1_ERRORS,
    TABLE1_EXACT_TOL,
    TABLE1_FUNCTION,
    TABLE1_LAM,
    TABLE1_MS,
    TABLE1_Q,
    TABLE1_QUALITATIVE_TOL,
    TABLE1_RHO,
    TABLE1_XS,
)
from .svg import render_heatmap, render_line_chart, write_svg
from .univariate import (
    CSV_FLOAT_FORMAT,
    OperatorConfig,
    apply,
    central_moments,
    error_curve,
    moments_closed,
    monomial_moment,
)

#: Fixed seed for the randomized verification sweeps; the verify verdict is
#: deterministic because every draw flows from here.
VERIFY_SEED = 168041

#: Report-only threshold separating "transcription agrees with the oracle"
#: from "documented divergence" in the audit summaries.
AUDIT_GAP_THRESHOLD = 1e-9

#: Largest degree m + q the command line accepts.  The library takes any
#: degree; the command line keeps the range it has always had, which the
#: cli-oneshot benchmark workload checks with the bad input ``--m 1100``.
MAX_CLI_DEGREE = 1024

_RHO_CHOICES = (0.1, 0.5, 0.9, 1.0, 2.0)


def _sig(value: float) -> str:
    return CSV_FLOAT_FORMAT % value


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(CSV_FLOAT_FORMAT % v for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_base(out, default_stem: str) -> Path:
    path = Path(out) if out is not None else Path(default_stem)
    if path.suffix:
        path = path.with_suffix("")
    return path


@dataclass(frozen=True)
class RunConfig:
    """One resolved command invocation.

    The CLI fills this from flags layered over an optional config file; the
    dispatcher below only reads it.  Fields irrelevant to a command are
    simply ignored by its handler.
    """

    command: str
    figure_id: int | None = None
    m: int | None = None
    m_list: tuple[int, ...] = ()
    q: int = 0
    lam: float = 0.0
    rho: float = 1.0
    m1: int | None = None
    m2: int | None = None
    q1: int | None = None
    q2: int | None = None
    lam1: float | None = None
    lam2: float | None = None
    f: str | None = None
    grid: tuple[float, float, int] | None = None
    u: float | None = None
    y1: float | None = None
    y2: float | None = None
    out: str | None = None
    format: str = "csv"
    unchecked: bool = False
    level: str = "fast"
    thm: int | None = None
    lipschitz_M: float = 1.0
    gamma: float = 1.0
    k1: float = 1.0
    k2: float = 1.0
    tau: float = 1.0
    e_set: tuple[float, ...] = ()

    COMMANDS = ("eval", "moments", "table1", "figure", "bivariate", "bounds", "verify")

    def __post_init__(self):
        if self.command not in self.COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "svg", "both"):
            raise UsageError(f"unknown format {self.format!r}")
        # The --m-list ladder of figures 1 and 2 runs at q = TABLE1_Q.
        degrees = [(self.m, self.q), *((m, TABLE1_Q) for m in self.m_list)] + [
            (self.m if m is None else m, self.q if q is None else q)
            for m, q in ((self.m1, self.q1), (self.m2, self.q2))
        ]
        for m, q in degrees:
            if m is not None and m + q > MAX_CLI_DEGREE:
                raise UsageError(
                    f"degree m + q = {m + q} exceeds the command-line limit of {MAX_CLI_DEGREE}"
                )

    def operator(self) -> OperatorConfig:
        if self.m is None:
            raise UsageError("this command needs --m")
        return OperatorConfig(
            m=self.m, q=self.q, lam=self.lam, rho=self.rho, unchecked=self.unchecked
        )

    def bivariate(self) -> BivariateConfig:
        m1 = self.m1 if self.m1 is not None else self.m
        m2 = self.m2 if self.m2 is not None else self.m
        if m1 is None or m2 is None:
            raise UsageError("bivariate commands need --m1/--m2 (or --m for both)")
        return BivariateConfig(
            m1=m1,
            m2=m2,
            q1=self.q1 if self.q1 is not None else self.q,
            q2=self.q2 if self.q2 is not None else self.q,
            lam1=self.lam1 if self.lam1 is not None else self.lam,
            lam2=self.lam2 if self.lam2 is not None else self.lam,
            rho=self.rho,
            unchecked=self.unchecked,
        )

    def ladder(self, default: tuple[int, ...]) -> tuple[int, ...]:
        return self.m_list if self.m_list else default

    def grid_points(self, default_count: int = 101) -> Grid:
        if self.grid is None:
            return unit_grid(default_count)
        lo, hi, count = self.grid
        return Grid(lo=lo, hi=hi, count=int(count))

    def lipschitz(self) -> LipschitzParams:
        return LipschitzParams(
            M=self.lipschitz_M,
            gamma=self.gamma,
            k1=self.k1,
            k2=self.k2,
            tau=self.tau,
            E_set=self.e_set,
        )


# ---------------------------------------------------------------------------
# table1 / figure commands


@dataclass(frozen=True)
class Table1Result:
    """Recomputed reference error table with its deviation from the source."""

    xs: np.ndarray
    computed: np.ndarray  # shape (10, 3), columns follow TABLE1_MS
    reference: np.ndarray

    @property
    def deviation(self) -> float:
        return float(np.abs(self.computed - self.reference).max())

    @property
    def tier(self) -> str:
        dev = self.deviation
        if dev <= TABLE1_EXACT_TOL:
            return "exact"
        if dev <= TABLE1_QUALITATIVE_TOL:
            return "qualitative"
        return "mismatch"

    def to_csv(self, path) -> None:
        header = "x," + ",".join(f"E_n{m}" for m in TABLE1_MS)
        rows = (
            (x, *self.computed[i]) for i, x in enumerate(self.xs)
        )
        _write_csv(Path(path), header, rows)


def table1_errors(ms: Sequence[int] = TABLE1_MS) -> np.ndarray:
    """|K(f; x) - f(x)| at the reference abscissae for each m in ``ms``."""
    f = resolve_function(TABLE1_FUNCTION)
    exact = f(TABLE1_XS)
    cols = []
    for m in ms:
        config = OperatorConfig(m=m, q=TABLE1_Q, lam=TABLE1_LAM, rho=TABLE1_RHO)
        cols.append(np.abs(apply(config, f, TABLE1_XS) - exact))
    return np.column_stack(cols)


def cmd_table1(out=None) -> Table1Result:
    """Recompute the reference error table, write it, report the deviation."""
    result = Table1Result(
        xs=np.array(TABLE1_XS), computed=table1_errors(), reference=np.array(TABLE1_ERRORS)
    )
    path = _out_base(out, "table1").with_suffix(".csv")
    result.to_csv(path)
    print(f"wrote {path}")
    print(
        f"max deviation from reference {result.deviation:.3e} "
        f"(exact tier {TABLE1_EXACT_TOL:g}, qualitative tier {TABLE1_QUALITATIVE_TOL:g})"
    )
    print(f"reproduction tier: {result.tier}")
    return result


def _table1_ladder_config(m: int) -> OperatorConfig:
    return OperatorConfig(m=m, q=TABLE1_Q, lam=TABLE1_LAM, rho=TABLE1_RHO)


def cmd_figure(which: int, out=None, fmt: str = "both", m_list: tuple[int, ...] = ()) -> list[Path]:
    """Regenerate one of the three demo artifacts (CSV data, SVG picture)."""
    if which not in (1, 2, 3):
        raise UsageError("figure id must be 1, 2 or 3")
    base = _out_base(out, f"figure{which}")
    written: list[Path] = []
    want_csv = fmt in ("csv", "both")
    want_svg = fmt in ("svg", "both")

    if which in (1, 2):
        ladder = tuple(m_list) if m_list else TABLE1_MS
        f = resolve_function(TABLE1_FUNCTION)
        grid = unit_grid(FIGURE1_GRID_POINTS)
        exact = f(grid.points)
        curves = [
            np.atleast_1d(apply(_table1_ladder_config(m), f, grid.points))
            for m in ladder
        ]
        if which == 1:
            header = "x,f," + ",".join(f"K_n{m}" for m in ladder)
            columns = [exact] + curves
            series = [("f", exact)] + [
                (f"K_n{m}", curve) for m, curve in zip(ladder, curves)
            ]
            title = "Operator approximation of the cubic target"
        else:
            header = "x," + ",".join(f"E_n{m}" for m in ladder)
            columns = [np.abs(curve - exact) for curve in curves]
            series = [(f"E_n{m}", col) for m, col in zip(ladder, columns)]
            title = "Absolute approximation error along the m ladder"
        if want_csv:
            path = base.with_suffix(".csv")
            _write_csv(path, header, zip(grid.points, *columns))
            written.append(path)
        if want_svg:
            path = base.with_suffix(".svg")
            write_svg(
                path,
                render_line_chart(
                    grid.points,
                    series,
                    title=title,
                    x_label="x",
                    y_label="value" if which == 1 else "absolute error",
                ),
            )
            written.append(path)
    else:
        g = resolve_function(FIGURE3_FUNCTION, arity=2)
        grid = unit_grid(FIGURE3_GRID_POINTS)
        last_errors = None
        for m in FIGURE3_MS:
            config = BivariateConfig(
                m1=m, m2=m, q1=FIGURE3_Q, q2=FIGURE3_Q,
                lam1=FIGURE3_LAM, lam2=FIGURE3_LAM, rho=FIGURE3_RHO,
            )
            table = surface_table(config, g, grid, grid)
            last_errors = table.errors
            if want_csv:
                path = base.parent / f"{base.name}_m{m}.csv"
                table.to_csv(path)
                written.append(path)
        if want_svg and last_errors is not None:
            path = base.with_suffix(".svg")
            write_svg(
                path,
                render_heatmap(
                    last_errors,
                    title=f"Tensor operator error at m={FIGURE3_MS[-1]}",
                ),
            )
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return written


# ---------------------------------------------------------------------------
# eval / moments / bivariate / bounds


def cmd_eval(config: RunConfig):
    """Evaluate K(f) at --u or over --grid."""
    op = config.operator()
    f = resolve_function(config.f or TABLE1_FUNCTION)
    if config.u is not None:
        value = apply(op, f, config.u)
        print(_sig(value))
        return value
    grid = config.grid_points()
    values = np.atleast_1d(apply(op, f, grid.points))
    if config.out is not None:
        path = _out_base(config.out, "eval").with_suffix(".csv")
        _write_csv(path, "x,K", zip(grid.points, values))
        print(f"wrote {path}")
    else:
        print("x,K")
        for x, v in zip(grid.points, values):
            print(f"{_sig(x)},{_sig(v)}")
    return values


def cmd_moments(config: RunConfig):
    """Raw and central moments at --u, both computation paths."""
    if config.u is None:
        raise UsageError("moments needs --u")
    op = config.operator()
    ms = moments_closed(op, config.u)
    cs = central_moments(op, config.u)
    for name, closed, oracle in (
        ("e0", ms.e0, ms.oracle_e0),
        ("e1", ms.e1, ms.oracle_e1),
        ("e2", ms.e2, ms.oracle_e2),
        ("psi1", cs.psi1, cs.oracle_psi1),
        ("psi2", cs.psi2, cs.oracle_psi2),
    ):
        print(f"{name} closed {_sig(closed)} oracle {_sig(oracle)}")
    print(f"max raw discrepancy {_sig(ms.max_discrepancy)}")
    print(f"central identity residual {_sig(cs.identity_residual)}")
    return ms, cs


def cmd_bivariate(config: RunConfig):
    """Tensor-operator evaluation at a point or over a square grid."""
    bi = config.bivariate()
    g = resolve_function(config.f or FIGURE3_FUNCTION, arity=2)
    if config.y1 is not None and config.y2 is not None:
        value = apply_bi(bi, g, config.y1, config.y2)
        print(_sig(value))
        return value
    grid = config.grid_points(FIGURE3_GRID_POINTS)
    table = surface_table(bi, g, grid, grid)
    if config.out is not None:
        base = _out_base(config.out, "bivariate")
        if config.format in ("csv", "both"):
            path = base.with_suffix(".csv")
            table.to_csv(path)
            print(f"wrote {path}")
        if config.format in ("svg", "both"):
            path = base.with_suffix(".svg")
            write_svg(
                path,
                render_heatmap(table.errors, title="Tensor operator error"),
            )
            print(f"wrote {path}")
    else:
        print(f"sup error {_sig(table.sup_error)}")
    return table


def cmd_bounds(config: RunConfig):
    """One of the four published error bounds, printed to 12 digits."""
    if config.thm not in (33, 41, 71, 72):
        raise UsageError("--thm must be one of 33, 41, 71, 72")
    if config.thm == 33:
        if config.u is None:
            raise UsageError("--thm 33 needs --u")
        op = config.operator()
        f = resolve_function(config.f or TABLE1_FUNCTION)
        bound, delta = bound_thm33(op, f, config.u)
        print(f"bound {_sig(bound)} delta {_sig(delta)}")
        return bound
    if config.thm == 41:
        if config.u is None:
            raise UsageError("--thm 41 needs --u")
        bound = bound_thm41(config.operator(), config.lipschitz(), config.u)
        print(f"bound {_sig(bound)}")
        return bound
    if config.y1 is None or config.y2 is None:
        raise UsageError("bivariate bounds need --y1 and --y2")
    bi = config.bivariate()
    if config.thm == 71:
        g = resolve_function(config.f or FIGURE3_FUNCTION, arity=2)
        bound, d1, d2 = bound_thm71(bi, g, config.y1, config.y2)
        print(f"bound {_sig(bound)} delta1 {_sig(d1)} delta2 {_sig(d2)}")
        return bound
    bound = bound_thm72(bi, config.lipschitz(), config.y1, config.y2)
    print(f"bound {_sig(bound)}")
    return bound


# ---------------------------------------------------------------------------
# verify: asserted invariants


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one asserted invariant suite."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditRecord:
    """Worst closed-vs-oracle row of one identity family at one point."""

    name: str
    parameters: str
    closed_value: float
    oracle_value: float

    @property
    def abs_gap(self) -> float:
        return abs(self.closed_value - self.oracle_value)


@dataclass(frozen=True)
class AuditSummary:
    name: str
    points: int
    max_gap: float
    pass_threshold: float

    @property
    def verdict(self) -> str:
        return "consistent" if self.max_gap <= self.pass_threshold else "divergent"


@dataclass(frozen=True)
class AuditReport:
    """Closed-form audit: per-point records plus per-family summaries."""

    records: tuple[AuditRecord, ...]
    summaries: tuple[AuditSummary, ...]


@dataclass(frozen=True)
class VerifyResult:
    level: str
    checks: tuple[CheckResult, ...]
    audit: AuditReport
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 2


def _random_operator(rng, max_m: int = 40, max_q: int = 6) -> OperatorConfig:
    return OperatorConfig(
        m=int(rng.integers(2, max_m + 1)),
        q=int(rng.integers(0, max_q + 1)),
        lam=float(rng.uniform()),
        rho=float(rng.choice(_RHO_CHOICES)),
    )


def _random_poly(rng, degree: int = 3) -> Callable:
    coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)

    def fn(y, _c=coeffs):
        return np.polyval(_c, y)

    return fn


def _check_partition(rng) -> CheckResult:
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
    passed = worst_gap <= 1e-12 and worst_weight >= -1e-14
    return CheckResult(
        name="partition-of-unity",
        passed=passed,
        detail=f"max gap {worst_gap:.2e} (limit 1e-12), min weight {worst_weight:.2e}",
    )


def _check_positivity(rng) -> CheckResult:
    worst = 0.0
    ys = np.linspace(0.0, 1.0, 21)
    for _ in range(50):
        config = _random_operator(rng, max_m=30, max_q=5)
        p = _random_poly(rng)

        def f(y, _p=p):
            return np.square(_p(y))

        values = np.atleast_1d(apply(config, f, ys))
        worst = min(worst, float(values.min()))
    passed = worst >= -1e-12
    return CheckResult(
        name="positivity",
        passed=passed,
        detail=f"min K(p^2) {worst:.2e} over 50 random configs (limit -1e-12)",
    )


def _check_linearity(rng) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        config = _random_operator(rng, max_m=30, max_q=5)
        p, g = _random_poly(rng), _random_poly(rng)
        a, b = rng.uniform(-5.0, 5.0, size=2)
        ys = rng.uniform(0.0, 1.0, size=5)

        def combo(y, _p=p, _g=g, _a=a, _b=b):
            return _a * _p(y) + _b * _g(y)

        lhs = np.atleast_1d(apply(config, combo, ys))
        rhs = a * np.atleast_1d(apply(config, p, ys)) + b * np.atleast_1d(
            apply(config, g, ys)
        )
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    passed = worst <= 1e-11
    return CheckResult(
        name="linearity",
        passed=passed,
        detail=f"max |K(ap+bg) - aK(p) - bK(g)| {worst:.2e} (limit 1e-11)",
    )


def _check_oracle_agreement(rng, samples: int) -> CheckResult:
    worst = 0.0
    worst_rel = 0.0
    passed = True
    for _ in range(samples):
        config = OperatorConfig(
            m=int(rng.integers(2, 51)),
            q=int(rng.integers(0, 6)),
            lam=float(rng.uniform()),
            rho=float(rng.choice((0.1, 0.5, 1.0, 2.0))),
        )
        k = int(rng.integers(0, 5))
        u = float(rng.uniform())
        quad = apply(config, lambda y, _k=k: y ** _k, u)
        summed = monomial_moment(config, u, k)
        gap = abs(quad - summed)
        tol = 1e-7 if config.rho < 0.2 else 1e-9
        worst = max(worst, gap)
        worst_rel = max(worst_rel, gap / tol)
        if gap > tol:
            passed = False
    return CheckResult(
        name="oracle-agreement",
        passed=passed,
        detail=(
            f"max quadrature-vs-summation gap {worst:.2e} over {samples} configs, "
            f"worst gap/tolerance {worst_rel:.2e}"
        ),
    )


def _check_central_algebra(rng) -> CheckResult:
    worst_residual = 0.0
    worst_psi2 = 0.0
    for _ in range(200):
        config = _random_operator(rng)
        cs = central_moments(config, float(rng.uniform()))
        worst_residual = max(worst_residual, abs(cs.identity_residual))
        worst_psi2 = min(worst_psi2, cs.oracle_psi2)
    passed = worst_residual <= 1e-12 and worst_psi2 >= -1e-12
    return CheckResult(
        name="central-moment-algebra",
        passed=passed,
        detail=(
            f"max |psi2 - (e2 - 2u e1 + u^2 e0)| {worst_residual:.2e} (limit 1e-12), "
            f"min psi2 {worst_psi2:.2e}"
        ),
    )


def _check_factorization(rng, pairs: int) -> CheckResult:
    worst = 0.0
    ys = np.linspace(0.1, 0.9, 3)
    for idx in range(pairs):
        # rho < 1 costs ~50x more in the generic path; sample it sparsely.
        rho = 0.9 if idx % 10 == 9 else float(rng.choice((1.0, 2.0)))
        config = BivariateConfig(
            m1=int(rng.integers(2, 9)),
            m2=int(rng.integers(2, 9)),
            q1=int(rng.integers(0, 3)),
            q2=int(rng.integers(0, 3)),
            lam1=float(rng.uniform()),
            lam2=float(rng.uniform()),
            rho=rho,
        )
        g = SeparableFunction(_random_poly(rng), _random_poly(rng))
        fast = apply_bi(config, g, ys, ys)
        slow = apply_bi(config, g, ys, ys, force_generic=True)
        worst = max(worst, float(np.abs(fast - slow).max()))
    passed = worst <= 1e-10
    return CheckResult(
        name="tensor-factorization",
        passed=passed,
        detail=f"max generic-vs-product gap {worst:.2e} over {pairs} pairs (limit 1e-10)",
    )


def _check_korovkin(grid_count: int) -> CheckResult:
    ladder = (10, 20, 40, 80, 160)
    defects = korovkin_defects(
        ladder, q=TABLE1_Q, lam=TABLE1_LAM, rho=TABLE1_RHO, ks=(1, 2),
        grid=unit_grid(grid_count),
    )
    passed = True
    for col in range(defects.shape[1]):
        row = defects[:, col]
        if not all(row[j + 1] <= row[j] * 1.1 for j in range(len(row) - 1)):
            passed = False
    tail = defects[-1]
    note = "both < 0.05" if tail.max() < 0.05 else "k=2 still above 0.05"
    return CheckResult(
        name="korovkin-trend",
        passed=passed,
        detail=(
            f"sup defects at m=160: k=1 {tail[0]:.4f}, k=2 {tail[1]:.4f} ({note}; "
            "threshold is reported, the asserted invariant is the decreasing trend)"
        ),
    )


def _check_bounds(level: str) -> CheckResult:
    # Univariate: modulus bound against the measured error curve.  The grid
    # modulus is a lower bound of the true one, short by at most
    # L_f * scan_step for an L_f-Lipschitz target, hence the padding.
    f = resolve_function(TABLE1_FUNCTION)
    lf = 6.0
    uni_ms = TABLE1_MS if level == "full" else TABLE1_MS[:1]
    grid = unit_grid(101 if level == "full" else 26)
    worst_margin = math.inf
    passed = True
    for m in uni_ms:
        config = _table1_ladder_config(m)
        table = error_curve(config, f, grid)
        scan_step = config.sample_hi / (DEFAULT_SUP_GRID_POINTS - 1)
        pad = lf * scan_step
        margin = float((table.bounds + pad - table.errors).min())
        worst_margin = min(worst_margin, margin)
        if margin < 0.0:
            passed = False

    # Bivariate: partial-moduli bound over the demo surface, padded the same
    # way per axis with analytic slope bounds for y1^3 * y2^2.
    g = resolve_function(FIGURE3_FUNCTION, arity=2)
    bi_ms = FIGURE3_MS if level == "full" else FIGURE3_MS[:1]
    count = 501 if level == "full" else 301
    grid_n = 11 if level == "full" else 5
    pts = np.linspace(0.0, 1.0, grid_n)
    for m in bi_ms:
        config = BivariateConfig(
            m1=m, m2=m, q1=FIGURE3_Q, q2=FIGURE3_Q,
            lam1=FIGURE3_LAM, lam2=FIGURE3_LAM, rho=FIGURE3_RHO,
        )
        hi1, hi2 = config.axis1.sample_hi, config.axis2.sample_hi
        samples = surface_modulus(g, hi1=hi1, hi2=hi2, count=count)
        l1 = 3.0 * hi1 ** 2 * hi2 ** 2
        l2 = 2.0 * hi1 ** 3 * hi2
        pad = 2.0 * (l1 * samples.step1 + l2 * samples.step2)
        approx = apply_bi(config, g, pts, pts)
        # The per-axis radii depend on one coordinate each, so the grid
        # needs only 2 * len(pts) modulus queries instead of len(pts)^2.
        omega1, omega2 = [], []
        for y in pts:
            d1, d2 = window_deltas(config, float(y), float(y))
            omega1.append(samples.omega1(d1))
            omega2.append(samples.omega2(d2))
        for a, y1 in enumerate(pts):
            for b, y2 in enumerate(pts):
                err = abs(approx[a, b] - g(y1, y2))
                margin = 2.0 * (omega1[a] + omega2[b]) + pad - err
                worst_margin = min(worst_margin, margin)
                if margin < 0.0:
                    passed = False
    return CheckResult(
        name="bound-soundness",
        passed=passed,
        detail=f"min (bound + padding - error) {worst_margin:.3e} (must be >= 0)",
    )


# ---------------------------------------------------------------------------
# verify: closed-form audit (reported, never gates)


def _audit_params_text(**kwargs) -> str:
    return " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in kwargs.items())


def _worst_row(rows: dict[str, tuple[float, float]]) -> tuple[str, float, float]:
    name = max(rows, key=lambda r: abs(rows[r][0] - rows[r][1]))
    closed, oracle = rows[name]
    return name, closed, oracle


def _audit_family(name: str, records: list[AuditRecord]) -> AuditSummary:
    max_gap = max((r.abs_gap for r in records), default=0.0)
    return AuditSummary(
        name=name, points=len(records), max_gap=max_gap,
        pass_threshold=AUDIT_GAP_THRESHOLD,
    )


def run_audit(points: int, seed: int = VERIFY_SEED) -> AuditReport:
    """Compare every transcribed moment identity against the oracle.

    One record per (identity family, parameter point); each record keeps the
    family's worst row at that point.  The known outcome is "divergent" for
    all four families, which the summaries report without failing anything.
    """
    rng = np.random.default_rng(seed + 1)
    records: list[AuditRecord] = []
    summaries: list[AuditSummary] = []

    uni_raw: list[AuditRecord] = []
    uni_central: list[AuditRecord] = []
    for _ in range(points):
        config = _random_operator(rng)
        u = float(rng.uniform())
        params = _audit_params_text(
            m=config.m, q=config.q, lam=config.lam, rho=config.rho, u=u
        )
        ms = moments_closed(config, u)
        row, closed, oracle = _worst_row(
            {
                "e0": (ms.e0, ms.oracle_e0),
                "e1": (ms.e1, ms.oracle_e1),
                "e2": (ms.e2, ms.oracle_e2),
            }
        )
        uni_raw.append(AuditRecord(f"uni-raw[{row}]", params, closed, oracle))
        cs = central_moments(config, u)
        row, closed, oracle = _worst_row(
            {
                "psi1": (cs.psi1, cs.oracle_psi1),
                "psi2": (cs.psi2, cs.oracle_psi2),
            }
        )
        uni_central.append(AuditRecord(f"uni-central[{row}]", params, closed, oracle))

    bi_raw: list[AuditRecord] = []
    bi_central: list[AuditRecord] = []
    for _ in range(points):
        config = BivariateConfig(
            m1=int(rng.integers(2, 26)),
            m2=int(rng.integers(2, 26)),
            q1=int(rng.integers(0, 5)),
            q2=int(rng.integers(0, 5)),
            lam1=float(rng.uniform()),
            lam2=float(rng.uniform()),
            rho=float(rng.choice(_RHO_CHOICES)),
        )
        y1, y2 = float(rng.uniform()), float(rng.uniform())
        params = _audit_params_text(
            m1=config.m1, m2=config.m2, q1=config.q1, q2=config.q2,
            lam1=config.lam1, lam2=config.lam2, rho=config.rho, y1=y1, y2=y2,
        )
        bm = bi_moments(config, y1, y2)
        row, closed, oracle = _worst_row(
            {
                "e00": (bm.e00, bm.oracle_e00),
                "e10": (bm.e10, bm.oracle_e10),
                "e01": (bm.e01, bm.oracle_e01),
                "e11": (bm.e11, bm.oracle_e11),
                "e20": (bm.e20, bm.oracle_e20),
                "e02": (bm.e02, bm.oracle_e02),
            }
        )
        bi_raw.append(AuditRecord(f"bi-raw[{row}]", params, closed, oracle))
        bc = bi_central_moments(config, y1, y2)
        row, closed, oracle = _worst_row(
            {
                "eta10": (bc.eta10, bc.oracle_eta10),
                "eta01": (bc.eta01, bc.oracle_eta01),
                "eta11": (bc.eta11, bc.oracle_eta11),
                "eta20": (bc.eta20, bc.oracle_eta20),
                "eta02": (bc.eta02, bc.oracle_eta02),
            }
        )
        bi_central.append(AuditRecord(f"bi-central[{row}]", params, closed, oracle))

    for name, recs in (
        ("uni-raw", uni_raw),
        ("uni-central", uni_central),
        ("bi-raw", bi_raw),
        ("bi-central", bi_central),
    ):
        records.extend(recs)
        summaries.append(_audit_family(name, recs))
    return AuditReport(records=tuple(records), summaries=tuple(summaries))


AUDIT_POINTS = {"fast": 25, "full": 100}


def cmd_verify(level: str = "fast") -> VerifyResult:
    """Run the asserted invariant suites plus the closed-form audit.

    The exit code reflects the asserted checks only; audit divergence is
    expected and reported.
    """
    if level not in AUDIT_POINTS:
        raise UsageError("verify level must be 'fast' or 'full'")
    start = time.perf_counter()
    rng = np.random.default_rng(VERIFY_SEED)
    checks = (
        _check_partition(rng),
        _check_positivity(rng),
        _check_linearity(rng),
        _check_oracle_agreement(rng, samples=200 if level == "full" else 60),
        _check_central_algebra(rng),
        _check_factorization(rng, pairs=20 if level == "full" else 6),
        _check_korovkin(grid_count=10_001 if level == "full" else 2_001),
        _check_bounds(level),
    )
    audit = run_audit(AUDIT_POINTS[level])
    result = VerifyResult(
        level=level, checks=checks, audit=audit,
        elapsed=time.perf_counter() - start,
    )
    for record in audit.records:
        print(
            f"audit {record.name:<22} closed {_sig(record.closed_value):>18} "
            f"oracle {_sig(record.oracle_value):>18} gap {record.abs_gap:.3e}  {record.parameters}"
        )
    for summary in audit.summaries:
        print(
            f"audit-summary {summary.name:<14} points {summary.points:>4} "
            f"max gap {summary.max_gap:.3e} threshold {summary.pass_threshold:g} "
            f"-> {summary.verdict} (reported only, never gates)"
        )
    for check in result.checks:
        print(f"check {'PASS' if check.passed else 'FAIL'} {check.name:<24} {check.detail}")
    print(
        f"verify {level}: {'PASS' if result.passed else 'FAIL'} "
        f"({sum(c.passed for c in result.checks)}/{len(result.checks)} asserted checks, "
        f"{result.elapsed:.2f}s)"
    )
    return result


# ---------------------------------------------------------------------------
# dispatcher


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit code."""
    if config.command == "table1":
        cmd_table1(config.out)
        return 0
    if config.command == "figure":
        if config.figure_id is None:
            raise UsageError("figure needs an id of 1, 2 or 3")
        cmd_figure(
            config.figure_id, out=config.out, fmt=config.format, m_list=config.m_list
        )
        return 0
    if config.command == "eval":
        cmd_eval(config)
        return 0
    if config.command == "moments":
        cmd_moments(config)
        return 0
    if config.command == "bivariate":
        cmd_bivariate(config)
        return 0
    if config.command == "bounds":
        cmd_bounds(config)
        return 0
    result = cmd_verify(config.level)
    return result.exit_code
