"""Univariate shape-blended Schurer-Kantorovich operator.

The operator averages a target function over sliding windows

    K(f; y) = sum_i p_i(y) * integral_0^1 f((i + t**rho) / (m + 1)) dt

with the blended basis weights p_i from :mod:`.basis`.  Moments come in two
flavours: the summation path (``monomial_moment`` and friends), which is the
ground truth used everywhere downstream, and the published closed forms
(``moments_closed``), which are kept verbatim for auditing and do not agree
with the summation path; ``skl verify`` reports the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .basis import BasisParams, basis_row, basis_rows
from .errors import DomainError, EvaluationError
from .numerics import (
    DEFAULT_BINOMIALS,
    Grid,
    _fallback_window_rule,
    _window_estimate,
    evaluate_on,
    fsum_product,
)

CSV_FLOAT_FORMAT = "%.12g"


@dataclass(frozen=True)
class OperatorConfig:
    """Full parameter set of one operator instance.

    ``rho`` bends the Kantorovich node inside each window.  The window
    integrals substitute x = t**rho, which turns the unbounded derivative
    at t = 0 for rho < 1 into the Jacobi weight x**(1/rho - 1) of a
    Gauss-Jacobi rule; windows where its 32- and 64-node values disagree
    fall back to a composite rule in t.
    """

    m: int
    q: int = 0
    lam: float = 0.0
    rho: float = 1.0
    unchecked: bool = False

    def __post_init__(self):
        # BasisParams repeats the m/q/lam guards; run them eagerly here so a
        # bad config fails at construction rather than first use.
        self.basis  # noqa: B018
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise DomainError("rho must be a positive finite number")

    @property
    def basis(self) -> BasisParams:
        return BasisParams(m=self.m, q=self.q, lam=self.lam, unchecked=self.unchecked)

    @property
    def degree(self) -> int:
        return self.m + self.q

    @property
    def sample_hi(self) -> float:
        """Right end of the union of all sampling windows, (m+q+1)/(m+1)."""
        return (self.m + self.q + 1) / (self.m + 1)


def window_integrals(config: OperatorConfig, f: Callable) -> np.ndarray:
    """integral_0^1 f((i + t**rho) / (m + 1)) dt for every index i.

    Gauss-Jacobi in x = t**rho first; rejected windows take the composite
    fallback rule.  BLAS reduces a row of a matrix-vector product
    differently depending on the row's place and the matrix's shape, so the
    rejected rows keep their places in a zero-filled full-size matrix: their
    values are then bit for bit the composite rule's on every window.
    """
    idx = np.arange(config.degree + 1, dtype=float)

    def points(nodes, rows=slice(None)):
        return (idx[rows, None] + nodes[None, :]) / (config.m + 1)

    integrals, rejected = _window_estimate(
        lambda nodes, weights: evaluate_on(f, points(nodes)) @ weights, config.rho
    )
    if rejected.any():
        nodes, weights = _fallback_window_rule(config.rho)
        values = np.zeros((len(idx), len(nodes)))
        values[rejected] = evaluate_on(f, points(nodes, rejected))
        integrals[rejected] = (values @ weights)[rejected]
    return integrals


def apply(config: OperatorConfig, f: Callable, ys) -> np.ndarray | float:
    """Evaluate K(f; y) at one point or an array of points.

    The basis/integral contraction uses compensated summation; results are
    deterministic and independent of the shape ``ys`` arrives in.
    """
    integrals = window_integrals(config, f)
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    rows = basis_rows(config.basis, arr)
    out = np.array([fsum_product(row, integrals) for row in rows])
    if np.isscalar(ys) or np.asarray(ys).ndim == 0:
        return float(out[0])
    return out


def monomial_kantorovich_integral(config: OperatorConfig, i: int, k: int) -> float:
    """Exact integral_0^1 ((i + t**rho) / (m + 1))**k dt.

    Expanding the binomial and integrating t**(rho*j) termwise gives

        (m+1)**-k * sum_j C(k, j) * i**(k-j) / (rho*j + 1),

    which avoids quadrature entirely and anchors the moment oracle.
    """
    if k < 0:
        raise DomainError("monomial degree must be >= 0")
    if i < 0 or i > config.degree:
        raise DomainError(f"window index must lie in 0..{config.degree}")
    scale = (config.m + 1) ** (-k)
    terms = [
        DEFAULT_BINOMIALS.value(k, j) * i ** (k - j) / (config.rho * j + 1.0)
        for j in range(k + 1)
    ]
    return scale * math.fsum(terms)


def monomial_moment(config: OperatorConfig, u: float, k: int) -> float:
    """K(e_k; u) through the summation path (ground truth)."""
    weights = basis_row(config.basis, u)
    integrals = np.array(
        [monomial_kantorovich_integral(config, i, k) for i in range(config.degree + 1)]
    )
    return fsum_product(weights, integrals)


@dataclass(frozen=True)
class MomentSet:
    """K(e_0), K(e_1), K(e_2) at one point, on both computation paths.

    ``e0..e2`` hold the published closed forms transcribed verbatim;
    ``oracle_e0..oracle_e2`` hold the exact-summation values.  Downstream
    numerics must consume the oracle fields; the closed fields exist for the
    audit, and the two disagree (the closed forms drop the degree extension
    q and carry inconsistent lower-order terms).
    """

    at: float
    e0: float
    e1: float
    e2: float
    oracle_e0: float
    oracle_e1: float
    oracle_e2: float

    @property
    def max_discrepancy(self) -> float:
        return max(
            abs(self.e0 - self.oracle_e0),
            abs(self.e1 - self.oracle_e1),
            abs(self.e2 - self.oracle_e2),
        )


@dataclass(frozen=True)
class CentralMomentSet:
    """Central moments K((s - u)^k; u), closed and oracle paths.

    ``identity_residual`` is oracle psi2 minus the raw-moment combination
    e2 - 2u*e1 + u^2 built from oracle raw moments.  The two oracle routes
    sum different per-window integrands, so the residual is a genuine
    cross-check, algebraically zero and numerically tiny.
    """

    at: float
    psi1: float
    psi2: float
    oracle_psi1: float
    oracle_psi2: float
    identity_residual: float


def _closed_e1(n: float, lam: float, rho: float, u: float) -> float:
    return ((n + 2.0 * (lam - 1.0)) / (n + 1.0)) * u + (
        (lam + 1.0) * (rho + 1.0) + 1.0
    ) / (2.0 * (rho + 1.0) * (n + 1.0))


def _closed_e2_constant(n: float, lam: float, rho: float) -> float:
    return (
        2.0 * n * (2.0 * rho + 1.0)
        + (lam + 1.0) * (2.0 * rho + 1.0) * ((lam + 2.0) * (rho + 1.0) + 2.0)
        + rho
        + 1.0
    ) / ((2.0 * rho + 1.0) * (rho + 1.0) * (n + 1.0) ** 2)


def _closed_e2(n: float, lam: float, rho: float, u: float) -> float:
    return (
        (1.0 + (4.0 * lam - 3.0) / n) * (n * n * u * u) / ((n + 1.0) ** 2)
        + (
            (rho + 1.0) * (n * (2.0 * lam + 3.0) + (lam - 1.0) * (2.0 * lam + 7.0))
            + 4.0 * (lam - 1.0)
        )
        / ((rho + 1.0) * (n + 1.0) ** 2)
        * u
        + _closed_e2_constant(n, lam, rho)
    )


def _closed_psi1(n: float, lam: float, rho: float, u: float) -> float:
    return ((2.0 * lam - 3.0) / (n + 1.0)) * u + (
        (lam + 1.0) * (rho + 1.0) + 1.0
    ) / ((rho + 1.0) * (n + 1.0))


def _closed_psi2(n: float, lam: float, rho: float, u: float) -> float:
    return (
        (
            (1.0 + (4.0 * lam - 3.0) / n) * (n * n) / ((n + 1.0) ** 2)
            - (2.0 * n + 4.0 * lam - 1.0) / (n + 1.0)
            + 1.0
        )
        * u
        * u
        + (
            (rho + 1.0)
            * (
                n * (2.0 * lam + 3.0)
                + (lam - 1.0) * (2.0 * lam + 7.0)
                - 2.0 * (lam + 1.0)
            )
            + lam
            - 6.0
        )
        / ((rho + 1.0) * (n + 1.0) ** 2)
        * u
        + _closed_e2_constant(n, lam, rho)
    )


def oracle_moments(config: OperatorConfig, u: float) -> tuple[float, float, float]:
    """(e0, e1, e2) through the summation path only."""
    weights = basis_row(config.basis, u)
    M = config.degree
    values = []
    for k in range(3):
        col = np.array(
            [monomial_kantorovich_integral(config, i, k) for i in range(M + 1)]
        )
        values.append(fsum_product(weights, col))
    return values[0], values[1], values[2]


def moments_closed(config: OperatorConfig, u: float) -> MomentSet:
    """Moments on both paths: published closed forms plus the oracle."""
    n = float(config.m)
    e0, e1, e2 = oracle_moments(config, u)
    return MomentSet(
        at=u,
        e0=1.0,
        e1=_closed_e1(n, config.lam, config.rho, u),
        e2=_closed_e2(n, config.lam, config.rho, u),
        oracle_e0=e0,
        oracle_e1=e1,
        oracle_e2=e2,
    )


def oracle_central_moments(config: OperatorConfig, u: float) -> tuple[float, float]:
    """(psi1, psi2) with each window integrated in closed form, then summed.

    Each window contributes exactly

        integral (x_i(t) - u) dt   = A + B/(rho+1)
        integral (x_i(t) - u)^2 dt = A^2 + 2AB/(rho+1) + B^2/(2rho+1)

    with A = i/(m+1) - u and B = 1/(m+1), so the only rounding left is the
    weighted sum itself.  This route never touches the raw moments, which
    is what makes the identity residual a real consistency check.
    """
    weights = basis_row(config.basis, u)
    M = config.degree
    B = 1.0 / (config.m + 1)
    r1 = config.rho + 1.0
    r2 = 2.0 * config.rho + 1.0
    idx = np.arange(M + 1, dtype=float)
    A = idx * B - u
    first = A + B / r1
    second = A * A + 2.0 * A * (B / r1) + B * B / r2
    return fsum_product(weights, first), fsum_product(weights, second)


def central_moments(config: OperatorConfig, u: float) -> CentralMomentSet:
    """Central moments on both paths plus the raw-vs-central residual."""
    n = float(config.m)
    psi1, psi2 = oracle_central_moments(config, u)
    e0, e1, e2 = oracle_moments(config, u)
    residual = psi2 - (e2 - 2.0 * u * e1 + u * u * e0)
    return CentralMomentSet(
        at=u,
        psi1=_closed_psi1(n, config.lam, config.rho, u),
        psi2=_closed_psi2(n, config.lam, config.rho, u),
        oracle_psi1=psi1,
        oracle_psi2=psi2,
        identity_residual=residual,
    )


def closed_identity_residual(config: OperatorConfig, u: float) -> float:
    """Internal-consistency defect of the published central moments.

    Audit-only: closed psi2 against the same combination of closed raw
    moments.  Nonzero because the published psi1/psi2 do not match the
    published e1/e2 they were derived from.
    """
    n = float(config.m)
    lam, rho = config.lam, config.rho
    e1 = _closed_e1(n, lam, rho, u)
    e2 = _closed_e2(n, lam, rho, u)
    psi2 = _closed_psi2(n, lam, rho, u)
    return psi2 - (e2 - 2.0 * u * e1 + u * u)


@dataclass(frozen=True)
class ErrorTable:
    """Pointwise error of K(f) against f with the modulus-based bound."""

    xs: np.ndarray
    errors: np.ndarray
    bounds: np.ndarray
    deltas: np.ndarray

    def rows(self) -> Iterable[tuple[float, float, float, float]]:
        return zip(self.xs, self.errors, self.bounds, self.deltas)

    def to_csv(self, path) -> None:
        lines = ["x,error,bound_thm33,delta"]
        for row in self.rows():
            lines.append(",".join(CSV_FLOAT_FORMAT % v for v in row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def error_curve(config: OperatorConfig, f: Callable, grid: Grid) -> ErrorTable:
    """Absolute error |K(f; x) - f(x)| over a grid, with 2*omega(f; delta).

    delta(x) is the square root of the oracle second central moment and the
    modulus is estimated over the full sampling window so the bound stays
    valid near the right endpoint.
    """
    from .modulus import modulus_scan

    approx = apply(config, f, grid.points)
    exact = evaluate_on(f, grid.points)
    errors = np.abs(approx - exact)
    scan = modulus_scan(f, lo=0.0, hi=config.sample_hi)
    deltas = np.array([point_delta(config, float(x)) for x in grid.points])
    bounds = np.array([2.0 * scan.value_at(d) for d in deltas])
    return ErrorTable(xs=grid.points, errors=errors, bounds=bounds, deltas=deltas)


def point_delta(config: OperatorConfig, u: float) -> float:
    """Concentration radius sqrt(oracle psi2(u)).

    A second central moment of a positive operator cannot be negative;
    anything below -1e-12 marks an internal inconsistency and raises, while
    mere rounding noise is clamped to 0.
    """
    psi2 = oracle_central_moments(config, u)[1]
    if psi2 < -1e-12:
        raise EvaluationError(f"second central moment {psi2} is negative at u={u}")
    return math.sqrt(max(psi2, 0.0))
