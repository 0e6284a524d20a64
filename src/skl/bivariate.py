"""Bivariate tensor-product Schurer-Kantorovich operator.

The two-variable operator is the tensor product of two univariate instances
sharing one node exponent rho.  Separable targets factor into two univariate
applications; generic targets go through full tensor quadrature, chunked per
window row to bound memory.  Published closed-form moment identities are
again transcribed verbatim for auditing and kept out of the numeric paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .basis import basis_rows
from .numerics import Grid, _fallback_window_rule, _window_estimate, evaluate_on
from .univariate import (
    CSV_FLOAT_FORMAT,
    OperatorConfig,
    _closed_e1,
    _closed_e2,
    _closed_psi1,
    _closed_psi2,
    apply,
    monomial_moment,
    oracle_central_moments,
)


@dataclass(frozen=True)
class BivariateConfig:
    """Parameters of the tensor operator; one exponent rho serves both axes."""

    m1: int
    m2: int
    q1: int = 0
    q2: int = 0
    lam1: float = 0.0
    lam2: float = 0.0
    rho: float = 1.0
    unchecked: bool = False

    def __post_init__(self):
        self.axis1  # noqa: B018
        self.axis2  # noqa: B018

    @property
    def axis1(self) -> OperatorConfig:
        return OperatorConfig(
            m=self.m1, q=self.q1, lam=self.lam1, rho=self.rho, unchecked=self.unchecked
        )

    @property
    def axis2(self) -> OperatorConfig:
        return OperatorConfig(
            m=self.m2, q=self.q2, lam=self.lam2, rho=self.rho, unchecked=self.unchecked
        )


@dataclass(frozen=True)
class SeparableFunction:
    """Product target g(y1, y2) = f1(y1) * f2(y2).

    Marking separability lets the operator factor into two univariate
    applications instead of tensor quadrature.
    """

    f1: Callable
    f2: Callable

    def __call__(self, y1, y2):
        return self.f1(y1) * self.f2(y2)


def _as_points(ys) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    scalar = np.isscalar(ys) or np.asarray(ys).ndim == 0
    return arr, scalar


def _generic_window_integrals(config: BivariateConfig, g: Callable) -> np.ndarray:
    """Double integrals of g over every window pair, shape (M1+1, M2+1).

    Gauss-Jacobi in x = t**rho on both axes first; any first-axis window
    with a rejected pair is redone with the composite fallback rule.
    """
    rows = np.arange(config.axis1.degree + 1)
    integrals, rejected = _window_estimate(
        lambda nodes, weights: _pair_integrals(config, g, nodes, weights, rows), config.rho
    )
    redo = np.flatnonzero(rejected.any(axis=1))
    if redo.size:
        integrals[redo] = _pair_integrals(config, g, *_fallback_window_rule(config.rho), redo)
    return integrals


def _pair_integrals(
    config: BivariateConfig, g: Callable, nodes: np.ndarray, weights: np.ndarray, rows
) -> np.ndarray:
    """One rule on both axes for the window pairs (i1, 0..M2) of each i1 in rows.

    Evaluation is chunked along the first window index: each chunk touches
    n x ((M2+1) * n) points, which caps memory for large degree pairs.
    """
    c1, c2 = config.axis1, config.axis2
    M2 = c2.degree
    n = len(nodes)
    flat2 = ((np.arange(M2 + 1, dtype=float)[:, None] + nodes[None, :]) / (c2.m + 1)).ravel()
    out = np.empty((len(rows), M2 + 1))
    for r, i1 in enumerate(rows):
        pts1 = (i1 + nodes) / (c1.m + 1)
        values = evaluate_on(g, pts1[:, None], flat2[None, :])
        # Contract the first axis, then the second inside each window.
        out[r] = (weights @ values).reshape(M2 + 1, n) @ weights
    return out


def apply_bi(
    config: BivariateConfig,
    g: Callable,
    y1s,
    y2s,
    force_generic: bool = False,
) -> np.ndarray | float:
    """Evaluate the tensor operator on the grid y1s x y2s.

    Returns a (len(y1s), len(y2s)) matrix, collapsing to a float for scalar
    inputs.  ``force_generic`` routes separable targets through tensor
    quadrature anyway, which the test-suite uses to cross-check the paths.
    """
    arr1, scalar1 = _as_points(y1s)
    arr2, scalar2 = _as_points(y2s)
    if isinstance(g, SeparableFunction) and not force_generic:
        k1 = np.atleast_1d(apply(config.axis1, g.f1, arr1))
        k2 = np.atleast_1d(apply(config.axis2, g.f2, arr2))
        result = np.outer(k1, k2)
    else:
        integrals = _generic_window_integrals(config, g)
        rows1 = basis_rows(config.axis1.basis, arr1)
        rows2 = basis_rows(config.axis2.basis, arr2)
        result = rows1 @ integrals @ rows2.T
    if scalar1 and scalar2:
        return float(result[0, 0])
    return result


@dataclass(frozen=True)
class BiMomentSet:
    """Raw product moments K(y1^i * y2^j), closed and oracle paths.

    Closed fields transcribe the published identities verbatim, including
    the e01 row that mixes first-axis parameters into the second coordinate;
    oracle fields come from the univariate summation path and the exact
    tensor factorization e11 = e10 * e01.
    """

    at: tuple[float, float]
    e00: float
    e10: float
    e01: float
    e11: float
    e20: float
    e02: float
    oracle_e00: float
    oracle_e10: float
    oracle_e01: float
    oracle_e11: float
    oracle_e20: float
    oracle_e02: float

    @property
    def max_discrepancy(self) -> float:
        return max(
            abs(self.e00 - self.oracle_e00),
            abs(self.e10 - self.oracle_e10),
            abs(self.e01 - self.oracle_e01),
            abs(self.e11 - self.oracle_e11),
            abs(self.e20 - self.oracle_e20),
            abs(self.e02 - self.oracle_e02),
        )


@dataclass(frozen=True)
class BiCentralMomentSet:
    """Central product moments K((t - y1)^i (s - y2)^j), both paths.

    The closed eta01 slope and the eta02 linear coefficient carry
    first-axis parameters exactly as published; oracle fields factor
    through the per-axis central moments.
    """

    at: tuple[float, float]
    eta10: float
    eta01: float
    eta11: float
    eta20: float
    eta02: float
    oracle_eta10: float
    oracle_eta01: float
    oracle_eta11: float
    oracle_eta20: float
    oracle_eta02: float

    @property
    def max_discrepancy(self) -> float:
        return max(
            abs(self.eta10 - self.oracle_eta10),
            abs(self.eta01 - self.oracle_eta01),
            abs(self.eta11 - self.oracle_eta11),
            abs(self.eta20 - self.oracle_eta20),
            abs(self.eta02 - self.oracle_eta02),
        )


def bi_moments(config: BivariateConfig, y1: float, y2: float) -> BiMomentSet:
    """Raw product moments on both paths."""
    c1, c2 = config.axis1, config.axis2
    m1, m2 = float(config.m1), float(config.m2)
    lam1, lam2 = config.lam1, config.lam2
    rho = config.rho
    oe10 = monomial_moment(c1, y1, 1)
    oe01 = monomial_moment(c2, y2, 1)
    closed_e10 = _closed_e1(m1, lam1, rho, y1)
    closed_e01 = ((m1 + 2.0 * (lam1 - 1.0)) / (m2 + 1.0)) * y2 + (
        (lam2 + 1.0) * (rho + 1.0) + 1.0
    ) / (2.0 * (rho + 1.0) * (m2 + 1.0))
    return BiMomentSet(
        at=(y1, y2),
        e00=1.0,
        e10=closed_e10,
        e01=closed_e01,
        e11=closed_e10 * _closed_e1(m2, lam2, rho, y2),
        e20=_closed_e2(m1, lam1, rho, y1),
        e02=_closed_e2(m2, lam2, rho, y2),
        oracle_e00=monomial_moment(c1, y1, 0) * monomial_moment(c2, y2, 0),
        oracle_e10=oe10,
        oracle_e01=oe01,
        oracle_e11=oe10 * oe01,
        oracle_e20=monomial_moment(c1, y1, 2),
        oracle_e02=monomial_moment(c2, y2, 2),
    )


def bi_central_moments(config: BivariateConfig, y1: float, y2: float) -> BiCentralMomentSet:
    """Central product moments on both paths."""
    m1, m2 = float(config.m1), float(config.m2)
    lam1, lam2 = config.lam1, config.lam2
    rho = config.rho
    opsi1_1, opsi2_1 = oracle_central_moments(config.axis1, y1)
    opsi1_2, opsi2_2 = oracle_central_moments(config.axis2, y2)
    closed_eta10 = _closed_psi1(m1, lam1, rho, y1)
    closed_eta01 = ((2.0 * lam1 - 3.0) / (m2 + 1.0)) * y2 + (
        (lam2 + 1.0) * (rho + 1.0) + 1.0
    ) / ((rho + 1.0) * (m2 + 1.0))
    closed_eta02 = (
        (
            (1.0 + (4.0 * lam2 - 3.0) / m2) * (m2 * m2) / ((m2 + 1.0) ** 2)
            - (2.0 * m2 + 4.0 * lam2 - 1.0) / (m2 + 1.0)
            + 1.0
        )
        * y2
        * y2
        + (
            (rho + 1.0)
            * (
                m1 * (2.0 * lam2 + 3.0)
                + (lam2 - 1.0) * (2.0 * lam2 + 7.0)
                - 2.0 * (lam2 + 1.0)
            )
            + lam2
            - 6.0
        )
        / ((rho + 1.0) * (m2 + 1.0) ** 2)
        * y2
        + (
            2.0 * m2 * (2.0 * rho + 1.0)
            + (lam2 + 1.0) * (2.0 * rho + 1.0) * ((lam2 + 2.0) * (rho + 1.0) + 2.0)
            + rho
            + 1.0
        )
        / ((2.0 * rho + 1.0) * (rho + 1.0) * (m2 + 1.0) ** 2)
    )
    return BiCentralMomentSet(
        at=(y1, y2),
        eta10=closed_eta10,
        eta01=closed_eta01,
        eta11=closed_eta10 * closed_eta01,
        eta20=_closed_psi2(m1, lam1, rho, y1),
        eta02=closed_eta02,
        oracle_eta10=opsi1_1,
        oracle_eta01=opsi1_2,
        oracle_eta11=opsi1_1 * opsi1_2,
        oracle_eta20=opsi2_1,
        oracle_eta02=opsi2_2,
    )


def window_deltas(config: BivariateConfig, y1: float, y2: float) -> tuple[float, float]:
    """Per-axis concentration radii (sqrt of oracle second central moments)."""
    cm = bi_central_moments(config, y1, y2)
    return (
        math.sqrt(max(cm.oracle_eta20, 0.0)),
        math.sqrt(max(cm.oracle_eta02, 0.0)),
    )


@dataclass(frozen=True)
class SurfaceTable:
    """Operator values against the target over a rectangular grid."""

    y1s: np.ndarray
    y2s: np.ndarray
    approx: np.ndarray
    exact: np.ndarray

    @property
    def errors(self) -> np.ndarray:
        return np.abs(self.approx - self.exact)

    @property
    def sup_error(self) -> float:
        return float(self.errors.max())

    def rows(self) -> Iterable[tuple[float, float, float, float, float]]:
        err = self.errors
        for a, y1 in enumerate(self.y1s):
            for b, y2 in enumerate(self.y2s):
                yield y1, y2, self.approx[a, b], self.exact[a, b], err[a, b]

    def to_csv(self, path) -> None:
        lines = ["y1,y2,K,f,error"]
        for row in self.rows():
            lines.append(",".join(CSV_FLOAT_FORMAT % v for v in row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def surface_table(
    config: BivariateConfig, g: Callable, grid1: Grid, grid2: Grid
) -> SurfaceTable:
    """Evaluate operator and target over grid1 x grid2."""
    approx = np.atleast_2d(apply_bi(config, g, grid1.points, grid2.points))
    exact = evaluate_on(g, *np.meshgrid(grid1.points, grid2.points, indexing="ij"))
    return SurfaceTable(y1s=grid1.points, y2s=grid2.points, approx=approx, exact=exact)
