"""Bivariate tensor-product Schurer-Kantorovich operator.

The two-variable operator is the tensor product of two univariate instances
sharing one node exponent rho.  Separable targets factor into two univariate
applications; generic targets go through full tensor quadrature, chunked per
window row to bound memory.  Its moments are the per-axis oracle moments;
the published bivariate closed forms live in :mod:`.audit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import basis_rows
from .numerics import Grid, _window_estimate, evaluate_on
from .univariate import OperatorConfig, apply, point_delta


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

    The Gauss-Jacobi ladder in x = t**rho on both axes: a first-axis window
    stops at the first pair of rules that agree on all its pairs, and one
    the 32/64 pair still rejects is redone with the composite fallback rule
    (see :func:`.numerics._window_estimate`).
    """
    return _window_estimate(
        lambda nodes, weights, rows: _pair_integrals(config, g, nodes, weights, rows),
        config.rho,
        config.axis1.degree + 1,
    )


def _pair_integrals(
    config: BivariateConfig, g: Callable, nodes: np.ndarray, weights: np.ndarray, rows
) -> np.ndarray:
    """One rule on both axes for the window pairs (i1, 0..M2) of each i1 in rows.

    Evaluation is chunked along the first window index: each chunk touches
    n x ((M2+1) * n) points for an n-node rule, which caps memory for large
    degree pairs.  A row's value depends only on its own chunk, so it is
    the same whichever rows share the call.
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
        # Dense on purpose: two banded contractions, one per axis, took 1.7
        # to 2 times as long as this product on 41 x 41 points at m = 20, 10.
        rows1 = basis_rows(config.axis1.basis, arr1)
        rows2 = basis_rows(config.axis2.basis, arr2)
        result = rows1 @ integrals @ rows2.T
    if scalar1 and scalar2:
        return float(result[0, 0])
    return result


def window_deltas(config: BivariateConfig, y1: float, y2: float) -> tuple[float, float]:
    """Per-axis concentration radii, one :func:`point_delta` per axis."""
    return point_delta(config.axis1, y1), point_delta(config.axis2, y2)


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


def surface_table(
    config: BivariateConfig, g: Callable, grid1: Grid, grid2: Grid
) -> SurfaceTable:
    """Evaluate operator and target over grid1 x grid2."""
    approx = np.atleast_2d(apply_bi(config, g, grid1.points, grid2.points))
    exact = evaluate_on(g, *np.meshgrid(grid1.points, grid2.points, indexing="ij"))
    return SurfaceTable(y1s=grid1.points, y2s=grid2.points, approx=approx, exact=exact)
