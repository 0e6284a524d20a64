"""Bivariate tensor-product Schurer-Kantorovich operator.

The two-variable operator is the tensor product of two univariate instances
sharing one node exponent rho.  Separable targets factor into two univariate
applications; generic targets go through full tensor quadrature, where each
window pair climbs the quadrature ladder on its own and blocks of pairs
bound memory.  Its moments are the per-axis oracle moments; the published
bivariate closed forms live in :mod:`.audit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import basis_rows
from .numerics import BLOCK_CELLS, Grid, _window_estimate, evaluate_on
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

    def __post_init__(self):
        self.axis1  # noqa: B018
        self.axis2  # noqa: B018

    @property
    def axis1(self) -> OperatorConfig:
        return OperatorConfig(m=self.m1, q=self.q1, lam=self.lam1, rho=self.rho)

    @property
    def axis2(self) -> OperatorConfig:
        return OperatorConfig(m=self.m2, q=self.q2, lam=self.lam2, rho=self.rho)


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
    return arr, np.ndim(ys) == 0


def _generic_window_integrals(config: BivariateConfig, g: Callable) -> np.ndarray:
    """Double integrals of g over every window pair, shape (M1+1, M2+1).

    Entry e is the pair (i1, i2) = divmod(e, M2+1).  The Gauss-Jacobi
    ladder in x = t**rho on both axes stops each pair at the first pair of
    rules that agree on it, and a pair the 32/64 rules still reject is
    redone with the composite fallback rule (see
    :func:`.numerics._window_estimate`).  One rule evaluates g on the
    n x n nodes of a block of pairs at a time, at most BLOCK_CELLS cells
    and at least one pair per block.  Each pair is contracted by its own
    matrix products, first axis then second: one product shared by the
    block would reduce a pair differently depending on its place, and a
    pair's value must not depend on which pairs share its block or rule.
    """
    c1, c2 = config.axis1, config.axis2
    width = c2.degree + 1

    def integrate(nodes, weights, entries):
        n = len(nodes)
        i1, i2 = np.divmod(entries, width)
        pts1 = ((i1[:, None] + nodes) / (c1.m + 1))[:, :, None]
        pts2 = ((i2[:, None] + nodes) / (c2.m + 1))[:, None, :]
        block = max(1, BLOCK_CELLS // (n * n))
        out = np.empty(len(entries))
        for s in range(0, len(entries), block):
            values = evaluate_on(g, pts1[s : s + block], pts2[s : s + block])
            inner = weights @ values
            out[s : s + block] = (inner[:, None, :] @ weights)[:, 0]
        return out

    count = (c1.degree + 1) * width
    return _window_estimate(integrate, config.rho, count).reshape(-1, width)


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
