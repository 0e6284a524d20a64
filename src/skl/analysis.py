"""Convergence diagnostics and error bounds.

The bound functions mirror the published estimates: a plain modulus bound
(thm33), a Lipschitz-class pointwise bound (thm41), a partial-moduli bound
for the tensor operator (thm71), and its Lipschitz-maximal analogue (thm72).
All deltas come from oracle central moments and all moduli are estimated
over the union of sampling windows, not just the evaluation interval, since
the operator reaches up to (m+q+1)/(m+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .basis import contract
from .bivariate import BivariateConfig, window_deltas
from .errors import DomainError
from .modulus import ModulusScan, SurfaceModulus, modulus_scan, surface_modulus
from .numerics import DEFAULT_SUP_GRID_POINTS, Grid, unit_grid
from .univariate import (
    OperatorConfig,
    monomial_window_integrals,
    oracle_central_moments,
    point_delta,
)

__all__ = [
    "LipschitzParams",
    "WeightedNormReport",
    "bound_thm33",
    "bound_thm41",
    "bound_thm71",
    "bound_thm72",
    "korovkin_defects",
    "moment_defect_curve",
    "weighted_convergence",
]


def bound_thm33(
    config: OperatorConfig,
    f: Callable,
    u: float,
    scan: ModulusScan | None = None,
) -> tuple[float, float]:
    """Modulus bound: (2 * omega(f; delta), delta) with delta = sqrt(psi2(u)).

    Pass a prebuilt ``scan`` over [0, config.sample_hi] when evaluating many
    points; otherwise one is sampled here.
    """
    if scan is None:
        scan = modulus_scan(f, lo=0.0, hi=config.sample_hi)
    delta = point_delta(config, u)
    return 2.0 * scan.value_at(delta), delta


@dataclass(frozen=True)
class LipschitzParams:
    """Constants of the two Lipschitz-type bounds.

    ``M``, ``gamma``, ``k1``, ``k2`` drive the weighted-class pointwise
    bound; ``tau`` and ``E_set`` (a finite anchor set in [0, 1]) drive the
    bivariate maximal-function bound.  Class membership of the target is
    the caller's responsibility, the bounds only assemble the constants.
    """

    M: float
    gamma: float = 1.0
    k1: float = 1.0
    k2: float = 1.0
    tau: float = 1.0
    E_set: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.M < 0.0:
            raise DomainError("M must be >= 0")
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError("gamma must lie in (0, 1]")
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise DomainError("k1 and k2 must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise DomainError("tau must lie in (0, 1]")
        object.__setattr__(self, "E_set", tuple(float(e) for e in self.E_set))


def bound_thm41(config: OperatorConfig, params: LipschitzParams, u: float) -> float:
    """Lipschitz-class bound M * (psi2(u) / (k1*u + k2*u^2))**(gamma/2).

    Defined for u > 0 only; the denominator vanishes at the origin.
    """
    if u <= 0.0:
        raise DomainError("the Lipschitz-class bound needs u > 0")
    psi2 = max(oracle_central_moments(config, u)[1], 0.0)
    return params.M * (psi2 / (params.k1 * u + params.k2 * u * u)) ** (params.gamma / 2.0)


def bound_thm71(
    config: BivariateConfig,
    g: Callable,
    y1: float,
    y2: float,
    samples: SurfaceModulus | None = None,
) -> tuple[float, float, float]:
    """Partial-moduli bound: (2 * (omega_1(g; d1) + omega_2(g; d2)), d1, d2).

    d1, d2 are the per-axis concentration radii at (y1, y2).  ``samples``
    lets callers reuse one sampled surface across a whole grid of points.
    """
    if samples is None:
        samples = surface_modulus(g, hi1=config.axis1.sample_hi, hi2=config.axis2.sample_hi)
    d1, d2 = window_deltas(config, y1, y2)
    return 2.0 * (samples.omega1(d1) + samples.omega2(d2)), d1, d2


def bound_thm72(
    config: BivariateConfig,
    params: LipschitzParams,
    y1: float,
    y2: float,
) -> float:
    """Lipschitz-maximal bound against the anchor set E.

    With d_k the distance from y_k to E_set and delta_k the per-axis radii,
    the bound is M * ((d1^tau + delta1^tau) * (d2^tau + delta2^tau)
    + d1^tau * d2^tau).
    """
    if not params.E_set:
        raise DomainError("E_set must be nonempty")
    anchors = np.asarray(params.E_set, dtype=float)
    delta1, delta2 = window_deltas(config, y1, y2)
    d1 = float(np.abs(anchors - y1).min())
    d2 = float(np.abs(anchors - y2).min())
    tau = params.tau
    return params.M * (
        (d1 ** tau + delta1 ** tau) * (d2 ** tau + delta2 ** tau)
        + d1 ** tau * d2 ** tau
    )


def moment_defect_curve(config: OperatorConfig, ks: Sequence[int], grid: Grid) -> np.ndarray:
    """|K(e_k; u) - u^k| over the grid, a column per k in ``ks``, from one banded contraction."""
    u = grid.points
    moments = contract(config.basis, u, monomial_window_integrals(config, ks))
    return np.abs(moments - np.column_stack([u ** k for k in ks]))


def korovkin_defects(
    ms: Sequence[int],
    q: int,
    lam: float,
    rho: float,
    ks: Sequence[int] = (1, 2),
    grid: Grid | None = None,
) -> np.ndarray:
    """sup |K(e_k; u) - u^k| for each m in ``ms`` and k in ``ks``.

    Returns a (len(ms), len(ks)) array; rows shrink toward 0 as m grows,
    which is the Korovkin route to uniform convergence.
    """
    if grid is None:
        grid = unit_grid(DEFAULT_SUP_GRID_POINTS)
    out = np.empty((len(ms), len(ks)))
    for a, m in enumerate(ms):
        config = OperatorConfig(m=m, q=q, lam=lam, rho=rho)
        out[a] = moment_defect_curve(config, ks, grid).max(axis=0)
    return out


@dataclass(frozen=True)
class WeightedNormReport:
    """Weighted sup defects sup |K(e_i; u) - u^i| / (1 + u^2) per index."""

    n_ladder: tuple[int, ...]
    norms: np.ndarray  # shape (3, len(n_ladder)); rows are i = 0, 1, 2

    def row(self, i: int) -> np.ndarray:
        return self.norms[i]

    def is_decreasing(self, i: int, slack: float = 0.0) -> bool:
        """True when row i decays along the ladder, allowing relative slack."""
        row = self.norms[i]
        return all(row[j + 1] <= row[j] * (1.0 + slack) for j in range(len(row) - 1))


def weighted_convergence(
    n_ladder: Sequence[int],
    q: int,
    lam: float,
    rho: float,
    grid: Grid | None = None,
) -> WeightedNormReport:
    """Weighted-norm defects for the three test monomials along the ladder.

    The i = 0 row is exactly 0: the kernel windows each carry unit mass and
    the basis weights sum to 1, so the unit-function defect vanishes
    identically rather than merely to rounding.
    """
    if grid is None:
        grid = unit_grid(DEFAULT_SUP_GRID_POINTS)
    weight = 1.0 + grid.points ** 2
    norms = np.zeros((3, len(n_ladder)))
    for a, n in enumerate(n_ladder):
        config = OperatorConfig(m=n, q=q, lam=lam, rho=rho)
        curves = moment_defect_curve(config, (1, 2), grid) / weight[:, None]
        norms[1:, a] = curves.max(axis=0)
    return WeightedNormReport(n_ladder=tuple(n_ladder), norms=norms)
