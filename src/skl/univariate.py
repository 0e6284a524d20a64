"""Univariate shape-blended Schurer-Kantorovich operator.

The operator averages a target function over sliding windows

    K(f; y) = sum_i p_i(y) * integral_0^1 f((i + t**rho) / (m + 1)) dt

with the blended basis weights p_i from :mod:`.basis`.  Its moments come
from exact summation only (exact window integrals weighted by dense basis
rows), the ground truth used everywhere downstream.  The published closed
forms live in :mod:`.audit`, which sets them beside these oracle values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisParams, basis_row, basis_rows, contract
from .errors import DomainError, EvaluationError
from .modulus import modulus_scan
from .numerics import Grid, _window_estimate, evaluate_on


@dataclass(frozen=True)
class OperatorConfig:
    """Full parameter set of one operator instance.

    ``rho`` bends the Kantorovich node inside each window.  The window
    integrals substitute x = t**rho, which turns the unbounded derivative
    at t = 0 for rho < 1 into the Jacobi weight x**(1/rho - 1) of a
    Gauss-Jacobi rule.  A doubling ladder of 8, 16, 32 and 64 nodes stops
    each window at the first pair of rules that agree; windows where even
    the 32- and 64-node values disagree fall back to a composite rule in t.
    """

    m: int
    q: int = 0
    lam: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        # BasisParams repeats the m/q/lam guards; run them eagerly here so a
        # bad config fails at construction rather than first use.
        self.basis  # noqa: B018
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise DomainError("rho must be a positive finite number")

    @property
    def basis(self) -> BasisParams:
        return BasisParams(m=self.m, q=self.q, lam=self.lam)

    @property
    def degree(self) -> int:
        return self.m + self.q

    @property
    def sample_hi(self) -> float:
        """Right end of the union of all sampling windows, (m+q+1)/(m+1)."""
        return (self.m + self.q + 1) / (self.m + 1)


def window_integrals(config: OperatorConfig, f: Callable) -> np.ndarray:
    """integral_0^1 f((i + t**rho) / (m + 1)) dt for every index i.

    The Gauss-Jacobi ladder in x = t**rho, then the composite fallback rule
    for windows it rejects (see :func:`.numerics._window_estimate`).  BLAS
    reduces a row of a matrix-vector product differently depending on the
    row's place and the matrix's shape, so every rule fills the windows it
    integrates into a zero-filled full-size matrix: a window's value is
    then bit for bit the same whichever other windows share the rule.
    """
    count = config.degree + 1
    idx = np.arange(count, dtype=float)

    def integrate(nodes, weights, entries):
        values = np.zeros((count, len(nodes)))
        values[entries] = evaluate_on(f, (idx[entries, None] + nodes[None, :]) / (config.m + 1))
        return (values @ weights)[entries]

    return _window_estimate(integrate, config.rho, count)


def apply(config: OperatorConfig, f: Callable, ys) -> np.ndarray | float:
    """Evaluate K(f; y) at one point or an array of points.

    The window integrals meet the basis through :func:`.basis.contract`,
    so a point gets the same value bit for bit whatever shape ``ys``
    arrives in.
    """
    integrals = window_integrals(config, f)
    out = contract(config.basis, ys, integrals)
    if np.ndim(ys) == 0:
        return float(out[0])
    return out


def monomial_window_integrals(config: OperatorConfig, ks) -> np.ndarray:
    """Exact integral_0^1 ((i + t**rho) / (m + 1))**k dt, a row per window i and a column per k.

    Expanding the binomial and integrating t**(rho*j) termwise gives

        sum_j C(k, j) * (i/(m+1))**(k-j) * (m+1)**-j / (rho*j + 1),

    which avoids quadrature entirely and anchors the moment oracle.  No
    power is taken of a number above (m+q)/(m+1), so none overflows.
    """
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise DomainError("monomial degree must be >= 0")
    x = np.arange(config.degree + 1) / (config.m + 1)
    out = np.zeros((len(x), len(ks)))
    for c, k in enumerate(ks):
        for j in range(k + 1):
            weight = math.comb(k, j) * (config.m + 1.0) ** -j / (config.rho * j + 1.0)
            out[:, c] += weight * x ** (k - j)
    return out


def oracle_moments(config: OperatorConfig, u: float, ks=(0, 1, 2)) -> tuple[float, ...]:
    """K(e_k; u) for each k in ``ks``: one dense basis row times the exact window integrals.

    The dense row is the reference ``verify`` and the tests hold
    :func:`.basis.contract` against.
    """
    moments = basis_row(config.basis, u) @ monomial_window_integrals(config, ks)
    return tuple(float(e) for e in moments)


def oracle_central_moments(config: OperatorConfig, u) -> tuple:
    """(psi1, psi2) with each window integrated in closed form, then summed.

    Each window contributes exactly

        integral (x_i(t) - u) dt   = A + B/(rho+1)
        integral (x_i(t) - u)^2 dt = A^2 + 2AB/(rho+1) + B^2/(2rho+1)

    with A = i/(m+1) - u and B = 1/(m+1), so the only rounding left is the
    weighted sum itself.  This route never touches the raw moments, which
    is what makes the identity residual a real consistency check, and why
    these columns, which depend on u, are not expanded for a contraction.

    ``u`` may be an array: each point's pair comes from its own dense basis
    row and row sum, so it equals the scalar call bit for bit.  A scalar
    ``u`` gives two floats.
    """
    us = np.atleast_1d(np.asarray(u, dtype=float))
    weights = basis_rows(config.basis, us)
    M = config.degree
    B = 1.0 / (config.m + 1)
    r1 = config.rho + 1.0
    r2 = 2.0 * config.rho + 1.0
    idx = np.arange(M + 1, dtype=float)
    A = idx * B - us[:, None]
    first = A + B / r1
    second = A * A + 2.0 * A * (B / r1) + B * B / r2
    psi1 = (weights * first).sum(axis=1)
    psi2 = (weights * second).sum(axis=1)
    if np.ndim(u) == 0:
        return float(psi1[0]), float(psi2[0])
    return psi1, psi2


def identity_residual(config: OperatorConfig, u: float) -> float:
    """Oracle psi2 minus e2 - 2u*e1 + u^2*e0 built from the oracle raw moments.

    The two oracle routes sum different per-window integrands, so the
    residual is a genuine cross-check, algebraically zero and numerically
    tiny.
    """
    psi2 = oracle_central_moments(config, u)[1]
    e0, e1, e2 = oracle_moments(config, u)
    return psi2 - (e2 - 2.0 * u * e1 + u * u * e0)


@dataclass(frozen=True)
class ErrorTable:
    """Pointwise error of K(f) against f with the modulus-based bound."""

    xs: np.ndarray
    errors: np.ndarray
    bounds: np.ndarray
    deltas: np.ndarray


def error_curve(config: OperatorConfig, f: Callable, grid: Grid) -> ErrorTable:
    """Absolute error |K(f; x) - f(x)| over a grid, with 2*omega(f; delta).

    delta(x) is the square root of the oracle second central moment and the
    modulus is estimated over the full sampling window so the bound stays
    valid near the right endpoint.
    """
    approx = apply(config, f, grid.points)
    exact = evaluate_on(f, grid.points)
    errors = np.abs(approx - exact)
    scan = modulus_scan(f, lo=0.0, hi=config.sample_hi)
    deltas = point_delta(config, grid.points)
    bounds = np.array([2.0 * scan.value_at(d) for d in deltas])
    return ErrorTable(xs=grid.points, errors=errors, bounds=bounds, deltas=deltas)


def point_delta(config: OperatorConfig, u):
    """Concentration radius sqrt(oracle psi2(u)), a float or one per point of ``u``.

    psi2 is the dense oracle's, whose window column depends on u.  A second
    central moment of a positive operator cannot be negative; anything
    below -1e-12 marks an internal inconsistency and raises, while mere
    rounding noise is clamped to 0.
    """
    psi2 = np.atleast_1d(oracle_central_moments(config, u)[1])
    negative = psi2 < -1e-12
    if negative.any():
        j = int(np.argmax(negative))
        at = float(np.atleast_1d(np.asarray(u, dtype=float))[j])
        raise EvaluationError(f"second central moment {float(psi2[j])} is negative at u={at}")
    deltas = np.sqrt(np.maximum(psi2, 0.0))
    if np.ndim(u) == 0:
        return float(deltas[0])
    return deltas
