"""Quadrature, window rules, target evaluation, and grid utilities.

Everything here is pure and deterministic; objects are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError

#: Node counts of the two Gauss-Jacobi window rules.  Their gap estimates the
#: error of the larger one, which supplies the window integral when the gap
#: is within JACOBI_TOLERANCE * max(1, |integral|).
JACOBI_ORDERS = (32, 64)
JACOBI_TOLERANCE = 1e-11

#: Composite quadrature defaults: 32-node Gauss-Legendre cells over 8 uniform
#: subdivisions of [0, 1].  The composite rule is the fallback for windows
#: the Gauss-Jacobi pair cannot resolve (targets not smooth inside a window).
DEFAULT_QUADRATURE_ORDER = 32
DEFAULT_SUBDIVISIONS = 8

#: Number of geometric bisection levels applied to the first subdivision when
#: the integrand has an algebraic endpoint singularity at t = 0 (exponents
#: below 1).  Calibrated so that t**0.1 integrates to ~1e-11 absolute error at
#: the default subdivision count.
SINGULAR_ORIGIN_LEVELS = 16

#: Default number of points for sup-norm and modulus grids.
DEFAULT_SUP_GRID_POINTS = 10_001


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the open unit interval.

    ``order`` counts the nodes; the rule integrates polynomials of degree up
    to ``2 * order - 1`` exactly and its weights sum to 1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    @classmethod
    def gauss_legendre(cls, order: int = DEFAULT_QUADRATURE_ORDER) -> "QuadratureRule":
        if order < 1:
            raise DomainError("quadrature order must be positive")
        x, w = np.polynomial.legendre.leggauss(order)
        nodes = 0.5 * (x + 1.0)
        weights = 0.5 * w
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes=nodes, weights=weights, order=order)


_GL_DEFAULT = QuadratureRule.gauss_legendre()


@lru_cache(maxsize=64)
def _composite_cells(subdivisions: int, origin_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened node/weight arrays for the composite rule on [0, 1].

    The first uniform cell is split geometrically toward 0 when
    ``origin_levels`` > 0, halving the inner edge per level.
    """
    h = 1.0 / subdivisions
    edges = [0.0]
    if origin_levels > 0:
        edges.extend(h * 0.5 ** j for j in range(origin_levels, -1, -1))
    else:
        edges.append(h)
    edges.extend((c + 1) * h for c in range(1, subdivisions))
    base_nodes = _GL_DEFAULT.nodes
    base_weights = _GL_DEFAULT.weights
    all_nodes = []
    all_weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        width = b - a
        all_nodes.append(a + width * base_nodes)
        all_weights.append(width * base_weights)
    nodes = np.concatenate(all_nodes)
    weights = np.concatenate(all_weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def composite_nodes(
    subdivisions: int = DEFAULT_SUBDIVISIONS, origin_levels: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Node and weight vectors of the composite Gauss-Legendre rule on [0, 1]."""
    if subdivisions < 1:
        raise DomainError("subdivisions must be >= 1")
    if origin_levels < 0:
        raise DomainError("origin_levels must be >= 0")
    return _composite_cells(subdivisions, origin_levels)


@lru_cache(maxsize=64)
def jacobi_rule(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule on (0, 1) for the weight (beta + 1) * x**beta.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the weight (1 - s)**0 * (1 + s)**beta on [-1, 1], mapped
    by x = (1 + s) / 2; the weights are the squared first eigenvector
    components, normalised to sum to 1.  Exact for polynomials of degree
    2n - 1; beta > -1.
    """
    if n < 1:
        raise DomainError("quadrature order must be positive")
    if not beta > -1.0:
        raise DomainError("Jacobi exponent beta must exceed -1")
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(n)
    # The general term beta**2 / ((2k + beta)(2k + beta + 2)) is 0/0 at
    # k = 0, beta = 0; its limit for every beta is beta / (beta + 2).
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    eigenvalues, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    nodes = 0.5 * (eigenvalues + 1.0)
    weights = vectors[0] ** 2
    weights /= weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _window_estimate(
    integrate: Callable[[np.ndarray, np.ndarray], np.ndarray], rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """Window integrals of f(t**rho) over t in [0, 1] and where to reject them.

    With x = t**rho the integral is a Jacobi-weighted one with
    beta = 1/rho - 1.  ``integrate(nodes, weights)`` applies one rule in x
    to every window; it runs once per rule in JACOBI_ORDERS.  Returns the
    largest rule's values and the mask where the gap between the two rules
    exceeds JACOBI_TOLERANCE * max(1, |value|).  Rejected entries need
    ``_fallback_window_rule``.
    """
    beta = 1.0 / rho - 1.0
    low, high = (integrate(*jacobi_rule(n, beta)) for n in JACOBI_ORDERS)
    rejected = np.abs(low - high) > JACOBI_TOLERANCE * np.maximum(1.0, np.abs(high))
    return high, rejected


def _fallback_window_rule(rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule for f(t**rho) over t in [0, 1], as nodes t**rho and weights.

    Geometric refinement toward t = 0 when rho < 1, where t**rho has an
    unbounded derivative.
    """
    t, weights = composite_nodes(origin_levels=SINGULAR_ORIGIN_LEVELS if rho < 1.0 else 0)
    return np.power(t, rho), weights


def evaluate_on(f: Callable, *xs: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on arrays that broadcast together, one per argument.

    The result has the broadcast shape.  A function that rejects arrays or
    returns another shape is called point by point instead.  Raises
    EvaluationError when any returned value is non-finite.
    """
    points = np.broadcast(*xs)
    try:
        values = np.asarray(f(*xs), dtype=float)
        if values.shape != points.shape:
            raise TypeError
    except (TypeError, ValueError):
        flat = np.fromiter((float(f(*p)) for p in points), dtype=float, count=points.size)
        values = flat.reshape(points.shape)
    if not np.all(np.isfinite(values)):
        raise EvaluationError("function returned a non-finite value")
    return values


def integrate_unit(
    f: Callable,
    subdivisions: int = DEFAULT_SUBDIVISIONS,
    origin_levels: int = 0,
) -> float:
    """Composite Gauss-Legendre estimate of the integral of ``f`` over [0, 1].

    Deterministic for a fixed cell layout.  ``origin_levels`` enables the
    geometric refinement toward t = 0 used for integrands like t**rho with
    rho < 1, whose derivative blows up at the origin.
    """
    nodes, weights = composite_nodes(subdivisions, origin_levels)
    values = evaluate_on(f, nodes)
    return float(np.dot(weights, values))


@dataclass(frozen=True)
class Grid:
    """Uniform closed grid with both endpoints included."""

    lo: float
    hi: float
    count: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.count < 2:
            raise DomainError("grid needs at least 2 points")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.hi <= self.lo:
            raise DomainError("grid endpoints must be finite with hi > lo")
        pts = np.linspace(self.lo, self.hi, self.count)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.count - 1)


def unit_grid(count: int = DEFAULT_SUP_GRID_POINTS) -> Grid:
    return Grid(0.0, 1.0, count)
