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

#: Node counts of the doubling Gauss-Jacobi ladder.  Each consecutive pair's
#: gap estimates the error of its larger rule, which supplies a window's
#: integral at the first pair whose gap is within
#: JACOBI_TOLERANCE * max(1, |integral|).  An n-node rule is exact for
#: degree 2n - 1, so a polynomial target of degree <= 15 stops at 8/16.
JACOBI_ORDERS = (8, 16, 32, 64)
JACOBI_TOLERANCE = 1e-11

#: Composite quadrature defaults: 32-node Gauss-Legendre cells over 8 uniform
#: subdivisions of [0, 1].  The composite rule is the fallback for windows
#: the Gauss-Jacobi ladder cannot resolve (targets not smooth inside a window).
DEFAULT_QUADRATURE_ORDER = 32
DEFAULT_SUBDIVISIONS = 8

#: Number of geometric bisection levels applied to the first subdivision when
#: the integrand has an algebraic endpoint singularity at t = 0 (exponents
#: below 1).  Calibrated so that t**0.1 integrates to ~1e-11 absolute error at
#: the default subdivision count.
SINGULAR_ORIGIN_LEVELS = 16

#: Default number of points for sup-norm and modulus grids.
DEFAULT_SUP_GRID_POINTS = 10_001

#: Cells per block of a blocked kernel (256 kB of float64): the band blocks
#: of ``basis.contract`` and the grid stripes of the modulus window kernel.
#: Temporaries this small stay in cache, and the next block reuses their
#: memory instead of faulting in fresh pages.
BLOCK_CELLS = 1 << 15


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
    x, w = np.polynomial.legendre.leggauss(DEFAULT_QUADRATURE_ORDER)
    base_nodes = 0.5 * (x + 1.0)
    base_weights = 0.5 * w
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
    2n - 1; beta > -1.  A beta so large that the recurrence overflows, or so
    close to -1 that 2 + beta rounds to 1, raises DomainError.
    """
    if n < 1:
        raise DomainError("quadrature order must be positive")
    if not beta > -1.0:
        raise DomainError("Jacobi exponent beta must exceed -1")
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # The general term beta**2 / ((2k + beta)(2k + beta + 2)) is 0/0 at
        # k = 0, beta = 0; its limit for every beta is beta / (beta + 2).
        diag[0] = beta / (beta + 2.0)
        diag[1:] = beta * beta / (s * (s + 2.0))
        off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise DomainError(f"no finite {n}-node Jacobi rule for beta = {beta!r}")
    eigenvalues, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    nodes = 0.5 * (eigenvalues + 1.0)
    weights = vectors[0] ** 2
    weights /= weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _window_estimate(
    integrate: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    rho: float,
    count: int,
) -> np.ndarray:
    """Integrals of f(t**rho) over t in [0, 1] for ``count`` entries.

    With x = t**rho the integral is a Jacobi-weighted one with
    beta = 1/rho - 1.  ``integrate(nodes, weights, entries)`` applies one
    rule in x to the entries whose indices are in ``entries`` and returns
    one value per entry.  The rules of JACOBI_ORDERS are tried in
    consecutive pairs: an entry keeps the larger rule's value at the first
    pair whose gap is within JACOBI_TOLERANCE * max(1, |value|), and only
    the entries still rejected go on to the next rule, which is built only
    then.  Entries that the last pair rejects take ``_fallback_window_rule``.
    An entry's value depends only on itself, never on which other entries
    climbed.  A rho for which no rule exists raises DomainError naming rho.
    """
    beta = 1.0 / rho - 1.0

    def rule(n: int) -> tuple[np.ndarray, np.ndarray]:
        try:
            return jacobi_rule(n, beta)
        except DomainError:
            raise DomainError(f"rho = {rho!r} is too extreme for the window quadrature") from None

    entries = np.arange(count)
    previous = integrate(*rule(JACOBI_ORDERS[0]), entries)
    integrals = np.empty(count)
    for n in JACOBI_ORDERS[1:]:
        current = integrate(*rule(n), entries)
        rejected = np.abs(previous - current) > JACOBI_TOLERANCE * np.maximum(1.0, np.abs(current))
        integrals[entries[~rejected]] = current[~rejected]
        entries, previous = entries[rejected], current[rejected]
        if not entries.size:
            return integrals
    integrals[entries] = integrate(*_fallback_window_rule(rho), entries)
    return integrals


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
