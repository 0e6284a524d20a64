"""Grid estimates of moduli of continuity.

A modulus is estimated by sampling the function on a uniform grid and taking
the largest max-min range over every window of points whose span stays within
delta.  One kernel serves the univariate modulus and both partial moduli: it
finds every window's max and min along one axis by log-step doubling, so a
sweep costs O(n log window) vectorized work.  It runs stripe by stripe, sized
by the shared cell budget ``numerics.BLOCK_CELLS``: each stripe holds every
sample along the window axis and as many lines across it as fit, copied
contiguous, so the doubling temporaries stay in cache; a 1-D sample is a
single stripe.  A surface also keeps, from its build, each line's largest
jump between neighbours: no window of w samples on a line spans more than
w - 1 such jumps, so a query sweeps the line with the largest bound first
and then only the lines whose bound can still reach that line's range.  The
answer is the full sweep's float, since the lines left out cannot exceed it.
Grid estimates are lower bounds of the true modulus; callers that need a
guaranteed upper bound must pad by a Lipschitz-times-step term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .numerics import BLOCK_CELLS, DEFAULT_SUP_GRID_POINTS, evaluate_on

#: Per-axis sample count for bivariate partial moduli; 501**2 evaluations
#: keeps surface sampling cheap while resolving the window widths in use.
DEFAULT_SURFACE_POINTS = 501


def _window_length(delta: float, step: float) -> int:
    """Samples in the longest run of grid points whose span stays within delta."""
    if not math.isfinite(delta) or delta < 0.0:
        raise DomainError("delta must be finite and >= 0")
    if delta == 0.0:
        return 1
    return int(math.floor(delta / step + 1e-9)) + 1


def _check_finite(**bounds: float) -> None:
    for name, value in bounds.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")


def _stripe_range(stripe: np.ndarray, window: int) -> float:
    """Largest (max - min) over all runs of ``window`` consecutive rows of ``stripe``.

    Log-step doubling: each round leaves entry j holding the extreme of the
    ``span`` samples from j on, and two overlapping spans cover each window.
    """
    extremes = []
    # Max first, min second, so only one doubling pyramid is alive at a time.
    for pick in (np.maximum, np.minimum):
        run, span = stripe, 1
        while 2 * span <= window:
            run = pick(run[:-span], run[span:])
            span *= 2
        shift = window - span
        extremes.append(pick(run[: len(run) - shift], run[shift:]))
    high, low = extremes
    return (high - low).max()


def _max_window_range(values: np.ndarray, window: int, axis: int = 0) -> float:
    """Largest (max - min) over all runs of ``window`` consecutive samples along ``axis``.

    Each stripe takes as many whole lines along ``axis`` as fit in
    BLOCK_CELLS samples (at least one), and ``np.max`` of the stripes'
    ranges keeps a NaN sample's ``nan``.
    """
    length = values.shape[axis]
    window = min(window, length)
    if window <= 1:
        return 0.0
    lines = np.moveaxis(values, axis, 0).reshape(length, -1)
    width = max(1, BLOCK_CELLS // length)
    stripes = (
        np.ascontiguousarray(lines[:, lo : lo + width]) for lo in range(0, lines.shape[1], width)
    )
    return float(np.max([_stripe_range(stripe, window) for stripe in stripes]))


def _line_jumps(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest |difference of neighbours| on each line along axis 0 and along axis 1.

    Reads ``values`` in place, a block of rows of at most BLOCK_CELLS samples
    at a time plus the next block's first row, which pairs across the edge;
    every block's differences reuse one buffer.  A NaN sample makes the
    entries of both its lines nan.
    """
    rows, cols = values.shape
    jumps1 = np.zeros(cols)
    jumps2 = np.empty(rows)
    height = max(1, BLOCK_CELLS // cols)
    buffer = np.empty((height, cols))
    # A difference too large for a float is an inf jump, still a valid bound.
    with np.errstate(over="ignore"):
        for lo in range(0, rows, height):
            block = values[lo : lo + height + 1]
            down = buffer[: len(block) - 1]
            np.subtract(block[1:], block[:-1], out=down)
            np.maximum(jumps1, np.abs(down, out=down).max(axis=0, initial=0.0), out=jumps1)
            block = block[:height]
            right = buffer[: len(block), : cols - 1]
            np.subtract(block[:, 1:], block[:, :-1], out=right)
            jumps2[lo : lo + height] = np.abs(right, out=right).max(axis=1, initial=0.0)
    jumps1.setflags(write=False)
    jumps2.setflags(write=False)
    return jumps1, jumps2


def _pruned_range(values: np.ndarray, jumps: np.ndarray, window: int, axis: int) -> float:
    """``_max_window_range`` over only the lines whose jump bound reaches the best line's range.

    A run of w samples on a line whose largest jump is s spans at most
    (w - 1) * s; the factor 1 + 2**-50 covers the rounding of the jumps, the
    product and the kernel's subtraction.  A nan jump is never below the
    floor, so a NaN sample's line is always swept and still yields nan.
    """
    window = min(window, values.shape[axis])
    if window <= 1:
        return 0.0
    with np.errstate(over="ignore"):
        bounds = (window - 1) * jumps * (1.0 + 2.0 ** -50)
    across = 1 - axis
    floor = _max_window_range(np.take(values, [np.argmax(bounds)], axis=across), window, axis)
    keep = ~(bounds < floor)
    if keep.all():
        return _max_window_range(values, window, axis)
    return _max_window_range(np.compress(keep, values, axis=across), window, axis)


@dataclass(frozen=True)
class ModulusScan:
    """Sampled function values prepared for repeated modulus queries.

    Building the sample once and querying many deltas keeps each query at
    O(grid * log window) vectorized work, with no table stored between calls.
    """

    lo: float
    hi: float
    values: np.ndarray

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (len(self.values) - 1)

    def value_at(self, delta: float) -> float:
        """Estimated omega(f; delta) from the stored samples."""
        return _max_window_range(self.values, _window_length(delta, self.step))


def modulus_scan(
    f: Callable,
    lo: float = 0.0,
    hi: float = 1.0,
    count: int = DEFAULT_SUP_GRID_POINTS,
) -> ModulusScan:
    """Sample ``f`` uniformly on [lo, hi] for modulus queries."""
    if count < 2:
        raise DomainError("count must be >= 2")
    _check_finite(lo=lo, hi=hi)
    if hi <= lo:
        raise DomainError("hi must exceed lo")
    xs = np.linspace(lo, hi, count)
    values = evaluate_on(f, xs)
    values.setflags(write=False)
    return ModulusScan(lo=lo, hi=hi, values=values)


@dataclass(frozen=True)
class SurfaceModulus:
    """Sampled bivariate function prepared for partial-modulus queries.

    Build once per function and rectangle, then query many delta pairs; the
    sampling cost dominates and is paid a single time.  Construction also
    records each line's largest jump between neighbours: ``jumps1`` for the
    columns (along axis 0, which ``omega1`` sweeps) and ``jumps2`` for the
    rows, so a query skips the lines whose bound cannot reach its answer.
    ``values`` must not change after construction.
    """

    lo1: float
    hi1: float
    lo2: float
    hi2: float
    values: np.ndarray
    jumps1: np.ndarray = field(init=False, repr=False, compare=False)
    jumps2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        jumps1, jumps2 = _line_jumps(self.values)
        object.__setattr__(self, "jumps1", jumps1)
        object.__setattr__(self, "jumps2", jumps2)

    @property
    def step1(self) -> float:
        return (self.hi1 - self.lo1) / (self.values.shape[0] - 1)

    @property
    def step2(self) -> float:
        return (self.hi2 - self.lo2) / (self.values.shape[1] - 1)

    def omega1(self, delta: float) -> float:
        """Modulus in the first coordinate with the second frozen."""
        return _pruned_range(self.values, self.jumps1, _window_length(delta, self.step1), axis=0)

    def omega2(self, delta: float) -> float:
        """Modulus in the second coordinate with the first frozen."""
        return _pruned_range(self.values, self.jumps2, _window_length(delta, self.step2), axis=1)


def surface_modulus(
    g: Callable,
    lo1: float = 0.0,
    hi1: float = 1.0,
    lo2: float = 0.0,
    hi2: float = 1.0,
    count: int = DEFAULT_SURFACE_POINTS,
) -> SurfaceModulus:
    """Sample ``g`` on [lo1, hi1] x [lo2, hi2] for partial-modulus queries."""
    if count < 2:
        raise DomainError("count must be >= 2")
    _check_finite(lo1=lo1, hi1=hi1, lo2=lo2, hi2=hi2)
    if hi1 <= lo1 or hi2 <= lo2:
        raise DomainError("each hi must exceed its lo")
    xs, ys = np.linspace(lo1, hi1, count), np.linspace(lo2, hi2, count)
    values = evaluate_on(g, xs[:, None], ys[None, :])
    values.setflags(write=False)
    return SurfaceModulus(lo1=lo1, hi1=hi1, lo2=lo2, hi2=hi2, values=values)
