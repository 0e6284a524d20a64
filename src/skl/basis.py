"""Shape-blended Bernstein-Schurer basis on [0, 1].

The family interpolates between the classical Schurer basis and a
tridiagonally perturbed variant through a blending parameter ``lam``.
With ``M = m + q``, the weight attached to index ``i`` is

    p_i(y) = (1 - lam) * [ C(M-2, i)   * y**i     * (1-y)**(M-i-1)
                         + C(M-2, i-2) * y**(i-1) * (1-y)**(M-i) ]
           +      lam  *   C(M, i)     * y**i     * (1-y)**(M-i)

with the convention C(n, k) = 0 outside 0 <= k <= n.  The weights are
nonnegative for lam in [0, 1] and sum to 1 at every y in [0, 1].

In terms of the Bernstein basis b_{n,k}(y) = C(n, k) y**k (1-y)**(n-k),

    p_i(y) = (1 - lam) * [(1-y) * b_{M-2,i} + y * b_{M-2,i-2}] + lam * b_{M,i},

which is how the rows are computed: one log-space Bernstein row of degree
M - 2 per point, lifted to degree M by degree elevation, so no binomial
coefficient is ever formed and every degree works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

#: Basis degree must be at least this; the C(M-2, .) legs need M - 2 >= 0.
MIN_DEGREE = 2


@dataclass(frozen=True)
class BasisParams:
    """Parameters fixing one basis family.

    ``m`` is the approximation index, ``q`` the degree extension, and
    ``lam`` the blending weight.  ``unchecked`` skips the domain guards on
    ``lam`` (and downstream on evaluation points) for exploratory use.
    """

    m: int
    q: int = 0
    lam: float = 0.0
    unchecked: bool = False

    def __post_init__(self):
        if self.m < MIN_DEGREE:
            raise DomainError(f"m must be >= {MIN_DEGREE}")
        if self.q < 0:
            raise DomainError("q must be >= 0")
        if not math.isfinite(self.lam):
            raise DomainError("lam must be finite")
        if not self.unchecked and not 0.0 <= self.lam <= 1.0:
            raise DomainError("lam must lie in [0, 1]; pass unchecked=True to override")

    @property
    def degree(self) -> int:
        return self.m + self.q


@lru_cache(maxsize=256)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, taken from the exact integers."""
    logs = np.empty(n + 1)
    c = 1
    for k in range(n + 1):
        logs[k] = math.log(c)
        c = c * (n - k) // (k + 1)
    logs.setflags(write=False)
    return logs


def bernstein_rows(n: int, ys) -> np.ndarray:
    """Bernstein weights b_{n,k}(y) = C(n, k) y**k (1-y)**(n-k), one row per point.

    Each weight is exp(log C(n, k) + k log|y| + (n-k) log|1-y|), so no
    factor overflows at any degree.  Rows at y = 0 and y = 1 are the exact
    unit vectors e_0 and e_n; points outside [0, 1] get the sign of
    y**k (1-y)**(n-k) multiplied back in.
    """
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    at_zero, at_one = arr == 0.0, arr == 1.0
    ends = at_zero | at_one
    y = np.where(ends, 0.5, arr)[:, None]
    k = np.arange(n + 1)
    rows = np.multiply(k, np.log(np.abs(y)))
    # log1p(-y) skips rounding 1 - y; past y = 1, 2 - y mirrors the point
    # so the logarithm is still that of |1 - y|.
    rows += np.multiply(n - k, np.log1p(-np.minimum(y, 2.0 - y)))
    rows += _log_binomials(n)
    np.exp(rows, out=rows)
    rows[arr < 0.0] *= np.where(k % 2, -1.0, 1.0)
    rows[arr > 1.0] *= np.where((n - k) % 2, -1.0, 1.0)
    rows[ends] = 0.0
    rows[at_zero, 0] = 1.0
    rows[at_one, n] = 1.0
    return rows


def basis_rows(params: BasisParams, ys) -> np.ndarray:
    """Weight matrix with one basis row per evaluation point (len(ys) x (M+1)).

    With b = b_{M-2} the blended leg is (1-y) b_i + y b_{i-2}, and two degree
    elevations b_{n+1,k} = (1-y) b_{n,k} + y b_{n,k-1} turn b into
    b_{M,i} = (1-y)**2 b_i + 2y(1-y) b_{i-1} + y**2 b_{i-2}.  Blending the
    two legs gives p_i as three taps on b, each applied in place.
    """
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    outside = ~((arr >= 0.0) & (arr <= 1.0))
    if not params.unchecked and outside.any():
        raise DomainError(f"evaluation point {float(arr[outside][0])!r} outside [0, 1]")
    M, lam = params.degree, params.lam
    low = bernstein_rows(M - 2, arr)
    y = arr[:, None]
    one_minus = 1.0 - y
    taps = (
        one_minus * (1.0 - lam * y),
        2.0 * lam * y * one_minus,
        y * (1.0 - lam * one_minus),
    )
    rows = np.zeros((len(arr), M + 1))
    scratch = np.empty_like(low)
    for shift, tap in enumerate(taps):
        rows[:, shift : shift + M - 1] += np.multiply(low, tap, out=scratch)
    return rows


def basis_row(params: BasisParams, y: float) -> np.ndarray:
    """All weights p_0(y), ..., p_M(y) as one vector."""
    return basis_rows(params, np.array([float(y)]))[0]
