"""Shape-blended Bernstein-Schurer basis on [0, 1].

The family interpolates between the classical Schurer basis and a
tridiagonally perturbed variant through a blending parameter ``lam``.
With ``M = m + q``, the weight attached to index ``i`` is

    p_i(y) = (1 - lam) * [ C(M-2, i)   * y**i     * (1-y)**(M-i-1)
                         + C(M-2, i-2) * y**(i-1) * (1-y)**(M-i) ]
           +      lam  *   C(M, i)     * y**i     * (1-y)**(M-i)

with the convention C(n, k) = 0 outside 0 <= k <= n.  Points y and the
weight lam both lie in [0, 1], where the weights are nonnegative and sum
to 1; anything else raises DomainError.

In terms of the Bernstein basis b_{n,k}(y) = C(n, k) y**k (1-y)**(n-k),

    p_i(y) = (1 - lam) * [(1-y) * b_{M-2,i} + y * b_{M-2,i-2}] + lam * b_{M,i},

which is how the rows are computed: one log-space Bernstein row of degree
M - 2 per point, lifted to degree M by degree elevation, so no binomial
coefficient is ever formed and every degree works.

Contracting the rows with per-index values (``contract``) moves the three
taps onto the values and sums each Bernstein row only over its Hoeffding
band, about 2 * 4.6 * sqrt(M) columns, which drops at most 2**-60 of its
mass; a point whose values make the dropped part visible in its sum takes
the whole row.  One call contracts any number of value columns with each
band row built once.  The dense rows (``basis_rows``) are the full-width
case of the same log-space builder, kept for the oracles and the tensor
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import BLOCK_CELLS

#: Basis degree must be at least this; the C(M-2, .) legs need M - 2 >= 0.
MIN_DEGREE = 2

#: Mass of a Bernstein row that :func:`band` may leave out, far below one
#: ulp of the row's unit sum.
BAND_EPSILON = 2.0 ** -60

#: Relative size of the last bit of a double; a band whose dropped part
#: could reach it in a point's sum makes :func:`contract` sum the whole row.
ROUNDING = 2.0 ** -53


@dataclass(frozen=True)
class BasisParams:
    """Parameters fixing one basis family.

    ``m`` is the approximation index, ``q`` the degree extension, and
    ``lam`` the blending weight in [0, 1].
    """

    m: int
    q: int = 0
    lam: float = 0.0

    def __post_init__(self):
        if self.m < MIN_DEGREE:
            raise DomainError(f"m must be >= {MIN_DEGREE}")
        if self.q < 0:
            raise DomainError("q must be >= 0")
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError("lam must lie in [0, 1]")

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

    Each weight is exp(log C(n, k) + k log y + (n-k) log(1-y)), so no
    factor overflows at any degree.  Rows at y = 0 and y = 1 are the exact
    unit vectors e_0 and e_n.  Points are checked as in :func:`basis_rows`.
    """
    return _bernstein_window(n, _checked_points(ys), 0, n + 1)


def _bernstein_window(n: int, arr: np.ndarray, start, width: int) -> np.ndarray:
    """Row j holds b_{n,k}(arr[j]) for k = start_j .. start_j + width - 1.

    ``start`` is 0 or one start per point in [0, 1].  Whole rows and the
    windows of :func:`band` are the only windows, so a point at 0 or 1 has
    its unit entry in the window's first or last column.
    """
    at_zero, at_one = arr == 0.0, arr == 1.0
    ends = at_zero | at_one
    y = np.where(ends, 0.5, arr)
    k = np.asarray(start, dtype=float)[..., None] + np.arange(width, dtype=float)
    rows = np.multiply(k, np.log(y[:, None]))
    # log1p(-y) skips rounding 1 - y.
    rows += np.multiply(n - k, np.log1p(-y[:, None]))
    logs = _log_binomials(n)
    rows += logs if width == n + 1 else _windows(logs, width)[start]
    np.exp(rows, out=rows)
    rows[ends] = 0.0
    rows[at_zero, 0] = 1.0
    rows[at_one, width - 1] = 1.0
    return rows


def band(n: int, ys) -> tuple[np.ndarray, int]:
    """(start, width) of the columns of b_n that carry the mass at each point.

    Hoeffding's inequality bounds the Bernstein tail at y in [0, 1]:
    sum_{|k - n y| >= t} b_{n,k}(y) <= 2 exp(-2 t**2 / n).  With
    t = ceil(sqrt(n ln(2 / BAND_EPSILON) / 2)) the band k = c - t - 1 ..
    c + t + 1 around c = rint(n y) keeps every k with |k - n y| < t, plus
    one column of slack for the rounding of n y, so it drops at most
    BAND_EPSILON of the row.  The width depends on n only, the start on
    the point only.
    """
    t = math.ceil(math.sqrt(n * math.log(2.0 / BAND_EPSILON) / 2.0))
    width = min(n + 1, 2 * t + 3)
    centre = np.rint(n * np.asarray(ys, dtype=float)).astype(np.intp)
    return np.minimum(np.maximum(centre - (t + 1), 0), n + 1 - width), width


def basis_rows(params: BasisParams, ys) -> np.ndarray:
    """Weight matrix with one basis row per evaluation point (len(ys) x (M+1)).

    With b = b_{M-2} the blended leg is (1-y) b_i + y b_{i-2}, and two degree
    elevations b_{n+1,k} = (1-y) b_{n,k} + y b_{n,k-1} turn b into
    b_{M,i} = (1-y)**2 b_i + 2y(1-y) b_{i-1} + y**2 b_{i-2}.  Blending the
    two legs gives p_i as three taps on b, each applied in place.

    A point that is not finite, or lies outside [0, 1], raises DomainError.
    """
    return _blended_rows(params, _checked_points(ys))


def contract(params: BasisParams, ys, values) -> np.ndarray:
    """sum_i p_i(y) * values[i] at every point, without forming the basis rows.

    An (M+1) x K ``values`` gives an N x K result, one column per column of
    values, and each point's band row is built once for all of them.

    The three taps of :func:`basis_rows` move onto the values:
    sum_i p_i v_i = tap_0 sum_k b_k v_k + tap_1 sum_k b_k v_{k+1}
    + tap_2 sum_k b_k v_{k+2} with b = b_{M-2}.  Each point sums b only
    over its :func:`band`.  The band drops at most BAND_EPSILON of b's
    mass, but steep values can weight that mass far above the kept part.
    Past the mode b falls away from the band, so no column outside it
    holds more than the band's edge column next to it; the edges bound the
    dropped mass, and with tap_0 + tap_1 + tap_2 <= 1 + lam (the taps are
    nonnegative and sum to 1) and the largest |value| of a column they
    bound the dropped part of its sum.  A point where that bound could
    reach the last bit of its banded sum sums its whole row for that
    column.  Each point's sums are row sums of its own, column by column,
    so its value is the same bit for bit whatever batch it arrives in and
    whatever other columns come along.  Points are checked as in
    :func:`basis_rows`.
    """
    arr = _checked_points(ys)
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or len(values) != params.degree + 1:
        raise ValueError(f"need {params.degree + 1} values, one per basis index")
    columns = np.atleast_2d(values.T)
    n = params.degree - 2
    out, tails = _tap_sums(params, arr, columns, *band(n, arr))
    scale = (1.0 + params.lam) * np.abs(columns).max(axis=1, keepdims=True)
    steep = ~(tails * scale <= ROUNDING * np.abs(out))
    if steep.any():
        rows = steep.any(axis=0)
        full = _tap_sums(params, arr[rows], columns, np.zeros(rows.sum(), np.intp), n + 1)[0]
        out[steep] = full[steep[:, rows]]
    return out[0] if values.ndim == 1 else out.T


def _windows(values: np.ndarray, width: int) -> np.ndarray:
    """Read-only view whose row s is values[s : s + width]."""
    shape = (len(values) - width + 1, width)
    return np.lib.stride_tricks.as_strided(values, shape, values.strides * 2, writeable=False)


def _checked_points(ys) -> np.ndarray:
    """Points as a float array; each must be finite and in [0, 1]."""
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    finite = np.isfinite(arr)
    if not finite.all():
        raise DomainError(f"evaluation point {float(arr[~finite][0])!r} is not finite")
    outside = (arr < 0.0) | (arr > 1.0)
    if outside.any():
        raise DomainError(f"evaluation point {float(arr[outside][0])!r} outside [0, 1]")
    return arr


def _taps(lam: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights of b_i, b_{i-1} and b_{i-2} in p_i."""
    one_minus = 1.0 - y
    return (
        one_minus * (1.0 - lam * y),
        2.0 * lam * y * one_minus,
        y * (1.0 - lam * one_minus),
    )


def _blended_rows(params: BasisParams, arr: np.ndarray) -> np.ndarray:
    M = params.degree
    low = _bernstein_window(M - 2, arr, 0, M - 1)
    rows = np.zeros((len(arr), M + 1))
    scratch = np.empty_like(low)
    for shift, tap in enumerate(_taps(params.lam, arr[:, None])):
        rows[:, shift : shift + M - 1] += np.multiply(low, tap, out=scratch)
    return rows


def _tap_sums(
    params: BasisParams, arr: np.ndarray, columns: np.ndarray, start: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Three shifted window sums per point and row of ``columns``, blended by the taps.

    Also returns each window's edge weights times the number of columns
    beyond them, which bounds the mass of b outside a :func:`band` (and is
    0 for whole rows).  Each block's rows of b serve
    every row of ``columns``; blocks of about BLOCK_CELLS window cells keep
    every temporary small, so the next block reuses its memory instead of
    faulting in fresh pages.
    """
    out, tails = np.empty((len(columns), len(arr))), np.empty(len(arr))
    n = params.degree - 2
    windows = [_windows(column, width + 2) for column in columns]
    step = max(1, BLOCK_CELLS // width)
    for lo in range(0, len(arr), step):
        block = slice(lo, lo + step)
        y, first = arr[block], start[block]
        low = _bernstein_window(n, y, first, width)
        t0, t1, t2 = _taps(params.lam, y)
        for sums, view in zip(out, windows):
            shifted = view[first]
            s0, s1, s2 = (
                np.einsum("ij,ij->i", low, shifted[:, shift : shift + width])
                for shift in range(3)
            )
            sums[block] = t0 * s0 + t1 * s1 + t2 * s2
        tails[block] = low[:, 0] * first + low[:, -1] * (n + 1 - width - first)
    return out, tails


def basis_row(params: BasisParams, y: float) -> np.ndarray:
    """All weights p_0(y), ..., p_M(y) as one vector."""
    return basis_rows(params, np.array([float(y)]))[0]
