"""Exact references for the benchmark's correctness checks.

Everything here is computed from the operator's definition with numpy and
the standard library only; nothing calls into ``skl``, so an optimisation of
the package cannot move its own reference.

* Basis rows come from log-space Bernstein weights with exact endpoints,
  using p_i = (1-lam)[(1-y) b_{M-2,i} + y b_{M-2,i-2}] + lam b_{M,i}.
* Window integrals of polynomial targets are summed termwise from the
  binomial expansion of ((i + t^rho)/(m+1))^k; the Runge target
  1/(1+25 y^2) at rho = 1 integrates in closed form through an arctangent
  difference.
* Moduli of continuity are evaluated with a range-max/min sparse table over
  the same uniform sample grid the package uses.
"""

from __future__ import annotations

import math

import numpy as np

#: Sample counts and window rule of the package's grid moduli.  They define
#: what a printed bound means, so the reference repeats them.
SCAN_POINTS = 10_001
SURFACE_POINTS = 501
WINDOW_EPS = 1e-9

#: Points per block of basis rows the references build at once.
ROW_CHUNK = 64

RUNGE = "1/(1+25*y^2)"


# ---------------------------------------------------------------------------
# targets


class Poly:
    """Univariate polynomial sum_k coeffs[k] * y^k with its expression string."""

    def __init__(self, coeffs, text: str):
        self.coeffs = tuple(float(c) for c in coeffs)
        self.text = text

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for c in reversed(self.coeffs):
            out = out * y + c
        return out


class BiPoly:
    """Bivariate polynomial {(a, b): c} meaning sum c * y1^a * y2^b."""

    def __init__(self, terms: dict, text: str):
        self.terms = {k: float(v) for k, v in terms.items()}
        self.text = text

    def __call__(self, y1, y2):
        return sum(c * np.power(y1, a) * np.power(y2, b) for (a, b), c in self.terms.items())


TABLE1_POLY = Poly((2, 6, -5, 1), "y^3 - 5*y^2 + 6*y + 2")
CUBE_SUM = BiPoly({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}, "(y1 + y2)^3")
FIG3 = BiPoly({(3, 2): 1}, "fig3-poly")


# ---------------------------------------------------------------------------
# basis and window integrals


def _bernstein(n: int, ys: np.ndarray) -> np.ndarray:
    """b_{n,k}(y) for k = 0..n, one row per point, exact at y in {0, 1}."""
    k = np.arange(n + 1)
    logc = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in k])
    y = ys[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(k == 0, 0.0, k * np.log(y))
        b = np.where(k == n, 0.0, (n - k) * np.log1p(-y))
    return np.exp(logc + a + b)


def basis(m: int, q: int, lam: float, ys) -> np.ndarray:
    """Blended basis rows p_0..p_M for every point, shape (len(ys), M + 1)."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    M = m + q
    outer = _bernstein(M - 2, ys)
    rows = np.zeros((len(ys), M + 1))
    rows[:, : M - 1] += (1.0 - ys)[:, None] * outer
    rows[:, 2:] += ys[:, None] * outer
    rows *= 1.0 - lam
    rows += lam * _bernstein(M, ys)
    return rows


def apply_rows(m: int, q: int, lam: float, ys, windows: np.ndarray) -> np.ndarray:
    """basis(m, q, lam, ys) @ windows, built ``ROW_CHUNK`` points at a time.

    Small chunks keep the reference's memory far below the package's own,
    so the measured peak resident memory is the package's.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    parts = [basis(m, q, lam, ys[i : i + ROW_CHUNK]) @ windows for i in range(0, len(ys), ROW_CHUNK)]
    return np.concatenate(parts)


def monomial_windows(m: int, q: int, rho: float, k: int) -> np.ndarray:
    """integral_0^1 ((i + t^rho)/(m+1))^k dt for i = 0..M, termwise exact.

    Every term of the binomial expansion is nonnegative, so the float sum
    carries only a few ulps of rounding.
    """
    i = np.arange(m + q + 1, dtype=float)
    total = np.zeros_like(i)
    for j in range(k + 1):
        total += math.comb(k, j) * i ** (k - j) / (rho * j + 1.0)
    return total / float(m + 1) ** k


def poly_windows(m: int, q: int, rho: float, poly: Poly) -> np.ndarray:
    total = np.zeros(m + q + 1)
    for k, c in enumerate(poly.coeffs):
        if c:
            total += c * monomial_windows(m, q, rho, k)
    return total


def runge_windows(m: int, q: int) -> np.ndarray:
    """Windows of 1/(1+25 y^2) at rho = 1: (m+1)/5 * [atan 5y] over [i, i+1]/(m+1)."""
    i = np.arange(m + q + 1, dtype=float)
    h = 5.0 / (m + 1)
    # atan(b) - atan(a) = atan((b - a)/(1 + ab)) for ab > -1, free of cancellation.
    return np.arctan(h / (1.0 + (h * i) * (h * (i + 1.0)))) / h


def operator(m, q, lam, rho, target, ys) -> np.ndarray:
    """K(f; y) for a Poly target at any rho or the Runge target at rho = 1."""
    if isinstance(target, Poly):
        windows = poly_windows(m, q, rho, target)
    elif target == RUNGE and rho == 1.0:
        windows = runge_windows(m, q)
    else:
        raise ValueError(f"no exact reference for {target!r} at rho={rho}")
    return apply_rows(m, q, lam, ys, windows)


def monomials(m, q, lam, rho, ys, kmax: int) -> np.ndarray:
    """K(e_k; y) for k = 0..kmax, shape (kmax + 1, len(ys))."""
    windows = np.column_stack([monomial_windows(m, q, rho, k) for k in range(kmax + 1)])
    return apply_rows(m, q, lam, ys, windows).T


def bi_operator(axis1, axis2, target: BiPoly, y1s, y2s) -> np.ndarray:
    """Tensor operator on y1s x y2s; axis = (m, q, lam, rho) per coordinate."""
    kmax = max(max(a, b) for a, b in target.terms)
    k1 = monomials(*axis1, y1s, kmax)
    k2 = monomials(*axis2, y2s, kmax)
    return sum(c * np.outer(k1[a], k2[b]) for (a, b), c in target.terms.items())


def central(m, q, lam, rho, u: float) -> tuple[float, float]:
    """(psi1, psi2) = K(s - u; u), K((s - u)^2; u) with exact window integrals."""
    row = basis(m, q, lam, [u])[0]
    B = 1.0 / (m + 1)
    A = np.arange(m + q + 1) * B - u
    first = A + B / (rho + 1.0)
    second = A * A + 2.0 * A * (B / (rho + 1.0)) + B * B / (2.0 * rho + 1.0)
    return math.fsum(row * first), math.fsum(row * second)


def delta(m, q, lam, rho, u: float) -> float:
    return math.sqrt(max(central(m, q, lam, rho, u)[1], 0.0))


def sample_hi(m: int, q: int) -> float:
    return (m + q + 1) / (m + 1)


# ---------------------------------------------------------------------------
# published closed forms, transcribed verbatim (typos included)


def closed_moments(m: int, lam: float, rho: float, u: float) -> dict[str, float]:
    n = float(m)
    const = (
        2.0 * n * (2.0 * rho + 1.0)
        + (lam + 1.0) * (2.0 * rho + 1.0) * ((lam + 2.0) * (rho + 1.0) + 2.0)
        + rho
        + 1.0
    ) / ((2.0 * rho + 1.0) * (rho + 1.0) * (n + 1.0) ** 2)
    e1 = ((n + 2.0 * (lam - 1.0)) / (n + 1.0)) * u + ((lam + 1.0) * (rho + 1.0) + 1.0) / (
        2.0 * (rho + 1.0) * (n + 1.0)
    )
    e2 = (
        (1.0 + (4.0 * lam - 3.0) / n) * (n * n * u * u) / ((n + 1.0) ** 2)
        + ((rho + 1.0) * (n * (2.0 * lam + 3.0) + (lam - 1.0) * (2.0 * lam + 7.0)) + 4.0 * (lam - 1.0))
        / ((rho + 1.0) * (n + 1.0) ** 2)
        * u
        + const
    )
    psi1 = ((2.0 * lam - 3.0) / (n + 1.0)) * u + ((lam + 1.0) * (rho + 1.0) + 1.0) / (
        (rho + 1.0) * (n + 1.0)
    )
    psi2 = (
        ((1.0 + (4.0 * lam - 3.0) / n) * (n * n) / ((n + 1.0) ** 2) - (2.0 * n + 4.0 * lam - 1.0) / (n + 1.0) + 1.0)
        * u
        * u
        + (
            (rho + 1.0) * (n * (2.0 * lam + 3.0) + (lam - 1.0) * (2.0 * lam + 7.0) - 2.0 * (lam + 1.0))
            + lam
            - 6.0
        )
        / ((rho + 1.0) * (n + 1.0) ** 2)
        * u
        + const
    )
    return {"e0": 1.0, "e1": e1, "e2": e2, "psi1": psi1, "psi2": psi2}


# ---------------------------------------------------------------------------
# grid moduli


def window_length(delta: float, step: float) -> int:
    """Samples in a window of width delta, by the package's grid rule."""
    if delta == 0.0:
        return 1
    return int(math.floor(delta / step + WINDOW_EPS)) + 1


def max_window_range(values: np.ndarray, window: int, axis: int = 0) -> float:
    """Largest max - min over runs of ``window`` consecutive samples along ``axis``."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    if v.ndim == 1:
        return _window_range(v, window)
    # Blocks of columns keep the sparse tables small (see ``apply_rows``).
    return max(_window_range(v[:, j : j + ROW_CHUNK], window) for j in range(0, v.shape[1], ROW_CHUNK))


def _window_range(v: np.ndarray, window: int) -> float:
    n = v.shape[0]
    if window <= 1:
        return 0.0
    if window >= n:
        return float((v.max(axis=0) - v.min(axis=0)).max())
    hi, lo = v, v
    span = 1
    while 2 * span <= window:
        hi = np.maximum(hi[:-span], hi[span:])
        lo = np.minimum(lo[:-span], lo[span:])
        span *= 2
    shift = window - span
    starts = n - window + 1
    top = np.maximum(hi[:starts], hi[shift : shift + starts])
    bottom = np.minimum(lo[:starts], lo[shift : shift + starts])
    return float((top - bottom).max())


def scan_modulus(f, hi: float, delta_value: float) -> float:
    """omega(f; delta) on the package's 10 001-point grid over [0, hi]."""
    values = f(np.linspace(0.0, hi, SCAN_POINTS))
    return max_window_range(values, window_length(delta_value, hi / (SCAN_POINTS - 1)))


class Surface:
    """A sampled bivariate target for partial-modulus references."""

    def __init__(self, g, hi1: float, hi2: float, count: int = SURFACE_POINTS):
        x = np.linspace(0.0, hi1, count)[:, None]
        y = np.linspace(0.0, hi2, count)[None, :]
        self.values = g(x, y)
        self.step1 = hi1 / (count - 1)
        self.step2 = hi2 / (count - 1)

    def omega1(self, d: float) -> float:
        return max_window_range(self.values, window_length(d, self.step1), axis=0)

    def omega2(self, d: float) -> float:
        return max_window_range(self.values, window_length(d, self.step2), axis=1)
