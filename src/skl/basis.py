"""Shape-blended Bernstein-Schurer basis on [0, 1].

The family interpolates between the classical Schurer basis and a
tridiagonally perturbed variant through a blending parameter ``lam``.
With ``M = m + q``, the weight attached to index ``i`` is

    p_i(y) = (1 - lam) * [ C(M-2, i)   * y**i     * (1-y)**(M-i-1)
                         + C(M-2, i-2) * y**(i-1) * (1-y)**(M-i) ]
           +      lam  *   C(M, i)     * y**i     * (1-y)**(M-i)

with the convention C(n, k) = 0 outside 0 <= k <= n.  The weights are
nonnegative for lam in [0, 1] and sum to 1 at every y in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import DEFAULT_BINOMIALS

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

    def require_point(self, y: float) -> None:
        """Reject evaluation points outside [0, 1] unless unchecked."""
        if not math.isfinite(y):
            raise DomainError("evaluation point must be finite")
        if not self.unchecked and not 0.0 <= y <= 1.0:
            raise DomainError("evaluation point must lie in [0, 1]; pass unchecked=True to override")


@lru_cache(maxsize=256)
def _coefficient_rows(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomial coefficient vectors (c1, c2, c3) for indices 0..degree.

    c1[i] = C(M-2, i), c2[i] = C(M-2, i-2), c3[i] = C(M, i); out-of-range
    entries are 0.
    """
    M = degree
    idx = np.arange(M + 1)
    c1 = np.array([DEFAULT_BINOMIALS.value(M - 2, i) for i in idx])
    c2 = np.array([DEFAULT_BINOMIALS.value(M - 2, i - 2) for i in idx])
    c3 = np.array([DEFAULT_BINOMIALS.value(M, i) for i in idx])
    for arr in (c1, c2, c3):
        arr.setflags(write=False)
    return c1, c2, c3


def basis_weight(params: BasisParams, i: int, y: float) -> float:
    """Single basis weight p_i(y).

    Scalar path kept separate from the vectorized row for clarity; both
    agree to machine precision.
    """
    M = params.degree
    if i < 0 or i > M:
        raise DomainError(f"basis index must lie in 0..{M}")
    params.require_point(y)
    one_minus = 1.0 - y
    c = DEFAULT_BINOMIALS
    term1 = c.value(M - 2, i) * _pow(y, i) * _pow(one_minus, M - i - 1)
    term2 = c.value(M - 2, i - 2) * _pow(y, i - 1) * _pow(one_minus, M - i)
    term3 = c.value(M, i) * _pow(y, i) * _pow(one_minus, M - i)
    return (1.0 - params.lam) * (term1 + term2) + params.lam * term3


def _pow(base: float, exponent: int) -> float:
    """base**exponent treating negative exponents as vacuous (coefficient 0)."""
    if exponent < 0:
        return 0.0
    return base ** exponent


def _masked_powers(base: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """base**exponents with negative exponents mapped to 0.

    ``base`` has shape (n, 1) and ``exponents`` (M+1,); the result
    broadcasts to (n, M+1).
    """
    valid = exponents >= 0
    safe = np.where(valid, exponents, 0).astype(float)
    return np.where(valid, np.power(base, safe), 0.0)


def basis_rows(params: BasisParams, ys) -> np.ndarray:
    """Weight matrix with one basis row per evaluation point (len(ys) x (M+1)).

    Powers with negative exponents only ever multiply zero coefficients, so
    they are masked to 0 before the products are formed.
    """
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    outside = ~((arr >= 0.0) & (arr <= 1.0))
    if not params.unchecked and outside.any():
        raise DomainError(f"evaluation point {float(arr[outside][0])!r} outside [0, 1]")
    M = params.degree
    c1, c2, c3 = _coefficient_rows(M)
    idx = np.arange(M + 1)
    y = arr[:, None]
    one_minus = 1.0 - y

    y_i = _masked_powers(y, idx)
    y_im1 = _masked_powers(y, idx - 1)
    om_Mi = _masked_powers(one_minus, M - idx)
    om_Mim1 = _masked_powers(one_minus, M - idx - 1)

    blended = c1 * y_i * om_Mim1 + c2 * y_im1 * om_Mi
    plain = c3 * y_i * om_Mi
    return (1.0 - params.lam) * blended + params.lam * plain


def basis_row(params: BasisParams, y: float) -> np.ndarray:
    """All weights p_0(y), ..., p_M(y) as one vector."""
    return basis_rows(params, np.array([float(y)]))[0]
