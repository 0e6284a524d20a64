"""Shared fixtures and exact rational reference implementations.

The helpers below recompute basis weights and Kantorovich moments in
Fraction arithmetic, fully independent of the package's float pipeline.
Tests freeze decimal literals produced by these helpers and also call them
directly for randomized cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(914207)


def _comb(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _pow(base: Fraction, exponent: int) -> Fraction:
    return base ** exponent if exponent >= 0 else Fraction(0)


def exact_weight(m: int, q: int, lam: Fraction, i: int, y: Fraction) -> Fraction:
    """Blended basis weight p_i(y) in exact rational arithmetic."""
    M = m + q
    one = 1 - y
    blended = _comb(M - 2, i) * _pow(y, i) * _pow(one, M - i - 1) + _comb(
        M - 2, i - 2
    ) * _pow(y, i - 1) * _pow(one, M - i)
    plain = _comb(M, i) * _pow(y, i) * _pow(one, M - i)
    return (1 - lam) * blended + lam * plain


def exact_contraction(m: int, q: int, lam: Fraction, y: Fraction, values) -> Fraction:
    """sum_i p_i(y) * values[i] exactly, with p_i as in :func:`exact_weight`.

    With y = a/d every term of exact_weight is an integer over d**M, so the
    two legs are summed over integers sharing their powers and binomial
    coefficients, which keeps a degree in the thousands fast.
    """
    M = m + q
    a, d = y.numerator, y.denominator
    b = d - a
    pa, pb = [1], [1]
    for _ in range(M):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    low, high = _binomial_row(M - 2), _binomial_row(M)
    blended = plain = Fraction(0)
    for i, value in enumerate(values):
        leg = 0
        if i <= M - 2:
            leg += low[i] * pa[i] * pb[M - i - 1] * d
        if i >= 2:
            leg += low[i - 2] * pa[i - 1] * pb[M - i] * d
        blended += leg * Fraction(value)
        plain += high[i] * pa[i] * pb[M - i] * Fraction(value)
    return ((1 - lam) * blended + lam * plain) / d ** M


def _binomial_row(n: int) -> list[int]:
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def exact_window_integral(m: int, rho: Fraction, i: int, k: int) -> Fraction:
    """integral_0^1 ((i + t^rho)/(m+1))^k dt for rational rho."""
    return Fraction(1, (m + 1) ** k) * sum(
        Fraction(_comb(k, j)) * Fraction(i) ** (k - j) / (rho * j + 1)
        for j in range(k + 1)
    )


def exact_moment(
    m: int, q: int, lam: Fraction, rho: Fraction, u: Fraction, k: int
) -> Fraction:
    """K(e_k; u) in exact rational arithmetic."""
    return sum(
        exact_weight(m, q, lam, i, u) * exact_window_integral(m, rho, i, k)
        for i in range(m + q + 1)
    )


def assert_same_text(got: str, want: str) -> None:
    """Fail with the first differing character of two texts.  pytest's own
    diff of texts as long as a rendered figure takes minutes."""
    if got != want:
        pairs = enumerate(zip(got, want))
        at = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        lo = max(at - 40, 0)
        pytest.fail(f"texts differ at char {at}: {got[lo:at + 40]!r} != {want[lo:at + 40]!r}")
