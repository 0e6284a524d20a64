"""The published closed-form moments, kept for the audit only.

The paper states closed forms for the raw moments e1, e2, the central
moments psi1, psi2 and their bivariate analogues.  They are transcribed
here verbatim, typos included: they drop the degree extension q, carry
inconsistent lower-order terms, and the bivariate e01, eta01 and eta02 rows
mix the first axis's parameters into the second coordinate.  No numeric
path reads them.  ``skl verify`` and ``skl moments`` set each one beside the
exact summation oracle of :mod:`.univariate` and report the gap.
"""

from __future__ import annotations

from .bivariate import BivariateConfig
from .univariate import OperatorConfig, oracle_central_moments, oracle_moments


# ``slope_n`` and ``slope_lam`` (default n and lam) stand in for the
# parameters in the numerator of the u coefficient, where the published
# bivariate e01, eta01 and eta02 rows carry the first axis's m1 and lam1.
def _closed_e1(
    n: float, lam: float, rho: float, u: float, slope_n=None, slope_lam=None
) -> float:
    slope_n = n if slope_n is None else slope_n
    slope_lam = lam if slope_lam is None else slope_lam
    return ((slope_n + 2.0 * (slope_lam - 1.0)) / (n + 1.0)) * u + (
        (lam + 1.0) * (rho + 1.0) + 1.0
    ) / (2.0 * (rho + 1.0) * (n + 1.0))


def _closed_e2_constant(n: float, lam: float, rho: float) -> float:
    return (
        2.0 * n * (2.0 * rho + 1.0)
        + (lam + 1.0) * (2.0 * rho + 1.0) * ((lam + 2.0) * (rho + 1.0) + 2.0)
        + rho
        + 1.0
    ) / ((2.0 * rho + 1.0) * (rho + 1.0) * (n + 1.0) ** 2)


def _closed_e2(n: float, lam: float, rho: float, u: float) -> float:
    return (
        (1.0 + (4.0 * lam - 3.0) / n) * (n * n * u * u) / ((n + 1.0) ** 2)
        + (
            (rho + 1.0) * (n * (2.0 * lam + 3.0) + (lam - 1.0) * (2.0 * lam + 7.0))
            + 4.0 * (lam - 1.0)
        )
        / ((rho + 1.0) * (n + 1.0) ** 2)
        * u
        + _closed_e2_constant(n, lam, rho)
    )


def _closed_psi1(n: float, lam: float, rho: float, u: float, slope_lam=None) -> float:
    slope_lam = lam if slope_lam is None else slope_lam
    return ((2.0 * slope_lam - 3.0) / (n + 1.0)) * u + (
        (lam + 1.0) * (rho + 1.0) + 1.0
    ) / ((rho + 1.0) * (n + 1.0))


def _closed_psi2(n: float, lam: float, rho: float, u: float, slope_n=None) -> float:
    slope_n = n if slope_n is None else slope_n
    return (
        (
            (1.0 + (4.0 * lam - 3.0) / n) * (n * n) / ((n + 1.0) ** 2)
            - (2.0 * n + 4.0 * lam - 1.0) / (n + 1.0)
            + 1.0
        )
        * u
        * u
        + (
            (rho + 1.0)
            * (
                slope_n * (2.0 * lam + 3.0)
                + (lam - 1.0) * (2.0 * lam + 7.0)
                - 2.0 * (lam + 1.0)
            )
            + lam
            - 6.0
        )
        / ((rho + 1.0) * (n + 1.0) ** 2)
        * u
        + _closed_e2_constant(n, lam, rho)
    )


def uni_moment_rows(
    config: OperatorConfig, u: float
) -> dict[str, dict[str, tuple[float, float]]]:
    """{family: {row: (closed, oracle)}} for the univariate moments at u."""
    n, lam, rho = float(config.m), config.lam, config.rho
    e0, e1, e2 = oracle_moments(config, u)
    psi1, psi2 = oracle_central_moments(config, u)
    return {
        "uni-raw": {
            "e0": (1.0, e0),
            "e1": (_closed_e1(n, lam, rho, u), e1),
            "e2": (_closed_e2(n, lam, rho, u), e2),
        },
        "uni-central": {
            "psi1": (_closed_psi1(n, lam, rho, u), psi1),
            "psi2": (_closed_psi2(n, lam, rho, u), psi2),
        },
    }


def bi_moment_rows(
    config: BivariateConfig, y1: float, y2: float
) -> dict[str, dict[str, tuple[float, float]]]:
    """{family: {row: (closed, oracle)}} for the product moments at (y1, y2).

    The oracle factors through the axes: e11 = e10 * e01 and
    eta11 = eta10 * eta01.
    """
    c1, c2 = config.axis1, config.axis2
    m1, m2 = float(config.m1), float(config.m2)
    lam1, lam2 = config.lam1, config.lam2
    rho = config.rho
    oe00_1, oe10, oe20 = oracle_moments(c1, y1)
    oe00_2, oe01, oe02 = oracle_moments(c2, y2)
    opsi1_1, opsi2_1 = oracle_central_moments(c1, y1)
    opsi1_2, opsi2_2 = oracle_central_moments(c2, y2)
    closed_e10 = _closed_e1(m1, lam1, rho, y1)
    closed_eta10 = _closed_psi1(m1, lam1, rho, y1)
    closed_eta01 = _closed_psi1(m2, lam2, rho, y2, slope_lam=lam1)
    return {
        "bi-raw": {
            "e00": (1.0, oe00_1 * oe00_2),
            "e10": (closed_e10, oe10),
            "e01": (_closed_e1(m2, lam2, rho, y2, slope_n=m1, slope_lam=lam1), oe01),
            "e11": (closed_e10 * _closed_e1(m2, lam2, rho, y2), oe10 * oe01),
            "e20": (_closed_e2(m1, lam1, rho, y1), oe20),
            "e02": (_closed_e2(m2, lam2, rho, y2), oe02),
        },
        "bi-central": {
            "eta10": (closed_eta10, opsi1_1),
            "eta01": (closed_eta01, opsi1_2),
            "eta11": (closed_eta10 * closed_eta01, opsi1_1 * opsi1_2),
            "eta20": (_closed_psi2(m1, lam1, rho, y1), opsi2_1),
            "eta02": (_closed_psi2(m2, lam2, rho, y2, slope_n=m1), opsi2_2),
        },
    }
