import numpy as np
import pytest

from skl.errors import DomainError
from skl.functions import resolve_function
from skl.modulus import ModulusScan, SurfaceModulus, modulus_scan, surface_modulus
from skl.numerics import BLOCK_CELLS, evaluate_on

#: omega(u^2; 0.1) on [0,1] is exactly 2*0.1 - 0.1^2.
OMEGA_SQUARE_TENTH = 0.19


def brute_window_range(values, window):
    n = len(values)
    if window >= n:
        return float(values.max() - values.min())
    best = 0.0
    for start in range(n - window + 1):
        chunk = values[start : start + window]
        best = max(best, float(chunk.max() - chunk.min()))
    return best


def brute_line_range(values, window, axis):
    """Largest max - min over every window of every line along ``axis``."""
    runs = np.lib.stride_tricks.sliding_window_view(
        values, min(window, values.shape[axis]), axis=axis
    )
    return float((runs.max(axis=-1) - runs.min(axis=-1)).max())


def test_square_modulus_anchor():
    value = modulus_scan(lambda u: u * u).value_at(0.1)
    assert value <= OMEGA_SQUARE_TENTH + 1e-12  # grid estimate is a lower bound
    assert value == pytest.approx(OMEGA_SQUARE_TENTH, abs=2e-4)


def test_modulus_monotone_in_delta():
    scan = modulus_scan(lambda u: np.sin(5.0 * u), 0.0, 1.0, count=2001)
    values = [scan.value_at(d) for d in (0.01, 0.05, 0.1, 0.3, 0.7, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_scan_matches_brute_force(rng):
    # Dual-route check of the doubling kernel against the quadratic scan;
    # 4, 8 and 16 end a doubling exactly, 5, 9 and 17 overshoot it by one.
    for _ in range(20):
        values = rng.uniform(-3.0, 5.0, size=int(rng.integers(5, 60)))
        scan = ModulusScan(lo=0.0, hi=1.0, values=values)
        windows = (2, 3, 4, 5, 7, 8, 9, 16, 17, len(values) // 2, len(values), len(values) + 4)
        for window in windows:
            # delta strictly inside ((window-1)*step, window*step) selects
            # exactly `window` consecutive samples.  The kernel only picks
            # samples and subtracts one pair, so the match is exact.
            delta = (window - 0.5) * scan.step
            assert scan.value_at(delta) == brute_window_range(values, window)


def test_value_at_zero_and_validation():
    scan = modulus_scan(lambda u: u, 0.0, 1.0, count=101)
    assert scan.value_at(0.0) == 0.0
    with pytest.raises(DomainError):
        scan.value_at(-0.1)
    with pytest.raises(DomainError):
        modulus_scan(lambda u: u, 1.0, 0.0)


@pytest.mark.parametrize(
    "bounds, name",
    [((np.nan, 1.0), "lo"), ((0.0, np.inf), "hi"), ((-np.inf, np.inf), "lo")],
)
def test_scan_rejects_non_finite_bounds(bounds, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        modulus_scan(lambda u: u, *bounds)


@pytest.mark.parametrize(
    "bound, name",
    [({"hi1": np.inf}, "hi1"), ({"lo1": np.nan}, "lo1"), ({"lo2": -np.inf}, "lo2"),
     ({"hi2": np.nan}, "hi2")],
)
def test_surface_rejects_non_finite_bounds(bound, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        surface_modulus(lambda a, b: a + b, count=11, **bound)


def test_identity_modulus_tracks_delta():
    scan = modulus_scan(lambda u: u, 0.0, 1.0, count=10001)
    for delta in (0.1, 0.25, 0.5):
        assert scan.value_at(delta) == pytest.approx(delta, abs=2e-4)


def test_partial_moduli_coordinate_split():
    sm = surface_modulus(lambda a, b: a + 0.0 * b, count=401)
    assert sm.omega1(0.2) == pytest.approx(0.2, abs=2e-3)
    assert sm.omega2(0.2) == 0.0  # constant in the second coordinate


def test_surface_modulus_matches_brute_force(rng):
    # (37, 1000) and (1000, 37) split the lines along each axis into more than
    # one stripe of at most BLOCK_CELLS samples, the last one ragged; (19, 11)
    # is a single stripe.
    surfaces = [rng.uniform(-1.0, 1.0, size=shape) for shape in ((19, 11), (37, 1000), (1000, 37))]
    y = np.linspace(0.0, 1.0, 501)
    # Smooth surfaces, where the jump bounds leave most lines unswept.
    surfaces += [y[:, None] ** 3 * y[None, :] ** 2, (y[:, None] + y[None, :]) ** 3]
    # Constant along axis 1: every line has the same jump bound and range.
    surfaces.append(y[:, None] + 0.0 * y[None, :])
    # Column j has the exact slope (a permutation of j) * 2**-10, so w - 1
    # times its largest jump is its range exactly and rounding alone decides
    # which columns are kept.
    surfaces.append(np.arange(257.0)[:, None] * (rng.permutation(257) * 2.0 ** -10)[None, :])
    for values in surfaces:
        sm = SurfaceModulus(lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0, values=values)
        assert np.array_equal(sm.jumps1, np.abs(np.diff(values, axis=0)).max(axis=0))
        assert np.array_equal(sm.jumps2, np.abs(np.diff(values, axis=1)).max(axis=1))
        for axis, query, step in ((0, sm.omega1, sm.step1), (1, sm.omega2, sm.step2)):
            n = values.shape[axis]
            for window in (1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, n, n + 4):
                # delta strictly inside ((window-1)*step, window*step) selects
                # exactly `window` consecutive samples along the axis.
                assert query((window - 0.5) * step) == brute_line_range(values, window, axis)


def test_surface_modulus_keeps_nan():
    n, width = 400, BLOCK_CELLS // 400
    assert n > 2 * width  # at least three stripes on each axis
    surfaces = []
    for k in (0, width - 1, width, n // 2, n - 1):
        # Sample (k, k) lies in the first stripe, on either side of the first
        # edge between stripes, in a middle one or in the last, on both axes.
        values = np.zeros((n, n))
        values[k, k] = np.nan
        surfaces.append(values)
    # Row 0 and column 0 of y1^3 y2^2 are flat: read as a small jump, a NaN
    # there would leave its line unswept on both axes.
    y = np.linspace(0.0, 1.0, 501)
    values = y[:, None] ** 3 * y[None, :] ** 2
    values[0, 0] = np.nan
    surfaces.append(values)
    for values in surfaces:
        sm = SurfaceModulus(lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0, values=values)
        assert np.isnan(sm.omega1(0.05))
        assert np.isnan(sm.omega2(0.05))


def test_surface_sampling_matches_meshgrid():
    # An expression, a separable product, and a function whose array call
    # collapses to a scalar, so it is sampled point by point.
    targets = (
        resolve_function("y1*y2 + y2^2", arity=2),
        resolve_function("fig3-poly", arity=2),
        lambda a, b: float(np.sum(a * a + b)),
    )
    for g in targets:
        sm = surface_modulus(g, hi1=1.2, hi2=0.8, count=101)
        grid = np.meshgrid(np.linspace(0.0, 1.2, 101), np.linspace(0.0, 0.8, 101), indexing="ij")
        assert sm.values.tobytes() == evaluate_on(g, *grid).tobytes()


def test_surface_modulus_rectangle():
    sm = surface_modulus(lambda a, b: a * a + b, hi1=1.2, hi2=0.8, count=241)
    # omega1 freezes b: sup over |a-a'|<=0.3 of |a^2-a'^2| on [0,1.2] is
    # 1.2^2 - 0.9^2; omega2 freezes a: slope 1 in b.
    assert sm.omega1(0.3) == pytest.approx(1.44 - 0.81, abs=5e-3)
    assert sm.omega2(0.2) == pytest.approx(0.2, abs=5e-3)
