"""The four benchmark workloads.

Each workload turns its seed into inputs, builds the ops that call ``skl``'s
public API, and computes exact references (``oracle``) for every result.
Ops are grouped into cycles of fixed composition; a run always ends on a
cycle boundary, so every run measures the same mix whatever its length.

* ``uni-sweep``: univariate ``apply`` on a 1001-point grid at m = 20, 200
  and 1000.  Basis rows and the contraction dominate; no modulus runs.
* ``bound-scan``: ``error_curve`` for the table-1 family plus
  ``bound_thm71`` on three diagonals of an 11 x 11 grid sharing one sampled
  surface.  The modulus queries dominate.
* ``tensor-generic``: generic ``apply_bi`` for a non-separable target.
  Target evaluations and the quadrature contraction dominate.
* ``cli-oneshot``: 24 commands of each of eleven command kinds through
  ``skl.cli.main`` with caches cleared before each, plus each of seven
  inputs the command line must reject, twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle as O
import skl.analysis as A
import skl.bivariate as B
import skl.cli as C
import skl.functions as F
import skl.numerics as N
import skl.reference as R
import skl.univariate as U

# ``skl`` re-exports a function named ``modulus`` over its submodule of that name.
Mod = importlib.import_module("skl.modulus")

#: Oracle-agreement tolerances: absolute for |reference| <= 1, relative above.
TOL = 1e-9
TOL_SINGULAR = 1e-7  # rho = 0.1: t^rho has the steepest origin singularity

#: Lipschitz constant of the table-1 polynomial on its sampling window, the
#: padding that makes a grid modulus an upper bound (as in ``skl verify``).
TABLE1_LIPSCHITZ = 6.0


def tolerance(rho: float) -> float:
    return TOL_SINGULAR if rho <= 0.1 else TOL


class Mismatch(Exception):
    """A result disagrees with its reference."""


class Checker:
    """Compares results with references and keeps the worst error ratio.

    With ``corrupt`` set, the first compared result is shifted by ten times
    its tolerance before the comparison, to prove the gate is live.
    """

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt
        self.max_ratio = 0.0

    def close(self, got, ref, tol: float) -> None:
        got = np.array(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        if self.corrupt and got.size:
            got.flat[0] += 10.0 * tol * max(1.0, abs(float(ref.flat[0])))
            self.corrupt = False
        if got.shape != ref.shape:
            raise Mismatch(f"shape {got.shape}, expected {ref.shape}")
        if not np.all(np.isfinite(got)):
            raise Mismatch("non-finite result")
        if got.size:
            ratio = float(np.max(np.abs(got - ref) / (tol * np.maximum(1.0, np.abs(ref)))))
            self.max_ratio = max(self.max_ratio, ratio)
            if ratio > 1.0:
                raise Mismatch(f"error ratio {ratio:.3g} exceeds 1")

    @staticmethod
    def holds(condition, what: str) -> None:
        if not bool(np.all(condition)):
            raise Mismatch(what)


@dataclass
class Op:
    """One timed call.  ``check`` returns the number of values that passed."""

    label: str
    call: Callable[[], object]
    check: Callable[[object, Checker], int]
    valid: bool = True
    before: Callable[[], None] | None = None


def jittered(rng, n: int, amplitude: float = 0.4) -> np.ndarray:
    """n sorted points on [0, 1]: both endpoints plus one seeded point per cell.

    Interior point j sits within ``amplitude`` cells of j / (n - 1).
    """
    inner = (np.arange(1, n - 1) + rng.uniform(-amplitude, amplitude, n - 2)) / (n - 1)
    return np.concatenate(([0.0], inner, [1.0]))


class Workload:
    """Seeded inputs, references and ops of one workload."""

    name = ""
    predicted = ""  # layer expected to take the largest share of op time

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.refs: dict = {}
        self.counts: dict[str, float] = defaultdict(float)

    def prepare(self) -> None:
        """Compute every reference; runs once, outside the timed region."""

    def plan(self) -> tuple[list[Op], list[list[Op]]]:
        """(prelude, cycles): resolves targets through ``skl`` on every call."""
        raise NotImplementedError

    def warmup(self) -> Op:
        """The cheapest op, run once by the set-up probe."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


def _text(target) -> str:
    return target.text if isinstance(target, O.Poly) else target


class UniSweep(Workload):
    name = "uni-sweep"
    predicted = "univariate"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        self.ys = jittered(self.rng, 101 if smoke else 1001)
        ms = (20,) if smoke else (20, 200, 1000)
        targets = ((O.TABLE1_POLY, 0.1), (O.TABLE1_POLY, 1.0), (O.RUNGE, 1.0))
        cases = [(m, t, rho) for m in ms for t, rho in targets]
        self.cases = [cases[i] for i in self.rng.permutation(len(cases))]

    def prepare(self):
        for m, target, rho in self.cases:
            self.refs[m, _text(target), rho] = O.operator(m, 5, 0.5, rho, target, self.ys)

    def _op(self, m, target, rho) -> Op:
        config = U.OperatorConfig(m=m, q=5, lam=0.5, rho=rho)
        f = F.resolve_function(_text(target))
        ys = self.ys
        key = (m, _text(target), rho)

        def check(out, ck):
            ck.close(out, self.refs[key], tolerance(rho))
            return len(ys)

        return Op(f"apply m={m} f={key[1]} rho={rho}", lambda: U.apply(config, f, ys), check)

    def plan(self):
        return [], [[self._op(*case) for case in self.cases]]

    def warmup(self):
        return self._op(20, O.TABLE1_POLY, 1.0)


# ---------------------------------------------------------------------------


class BoundScan(Workload):
    name = "bound-scan"
    predicted = "modulus"

    RHO_UNI = R.TABLE1_RHO
    RHO_BI = R.FIGURE3_RHO

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        # 11 points still hold the ten table-1 abscissae x = 0.1 .. 1.
        self.grid_count = 11 if smoke else 101
        ms = R.TABLE1_MS[:1] if smoke else R.TABLE1_MS
        self.uni_ms = [ms[i] for i in self.rng.permutation(len(ms))]
        self.bi_ms = R.FIGURE3_MS[:1] if smoke else R.FIGURE3_MS
        # A query's cost grows with its window, so the jitter stays small to
        # keep every seed's grid about equally expensive.
        self.pts = jittered(self.rng, 3 if smoke else 11, amplitude=0.1)
        n = len(self.pts)
        self.rows = [int(r) for r in self.rng.permutation(n)]
        self.cols = [int(c) for c in self.rng.permutation(n)]
        self.diagonals = [int(d) for d in self.rng.permutation(n)[: 1 if smoke else 3]]

    def _uni(self, m):
        return U.OperatorConfig(m=m, q=R.TABLE1_Q, lam=R.TABLE1_LAM, rho=self.RHO_UNI)

    def _bi(self, m):
        q, lam = R.FIGURE3_Q, R.FIGURE3_LAM
        return B.BivariateConfig(m1=m, m2=m, q1=q, q2=q, lam1=lam, lam2=lam, rho=self.RHO_BI)

    def prepare(self):
        xs = np.linspace(0.0, 1.0, self.grid_count)
        table_rows = [int(round(x * (self.grid_count - 1))) for x in R.TABLE1_XS]
        q, lam = R.TABLE1_Q, R.TABLE1_LAM
        for m in self.uni_ms:
            hi = O.sample_hi(m, q)
            scan = O.TABLE1_POLY(np.linspace(0.0, hi, O.SCAN_POINTS))
            step = hi / (O.SCAN_POINTS - 1)
            self.refs["uni", m] = {
                "errors": np.abs(O.operator(m, q, lam, self.RHO_UNI, O.TABLE1_POLY, xs) - O.TABLE1_POLY(xs)),
                "deltas": np.array([O.delta(m, q, lam, self.RHO_UNI, x) for x in xs]),
                "table_rows": table_rows,
                "table": R.TABLE1_ERRORS[:, list(R.TABLE1_MS).index(m)],
                "omega": _cached(lambda w, s=scan: O.max_window_range(s, w)),
                "step": step,
                "pad": TABLE1_LIPSCHITZ * step,
            }
        q, lam = R.FIGURE3_Q, R.FIGURE3_LAM
        for m in self.bi_ms:
            hi = O.sample_hi(m, q)
            surface = O.Surface(O.FIG3, hi, hi)
            axis = (m, q, lam, self.RHO_BI)
            X, Y = np.meshgrid(self.pts, self.pts, indexing="ij")
            # |d/dy1| and |d/dy2| of y1^3 y2^2 on the sampled square.
            l1, l2 = 3.0 * hi ** 4, 2.0 * hi ** 4
            self.refs["bi", m] = {
                "deltas": np.array([O.delta(*axis, y) for y in self.pts]),
                "errors": np.abs(O.bi_operator(axis, axis, O.FIG3, self.pts, self.pts) - O.FIG3(X, Y)),
                "omega1": _cached(lambda w, s=surface: O.max_window_range(s.values, w, axis=0)),
                "omega2": _cached(lambda w, s=surface: O.max_window_range(s.values, w, axis=1)),
                "step": surface.step1,
                "pad": 2.0 * (l1 * surface.step1 + l2 * surface.step2),
            }

    def _curve_op(self, m) -> Op:
        config = self._uni(m)
        f = F.resolve_function(R.TABLE1_FUNCTION)
        grid = N.Grid(0.0, 1.0, self.grid_count)

        def check(table, ck):
            ref = self.refs["uni", m]
            ck.close(table.errors, ref["errors"], tolerance(self.RHO_UNI))
            ck.close(table.errors[ref["table_rows"]], ref["table"], R.TABLE1_EXACT_TOL)
            ck.close(table.deltas, ref["deltas"], TOL)
            windows = [O.window_length(d, ref["step"]) for d in table.deltas]
            ck.close(table.bounds, [2.0 * ref["omega"](w) for w in windows], TOL)
            ck.holds(table.bounds + ref["pad"] >= table.errors, "bound + padding below error")
            return len(table.errors) + len(table.bounds)

        return Op(f"error_curve m={m}", lambda: U.error_curve(config, f, grid), check)

    def _surface_op(self, m, g, surfaces) -> Op:
        hi = self._bi(m).axis1.sample_hi

        def build():
            surfaces[m] = Mod.surface_modulus(g, hi1=hi, hi2=hi)
            return surfaces[m]

        return Op(f"surface_modulus m={m}", build, lambda out, ck: 0)

    def _bound_op(self, m, g, surfaces, a, b) -> Op:
        config = self._bi(m)
        y1, y2 = float(self.pts[a]), float(self.pts[b])

        def check(out, ck):
            ref = self.refs["bi", m]
            bound, d1, d2 = out
            ck.close([d1, d2], ref["deltas"][[a, b]], TOL)
            omega = ref["omega1"](O.window_length(d1, ref["step"]))
            omega += ref["omega2"](O.window_length(d2, ref["step"]))
            ck.close(bound, 2.0 * omega, TOL)
            ck.holds(bound + ref["pad"] >= ref["errors"][a, b], "bound + padding below error")
            return 1

        return Op(
            f"bound_thm71 m={m}",
            lambda: A.bound_thm71(config, g, y1, y2, samples=surfaces[m]),
            check,
        )

    def plan(self):
        g = F.resolve_function(R.FIGURE3_FUNCTION, arity=2)
        surfaces: dict = {}
        prelude = [self._surface_op(m, g, surfaces) for m in self.bi_ms]
        curves = [self._curve_op(m) for m in self.uni_ms]
        n = len(self.pts)
        # A diagonal of the grid holds every row and every column once, so it
        # meets every per-axis window width and costs the same as any other.
        # The cycle runs all error curves plus the same diagonals per m.
        cells = [
            (self.rows[a], self.cols[(a + d) % n])
            for d in self.diagonals
            for a in range(n)
        ]
        bounds = [self._bound_op(m, g, surfaces, a, b) for m in self.bi_ms for a, b in cells]
        return prelude, [curves + bounds]

    def warmup(self):
        g = F.resolve_function(R.FIGURE3_FUNCTION, arity=2)
        surfaces: dict = {}
        m = self.bi_ms[0]
        build = self._surface_op(m, g, surfaces)
        query = self._bound_op(m, g, surfaces, 0, 0)
        return Op("surface + bound_thm71", lambda: (build.call(), query.call()), lambda out, ck: 0)


def _cached(fn):
    cache: dict = {}

    def lookup(key):
        if key not in cache:
            cache[key] = fn(key)
        return cache[key]

    return lookup


# ---------------------------------------------------------------------------


class TensorGeneric(Workload):
    name = "tensor-generic"
    predicted = "functions"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        self.pts = jittered(self.rng, 11 if smoke else 41)
        # One rho < 1 case (768 nodes per axis) to two rho = 1 cases (256),
        # so the median sits among the short ops and p90 among the long ones.
        cases = [(20, 1.0)] if smoke else [(10, 0.9), (20, 1.0), (20, 1.0)]
        self.cases = [cases[i] for i in self.rng.permutation(len(cases))]

    def _config(self, m, rho):
        q, lam = R.FIGURE3_Q, R.FIGURE3_LAM
        return B.BivariateConfig(m1=m, m2=m, q1=q, q2=q, lam1=lam, lam2=lam, rho=rho)

    def prepare(self):
        q, lam = R.FIGURE3_Q, R.FIGURE3_LAM
        for m, rho in set(self.cases):
            axis = (m, q, lam, rho)
            self.refs[m, rho] = O.bi_operator(axis, axis, O.CUBE_SUM, self.pts, self.pts)

    def _op(self, m, rho) -> Op:
        config = self._config(m, rho)
        g = F.resolve_function(O.CUBE_SUM.text, arity=2)
        pts = self.pts

        def check(out, ck):
            ck.close(out, self.refs[m, rho], TOL)
            return int(np.size(out))

        return Op(f"apply_bi generic m={m} rho={rho}", lambda: B.apply_bi(config, g, pts, pts), check)

    def plan(self):
        return [], [[self._op(*case) for case in self.cases]]

    def warmup(self):
        return self._op(20, 1.0)


# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int | None
    out: str
    err: str
    escaped: str | None  # repr of an exception that escaped ``main``


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = C.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped exception is a failed command
            escaped = f"{type(exc).__name__}: {exc}"
    return CliResult(code, out.getvalue(), err.getvalue(), escaped)


def clear_caches() -> None:
    """Empty every module-level ``lru_cache`` in ``skl``: each command runs cold."""
    for name, module in list(sys.modules.items()):
        if name == "skl" or name.startswith("skl."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


UNI_POLYS = (
    O.TABLE1_POLY,
    O.Poly((2, 6, -5, 1), "table1-poly"),
    O.Poly((0, 0, 1), "e2"),
    O.Poly((0, 0, 0, 1), "e3"),
    O.Poly((0, 0, 0, 0, 1), "e4"),
    O.Poly((1, -1, 0, 0, 2), "2*y^4 - y + 1"),
    O.Poly((0, -2, 3), "3*y^2 - 2*y"),
)
BI_GENERIC = (O.CUBE_SUM, O.BiPoly({(1, 1): 1, (0, 2): 1}, "y1*y2 + y2^2"))
RHOS = (0.1, 0.5, 0.9, 1.0, 2.0)
#: Degrees of the univariate commands span the supported range: with q <= 8,
#: m + q stays below about 1030, past which the bad input ``--m 1100`` fails.
M_HI = 1000

#: Inputs the command line must reject with one ``error:`` line and exit 1.
BAD_INPUTS = (
    ("m-overflow", ["--m", "1100"]),
    ("u-nan", ["--u", "nan"]),
    ("div-zero", ["--f", "y/0"]),
    ("zero-zero", ["--f", "0/0"]),
    ("overflow", ["--f", "10^400"]),
    ("complex", ["--f", "(-1)^0.5"]),
    ("pole", ["--f", "y^-1"]),
)

#: The command kinds the workload covers: each subcommand, ``bounds`` once per
#: theorem and ``figure`` once per figure.  Every kind gets the same number of
#: commands per cycle, so no kind's weight is a guess about traffic.
CLI_KINDS = (
    "eval",
    "moments",
    "bounds33",
    "bounds41",
    "bounds71",
    "bounds72",
    "bivariate",
    "table1",
    "figure1",
    "figure2",
    "figure3",
)
PER_KIND = 24
#: Each bad input twice per cycle: 14 of 278 commands, a fixed 5% share.
BAD_REPEATS = 2

_WROTE = re.compile(r"^wrote (.+)$", re.MULTILINE)


def _num(value: float) -> str:
    return repr(float(value))


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split() if _is_float(tok)]


def _is_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


class Stratified:
    """Parameter draws that cover their ranges evenly across items.

    Item ``index`` of ``count`` takes, for its j-th draw, stratum
    ``perm_j[index]`` of a fixed permutation, so every parameter is spread
    evenly over the items.  The strata are the same for every seed: each seed
    draws the same combinations of discrete parameters (degree band, rho,
    target) and so runs the same amount of work.  Only the position inside a
    stratum comes from the seed.
    """

    def __init__(self, rng, count: int):
        self.rng = rng
        self.count = count
        self.strata = np.random.default_rng(0)
        self.perms: list[np.ndarray] = []
        self.index = 0
        self.draw = 0

    def item(self, index: int) -> "Stratified":
        self.index, self.draw = index, 0
        return self

    def _stratum(self) -> int:
        if self.draw == len(self.perms):
            self.perms.append(self.strata.permutation(self.count))
        stratum = int(self.perms[self.draw][self.index])
        self.draw += 1
        return stratum

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (self._stratum() + self.rng.uniform()) * (hi - lo) / self.count

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi)."""
        return min(hi - 1, int(self.uniform(lo, hi)))

    def choice(self, options):
        return options[self._stratum() % len(options)]


class CliOneshot(Workload):
    name = "cli-oneshot"
    predicted = "modulus"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.commands: list[tuple[str, list[str], Callable | None]] = []
        count = 1 if smoke else PER_KIND
        for kind in CLI_KINDS:
            if kind.startswith("figure"):
                make = functools.partial(self._figure, int(kind[len("figure"):]))
            else:
                make = getattr(self, "_" + kind)
            draw = Stratified(rng, count)
            for index in range(count):
                self.commands.append(make(draw.item(index), index))
        for label, flags in BAD_INPUTS:
            for _ in range(1 if smoke else BAD_REPEATS):
                argv = ["eval", "--m", str(int(rng.integers(2, 60))), "--u", f"{rng.uniform():.4f}"]
                argv += flags
                self.commands.append((f"bad {label}", argv, None))
        order = rng.permutation(len(self.commands))
        self.commands = [self.commands[i] for i in order]

    # -- command generators: (label, argv, reference factory) ---------------

    def _operator_flags(self, draw, m_hi):
        m = draw.integers(2, m_hi + 1)
        q = draw.integers(0, 9)
        lam = round(draw.uniform(), 3)
        rho = draw.choice(RHOS)
        flags = ["--m", str(m), "--q", str(q), "--lambda", _num(lam), "--rho", _num(rho)]
        return (m, q, lam, rho), flags

    def _eval(self, draw, index):
        (m, q, lam, rho), flags = self._operator_flags(draw, M_HI)
        u = draw.choice([0.0, 1.0]) if index % 10 == 0 else round(draw.uniform(), 4)
        if index % 6 == 0:
            target, rho = O.RUNGE, 1.0
            flags[-1] = "1.0"
        else:
            target = draw.choice(UNI_POLYS)
        argv = ["eval", *flags, "--u", _num(u), "--f", _text(target)]

        def ref():
            value = O.operator(m, q, lam, rho, target, [u])[0]
            return lambda res, ck: ck.close(float(res.out), value, tolerance(rho))

        return "eval", argv, ref

    def _moments(self, draw, index):
        (m, q, lam, rho), flags = self._operator_flags(draw, M_HI)
        u = round(draw.uniform(), 4)
        argv = ["moments", *flags, "--u", _num(u)]

        def ref():
            raw = O.monomials(m, q, lam, rho, [u], 2)[:, 0]
            psi1, psi2 = O.central(m, q, lam, rho, u)
            closed = O.closed_moments(m, lam, rho, u)
            oracle = {"e0": raw[0], "e1": raw[1], "e2": raw[2], "psi1": psi1, "psi2": psi2}
            gap = max(abs(closed[k] - oracle[k]) for k in ("e0", "e1", "e2"))

            def check(res, ck):
                lines = res.out.splitlines()
                for key, line in zip(oracle, lines):
                    name, _, got_closed, _, got_oracle = line.split()
                    ck.holds(name == key, f"moment line {name!r}, expected {key!r}")
                    ck.close(float(got_closed), closed[key], TOL)
                    ck.close(float(got_oracle), oracle[key], tolerance(rho))
                ck.close(_floats(lines[5]), [gap], tolerance(rho))
                # The residual is algebraically zero: its size is its error.
                ck.close(_floats(lines[6]), [0.0], TOL)

            return check

        return "moments", argv, ref

    def _bounds33(self, draw, index):
        (m, q, lam, rho), flags = self._operator_flags(draw, M_HI)
        u = round(draw.uniform(), 4)
        target = draw.choice(UNI_POLYS)
        argv = ["bounds", "--thm", "33", *flags, "--u", _num(u), "--f", _text(target)]

        def ref():
            d = O.delta(m, q, lam, rho, u)
            bound = 2.0 * O.scan_modulus(target, O.sample_hi(m, q), d)
            return lambda res, ck: ck.close(_floats(res.out), [bound, d], TOL)

        return "bounds33", argv, ref

    def _bounds41(self, draw, index):
        (m, q, lam, rho), flags = self._operator_flags(draw, M_HI)
        u = round(draw.uniform(0.01, 1.0), 4)
        M, gamma = draw.choice([1.0, 2.5]), draw.choice([0.5, 1.0])
        k1, k2 = draw.choice([1.0, 2.0]), draw.choice([1.0, 0.5])
        argv = ["bounds", "--thm", "41", *flags, "--u", _num(u)]
        argv += ["--M", _num(M), "--gamma", _num(gamma), "--k1", _num(k1), "--k2", _num(k2)]

        def ref():
            psi2 = max(O.central(m, q, lam, rho, u)[1], 0.0)
            bound = M * (psi2 / (k1 * u + k2 * u * u)) ** (gamma / 2.0)
            return lambda res, ck: ck.close(_floats(res.out), [bound], tolerance(rho))

        return "bounds41", argv, ref

    def _bivariate_flags(self, draw, m_hi, rhos, q_hi=5):
        m1, m2 = draw.integers(2, m_hi + 1), draw.integers(2, m_hi + 1)
        q1, q2 = draw.integers(0, q_hi + 1), draw.integers(0, q_hi + 1)
        lam1, lam2 = round(draw.uniform(), 3), round(draw.uniform(), 3)
        rho = draw.choice(rhos)
        y1, y2 = round(draw.uniform(), 4), round(draw.uniform(), 4)
        flags = ["--m1", str(m1), "--m2", str(m2), "--q1", str(q1), "--q2", str(q2)]
        flags += ["--lambda1", _num(lam1), "--lambda2", _num(lam2), "--rho", _num(rho)]
        flags += ["--y1", _num(y1), "--y2", _num(y2)]
        return (m1, q1, lam1, rho), (m2, q2, lam2, rho), (y1, y2), flags

    def _bounds71(self, draw, index):
        axis1, axis2, (y1, y2), flags = self._bivariate_flags(draw, 20, RHOS)
        argv = ["bounds", "--thm", "71", *flags]

        def ref():
            surface = O.Surface(O.FIG3, O.sample_hi(*axis1[:2]), O.sample_hi(*axis2[:2]))
            d1, d2 = O.delta(*axis1, y1), O.delta(*axis2, y2)
            bound = 2.0 * (surface.omega1(d1) + surface.omega2(d2))
            return lambda res, ck: ck.close(_floats(res.out), [bound, d1, d2], TOL)

        return "bounds71", argv, ref

    def _bounds72(self, draw, index):
        axis1, axis2, (y1, y2), flags = self._bivariate_flags(draw, 60, RHOS)
        tau, M = draw.choice([0.5, 1.0]), draw.choice([1.0, 3.0])
        anchors = sorted(round(draw.uniform(), 3) for _ in range(draw.integers(1, 4)))
        argv = ["bounds", "--thm", "72", *flags, "--E", ",".join(_num(a) for a in anchors)]
        argv += ["--tau", _num(tau), "--M", _num(M)]

        def ref():
            d1 = min(abs(a - y1) for a in anchors)
            d2 = min(abs(a - y2) for a in anchors)
            s1, s2 = O.delta(*axis1, y1), O.delta(*axis2, y2)
            bound = M * ((d1 ** tau + s1 ** tau) * (d2 ** tau + s2 ** tau) + d1 ** tau * d2 ** tau)
            return lambda res, ck: ck.close(_floats(res.out), [bound], TOL)

        return "bounds72", argv, ref

    def _bivariate(self, draw, index):
        # Odd items take a non-separable target on the generic path, whose
        # cost grows with the nodes per axis: small degrees, rho >= 1.
        if index % 2:
            target = BI_GENERIC[index // 2 % len(BI_GENERIC)]
            axis1, axis2, (y1, y2), flags = self._bivariate_flags(draw, 5, (1.0, 2.0), q_hi=2)
        else:
            target = O.FIG3
            axis1, axis2, (y1, y2), flags = self._bivariate_flags(draw, 40, RHOS)
        argv = ["bivariate", *flags, "--f", target.text]

        def ref():
            value = O.bi_operator(axis1, axis2, target, [y1], [y2])[0, 0]
            return lambda res, ck: ck.close(float(res.out), value, tolerance(axis1[3]))

        return "bivariate", argv, ref

    def _table1(self, draw, index):
        argv = ["table1", "--out", str(self.workdir / "table1")]

        def ref():
            xs = R.TABLE1_XS
            errors = np.column_stack(
                [np.abs(O.operator(m, R.TABLE1_Q, R.TABLE1_LAM, R.TABLE1_RHO, O.TABLE1_POLY, xs) - O.TABLE1_POLY(xs)) for m in R.TABLE1_MS]
            )

            def check(res, ck):
                ck.holds("reproduction tier: exact" in res.out, "table1 tier is not exact")
                data = _load_csv(_one(self._written(res), ".csv"))
                ck.close(data[:, 0], xs, TOL)
                ck.close(data[:, 1:], errors, TOL_SINGULAR)
                ck.close(data[:, 1:], R.TABLE1_ERRORS, R.TABLE1_EXACT_TOL)

            return check

        return "table1", argv, ref

    def _figure(self, which, draw, index):
        argv = ["figure", str(which), "--out", str(self.workdir / f"figure{which}")]

        def ref():
            if which == 3:
                q, lam, rho = R.FIGURE3_Q, R.FIGURE3_LAM, R.FIGURE3_RHO
                pts = np.linspace(0.0, 1.0, R.FIGURE3_GRID_POINTS)
                X, Y = np.meshgrid(pts, pts, indexing="ij")
                exact = O.FIG3(X, Y).ravel()
                surfaces = {
                    m: O.bi_operator((m, q, lam, rho), (m, q, lam, rho), O.FIG3, pts, pts).ravel()
                    for m in R.FIGURE3_MS
                }

                def check(res, ck):
                    paths = self._written(res)
                    for m, approx in surfaces.items():
                        data = _load_csv(_one(paths, f"_m{m}.csv"))
                        ck.close(data[:, 0], X.ravel(), TOL)
                        ck.close(data[:, 1], Y.ravel(), TOL)
                        ck.close(data[:, 2], approx, tolerance(rho))
                        ck.close(data[:, 3], exact, TOL)
                        ck.close(data[:, 4], np.abs(approx - exact), tolerance(rho))
                    self._check_svg(paths, ck)

                return check
            xs = np.linspace(0.0, 1.0, R.FIGURE1_GRID_POINTS)
            exact = O.TABLE1_POLY(xs)
            curves = np.column_stack(
                [O.operator(m, R.TABLE1_Q, R.TABLE1_LAM, R.TABLE1_RHO, O.TABLE1_POLY, xs) for m in R.TABLE1_MS]
            )
            expected = np.column_stack([exact, curves]) if which == 1 else np.abs(curves - exact[:, None])

            def check(res, ck):
                paths = self._written(res)
                data = _load_csv(_one(paths, ".csv"))
                ck.close(data[:, 0], xs, TOL)
                ck.close(data[:, 1:], expected, TOL_SINGULAR)
                self._check_svg(paths, ck)

            return check

        return f"figure{which}", argv, ref

    # -- output helpers ------------------------------------------------------

    def _written(self, res: CliResult) -> list[Path]:
        paths = [Path(p) for p in _WROTE.findall(res.out)]
        for path in paths:
            self.counts["reports.bytes_written"] += path.stat().st_size
        return paths

    @staticmethod
    def _check_svg(paths: list[Path], ck: Checker) -> None:
        text = _one(paths, ".svg").read_text()
        ck.holds(text.startswith("<svg") and text.rstrip().endswith("</svg>"), "malformed SVG")

    # -- ops -----------------------------------------------------------------

    def prepare(self):
        for label, argv, ref in self.commands:
            if ref is not None and tuple(argv) not in self.refs:  # table1, figures repeat
                self.refs[tuple(argv)] = ref()

    def _op(self, label, argv, ref) -> Op:
        key = tuple(argv)

        if ref is None:

            def check(res, ck):
                lines = res.err.splitlines()
                ck.holds(res.escaped is None, f"exception escaped main: {res.escaped}")
                ck.holds(res.code == 1, f"exit code {res.code}, expected 1")
                ck.holds(len(lines) == 1 and lines[0].startswith("error:"), "expected one 'error:' line")
                ck.holds("Traceback" not in res.out + res.err, "traceback printed")
                return 1

        else:

            def check(res, ck):
                ck.holds(res.escaped is None, f"exception escaped main: {res.escaped}")
                ck.holds(res.code == 0, f"exit code {res.code}, expected 0")
                self.refs[key](res, ck)
                return 1

        return Op(label, lambda: run_cli(argv), check, valid=ref is not None, before=clear_caches)

    def plan(self):
        return [], [[self._op(*command) for command in self.commands]]

    def warmup(self):
        argv = ["eval", "--m", "20", "--q", "5", "--lambda", "0.5", "--rho", "0.1", "--u", "0.5"]
        return Op("eval", lambda: run_cli(argv), lambda out, ck: 0)


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _one(paths: list[Path], suffix: str) -> Path:
    matches = [p for p in paths if p.name.endswith(suffix)]
    if len(matches) != 1:
        raise Mismatch(f"expected one written *{suffix} file, found {len(matches)}")
    return matches[0]


WORKLOADS = {w.name: w for w in (UniSweep, BoundScan, TensorGeneric, CliOneshot)}
