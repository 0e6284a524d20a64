"""Span tracer that wraps the public functions of each ``skl`` module.

Tracing lives entirely in the benchmark: ``install`` rebinds every module
attribute (and the few public methods) that refers to a traced function, and
``uninstall`` puts the originals back.  Spans are kept in memory and written
out once at the end.  Counts are recorded at the same boundaries: a count
belongs to the outermost span of its group, so a helper calling a sibling in
the same group is not counted twice.

A span's self time is its duration minus the time of its direct children.
Span names are ``<module>.<group>``; the module part is the layer used for
the time shares.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

#: Root span the benchmark opens around every timed op.
OP_SPAN = "bench.op"

#: Span groups whose target evaluations are window integrals.
WINDOW_GROUPS = ("univariate.window_integrals", "bivariate.generic")

LAYERS = (
    "basis",
    "univariate",
    "numerics",
    "bivariate",
    "functions",
    "modulus",
    "analysis",
    "cli",
    "reports",
    "svg",
    "bench",
)

# Span record fields.
_NAME, _PARENT, _START, _END, _CHILD, _EVALS, _OUTER = range(7)


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


# (module, attribute, span group, counter).  A counter receives the tracer,
# the span record, the call arguments and the result.  Names missing from the
# package are skipped, so the tracer keeps working while internals change.
def _count_rows(t, rec, args, kwargs, result):
    t.counts["basis.rows_calls"] += 1
    t.counts["basis.rows_cells"] += int(np.size(result))


def _count_moment(t, rec, args, kwargs, result):
    t.counts["univariate.moment_calls"] += 1


def _count_windows(t, rec, args, kwargs, result):
    windows = args[0].degree + 1
    t.counts["univariate.window_evals"] += rec[_EVALS]
    t.counts["numerics.quad_rules"] += 1
    t.counts["numerics.quad_nodes_sum"] += rec[_EVALS] / windows


def _count_bi(t, rec, args, kwargs, result):
    if rec[_NAME] != "bivariate.generic":
        return
    config = args[0]
    pairs = (config.axis1.degree + 1) * (config.axis2.degree + 1)
    t.counts["bivariate.window_pairs"] += pairs
    t.counts["bivariate.generic_evals"] += rec[_EVALS]
    t.counts["numerics.quad_rules"] += 1
    t.counts["numerics.quad_nodes_sum"] += math.sqrt(rec[_EVALS] / pairs)


def _count_scan(t, rec, args, kwargs, result):
    t.counts["modulus.scan_builds"] += 1
    t.counts["modulus.scan_samples"] += len(result.values)


def _count_query(t, rec, args, kwargs, result):
    """Window positions the query covers: n - window + 1 on the scan's grid."""
    scan, delta = args[0], args[1] if len(args) > 1 else kwargs["delta"]
    n = len(scan.values)
    window = math.floor(delta / scan.step + 1e-9) + 1 if delta > 0.0 else 1
    t.counts["modulus.queries"] += 1
    t.counts["modulus.query_samples_swept"] += 0 if window <= 1 else max(n - window + 1, 1)


def _count_surface(t, rec, args, kwargs, result):
    t.counts["modulus.surface_builds"] += 1
    t.counts["modulus.surface_samples"] += int(np.size(result.values))


def _count_surface_query(t, rec, args, kwargs, result):
    t.counts["modulus.surface_queries"] += 1


def _count_bound(t, rec, args, kwargs, result):
    t.counts["analysis.bound_calls"] += 1


def _count_svg(t, rec, args, kwargs, result):
    content = args[1] if len(args) > 1 else kwargs.get("content", "")
    t.counts["svg.bytes"] += len(content.encode())


def _bi_group(args, kwargs):
    from skl.bivariate import SeparableFunction

    force = kwargs.get("force_generic", args[4] if len(args) > 4 else False)
    separable = isinstance(args[1], SeparableFunction) and not force
    return "bivariate.separable" if separable else "bivariate.generic"


TRACED = (
    ("skl.basis", "basis_rows", "basis.rows", _count_rows),
    ("skl.basis", "basis_row", "basis.rows", _count_rows),
    ("skl.basis", "basis_weight", "basis.rows", _count_rows),
    ("skl.univariate", "apply", "univariate.apply", None),
    ("skl.univariate", "window_integrals", "univariate.window_integrals", _count_windows),
    ("skl.univariate", "error_curve", "univariate.error_curve", None),
    ("skl.univariate", "monomial_moment", "univariate.moments", _count_moment),
    ("skl.univariate", "oracle_moments", "univariate.moments", _count_moment),
    ("skl.univariate", "oracle_central_moments", "univariate.moments", _count_moment),
    ("skl.univariate", "point_delta", "univariate.moments", _count_moment),
    ("skl.univariate", "central_moments", "univariate.moments", _count_moment),
    ("skl.univariate", "moments_closed", "univariate.moments", _count_moment),
    ("skl.bivariate", "apply_bi", _bi_group, _count_bi),
    ("skl.bivariate", "window_deltas", "bivariate.moments", None),
    ("skl.bivariate", "bi_central_moments", "bivariate.moments", None),
    ("skl.bivariate", "bi_moments", "bivariate.moments", None),
    ("skl.bivariate", "surface_table", "bivariate.surface_table", None),
    ("skl.numerics", "evaluate_on", "numerics.eval", None),
    ("skl.numerics", "integrate_unit", "numerics.eval", None),
    ("skl.numerics", "composite_nodes", "numerics.rule", None),
    ("skl.functions", "parse_expression", "functions.resolve", None),
    ("skl.modulus", "modulus_scan", "modulus.scan_build", _count_scan),
    ("skl.modulus", "ModulusScan.value_at", "modulus.query", _count_query),
    ("skl.modulus", "surface_modulus", "modulus.surface_build", _count_surface),
    ("skl.modulus", "SurfaceModulus.omega1", "modulus.surface_query", _count_surface_query),
    ("skl.modulus", "SurfaceModulus.omega2", "modulus.surface_query", _count_surface_query),
    ("skl.modulus", "modulus", "modulus.oneshot", None),
    ("skl.modulus", "partial_moduli", "modulus.oneshot", None),
    ("skl.analysis", "bound_thm33", "analysis.bound", _count_bound),
    ("skl.analysis", "bound_thm41", "analysis.bound", _count_bound),
    ("skl.analysis", "bound_thm71", "analysis.bound", _count_bound),
    ("skl.analysis", "bound_thm72", "analysis.bound", _count_bound),
    ("skl.analysis", "korovkin_defects", "analysis.sweep", None),
    ("skl.analysis", "moment_defect_curve", "analysis.sweep", None),
    ("skl.analysis", "weighted_convergence", "analysis.sweep", None),
    ("skl.cli", "main", "cli.main", None),
    ("skl.cli", "build_config", "cli.parse", None),
    ("skl.reports", "run", "reports.cmd", None),
    ("skl.reports", "cmd_table1", "reports.cmd", None),
    ("skl.reports", "cmd_figure", "reports.cmd", None),
    ("skl.reports", "cmd_eval", "reports.cmd", None),
    ("skl.reports", "cmd_moments", "reports.cmd", None),
    ("skl.reports", "cmd_bivariate", "reports.cmd", None),
    ("skl.reports", "cmd_bounds", "reports.cmd", None),
    ("skl.reports", "table1_errors", "reports.cmd", None),
    ("skl.svg", "render_line_chart", "svg.render", None),
    ("skl.svg", "render_heatmap", "svg.render", None),
    ("skl.svg", "write_svg", "svg.render", _count_svg),
)


class Tracer:
    """In-memory spans and boundary counts for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = True  # while False, wrappers call straight through
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        outer = parent < 0 or self.spans[parent][_NAME] != name
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0, 0, outer])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        rec = self.spans[index]
        rec[_END] = time.perf_counter()
        self._stack.pop()
        if rec[_PARENT] >= 0:
            self.spans[rec[_PARENT]][_CHILD] += rec[_END] - rec[_START]

    def wrap(self, group, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = group(args, kwargs) if callable(group) else group
            index = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
            rec = tracer.spans[index]
            if counter is not None and rec[_OUTER]:
                try:
                    counter(tracer, rec, args, kwargs, result)
                except (AttributeError, TypeError, LookupError):
                    pass  # the counted attribute changed shape; the span still counts
            return result

        return traced

    def wrap_target(self, fn):
        """Trace a target callable; separable targets keep their type."""
        from skl.bivariate import SeparableFunction

        if isinstance(fn, SeparableFunction):
            return SeparableFunction(self.wrap_target(fn.f1), self.wrap_target(fn.f2))
        tracer = self

        def target(*args):
            if not tracer.active:
                return fn(*args)
            index = tracer.enter("functions.target")
            try:
                return fn(*args)
            finally:
                tracer.exit(index)
                points = _size(*args)
                tracer.counts["functions.target_calls"] += 1
                tracer.counts["functions.target_points"] += points
                parent = tracer.spans[index][_PARENT]
                while parent >= 0:
                    rec = tracer.spans[parent]
                    if rec[_NAME] in WINDOW_GROUPS:
                        rec[_EVALS] += points
                        break
                    parent = rec[_PARENT]

        return target

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded ``skl`` module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "skl" or n.startswith("skl.")]
        for module_name, attr, group, counter in TRACED:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    continue
                self._patch(owner, method, original, self.wrap(group, original, counter))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(group, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)
        resolve = sys.modules["skl.functions"].resolve_function
        tracer = self

        @functools.wraps(resolve)
        def traced_resolve(*args, **kwargs):
            if not tracer.active:
                return tracer.wrap_target(resolve(*args, **kwargs))
            index = tracer.enter("functions.resolve")
            try:
                fn = resolve(*args, **kwargs)
            finally:
                tracer.exit(index)
            return tracer.wrap_target(fn)

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is resolve:
                    self._patch(mod, name, resolve, traced_resolve)

    def _patch(self, owner, name, original, wrapped) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def self_times(self, ops_only: bool = False) -> dict[str, float]:
        """Self time per span name; with ``ops_only``, inside op spans only."""
        roots = []
        out: dict[str, float] = defaultdict(float)
        for index, rec in enumerate(self.spans):
            root = index if rec[_PARENT] < 0 else roots[rec[_PARENT]]
            roots.append(root)
            if not ops_only or self.spans[root][_NAME] == OP_SPAN:
                out[rec[_NAME]] += rec[_END] - rec[_START] - rec[_CHILD]
        return out

    def layer_shares(self) -> dict[str, float]:
        """Self time per layer as a share of the time spent in op spans."""
        total = sum(r[_END] - r[_START] for r in self.spans if r[_NAME] == OP_SPAN)
        shares = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times(ops_only=True).items():
            layer = name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + seconds / total
        return shares

    def write(self, path) -> None:
        """Write spans as JSON lines: name, parent index, start, end (s)."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps([rec[_NAME], rec[_PARENT], rec[_START], rec[_END]]) + "\n")
