"""Command-line entry point.

Precedence for every setting is: explicit flag, then the optional
``--config`` file (flat ``key = value`` lines), then the built-in default.
Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DomainError, UsageError
from .functions import ExpressionError
from .reports import RunConfig, run


class _Parser(argparse.ArgumentParser):
    """argparse flavors usage failures as exit code 2; we reserve 2 for
    verification failures, so route them through UsageError instead."""

    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"bad integer list {text!r}") from None
    if not items:
        raise UsageError("integer list must be non-empty")
    return items


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"bad number list {text!r}") from None


def _grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("grid must look like LO:HI:COUNT")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad grid {text!r}") from None


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"bad boolean {text!r}")


#: RunConfig field -> (config-file key, parser).  Flags use the same keys
#: with dashes; the file accepts either spelling.
_FIELD_PARSERS = {
    "m": ("m", int),
    "m_list": ("m-list", _int_list),
    "q": ("q", int),
    "lam": ("lambda", float),
    "rho": ("rho", float),
    "m1": ("m1", int),
    "m2": ("m2", int),
    "q1": ("q1", int),
    "q2": ("q2", int),
    "lam1": ("lambda1", float),
    "lam2": ("lambda2", float),
    "f": ("f", str),
    "grid": ("grid", _grid),
    "u": ("u", float),
    "y1": ("y1", float),
    "y2": ("y2", float),
    "out": ("out", str),
    "format": ("format", str),
    "unchecked": ("unchecked", _bool),
    "level": ("level", str),
    "thm": ("thm", int),
    "lipschitz_M": ("M", float),
    "gamma": ("gamma", float),
    "k1": ("k1", float),
    "k2": ("k2", float),
    "tau": ("tau", float),
    "e_set": ("E", _float_list),
}

_DEFAULTS = {
    "q": 0,
    "lam": 0.0,
    "rho": 1.0,
    "unchecked": False,
    "level": "fast",
    "lipschitz_M": 1.0,
    "gamma": 1.0,
    "k1": 1.0,
    "k2": 1.0,
    "tau": 1.0,
    "m_list": (),
    "e_set": (),
}


def _read_config_file(path: str) -> dict[str, str]:
    source = Path(path)
    if not source.is_file():
        raise UsageError(f"config file {path!r} not found")
    known = {key for key, _ in _FIELD_PARSERS.values()}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(source.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="skl", description="Blended Schurer-Kantorovich operator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, bivariate: bool = False) -> None:
        p.add_argument("--m", type=int)
        p.add_argument("--m-list", dest="m_list", type=_int_list)
        p.add_argument("--q", type=int)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--rho", type=float)
        p.add_argument("--f")
        p.add_argument("--grid", type=_grid, help="LO:HI:COUNT")
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "svg", "both"))
        p.add_argument("--unchecked", action="store_true", default=None)
        p.add_argument("--config", dest="config_file")
        if bivariate:
            p.add_argument("--m1", type=int)
            p.add_argument("--m2", type=int)
            p.add_argument("--q1", type=int)
            p.add_argument("--q2", type=int)
            p.add_argument("--lambda1", dest="lam1", type=float)
            p.add_argument("--lambda2", dest="lam2", type=float)
            p.add_argument("--y1", type=float)
            p.add_argument("--y2", type=float)

    p_eval = sub.add_parser("eval", help="evaluate the operator at --u or over --grid")
    common(p_eval)
    p_eval.add_argument("--u", type=float)

    p_moments = sub.add_parser("moments", help="raw and central moments, both paths")
    common(p_moments)
    p_moments.add_argument("--u", type=float)

    p_table1 = sub.add_parser("table1", help="recompute the reference error table")
    common(p_table1)

    p_figure = sub.add_parser("figure", help="regenerate demo figure 1, 2 or 3")
    p_figure.add_argument("figure_id", type=int, choices=(1, 2, 3))
    common(p_figure)

    p_bi = sub.add_parser("bivariate", help="evaluate the tensor operator")
    common(p_bi, bivariate=True)

    p_bounds = sub.add_parser("bounds", help="published error bounds")
    common(p_bounds, bivariate=True)
    p_bounds.add_argument("--thm", type=int, choices=(33, 41, 71, 72))
    p_bounds.add_argument("--u", type=float)
    p_bounds.add_argument("--M", dest="lipschitz_M", type=float)
    p_bounds.add_argument("--gamma", type=float)
    p_bounds.add_argument("--k1", type=float)
    p_bounds.add_argument("--k2", type=float)
    p_bounds.add_argument("--tau", type=float)
    p_bounds.add_argument("--E", dest="e_set", type=_float_list, help="anchor set, e.g. 0,0.5,1")

    p_verify = sub.add_parser("verify", help="run invariant suites and the closed-form audit")
    p_verify.add_argument("level", nargs="?", choices=("fast", "full"))
    p_verify.add_argument("--config", dest="config_file")

    return parser


def build_config(argv) -> RunConfig:
    """Resolve flags, config file, and defaults into one RunConfig."""
    ns = _build_parser().parse_args(argv)
    file_values = _read_config_file(ns.config_file) if getattr(ns, "config_file", None) else {}
    resolved = {}
    for field, (key, convert) in _FIELD_PARSERS.items():
        value = getattr(ns, field, None)
        if value is None and key in file_values:
            value = convert(file_values[key])
        if value is None:
            value = _DEFAULTS.get(field)
        if value is not None:
            resolved[field] = value
    if "format" not in resolved:
        resolved["format"] = "both" if ns.command == "figure" else "csv"
    return RunConfig(
        command=ns.command,
        figure_id=getattr(ns, "figure_id", None),
        **resolved,
    )


def main(argv=None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except (UsageError, ExpressionError, DomainError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
