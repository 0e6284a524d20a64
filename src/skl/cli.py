"""Command-line entry point.

The parser is built once per process from two tables: each RunConfig
field's flag and converter, and each subcommand's flags.  Precedence for
every setting is: explicit flag, then the optional ``--config`` file (flat
``key = value`` lines), then the RunConfig default.  The handlers check the
values.  Exit codes: 0 success, 1 usage error, 2 verification failure.
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


#: RunConfig field -> (flag and config-file key, converter).  Flags use the
#: same keys with dashes; the file accepts either spelling.
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
    "level": ("level", str),
    "thm": ("thm", int),
    "lipschitz_M": ("M", float),
    "gamma": ("gamma", float),
    "k1": ("k1", float),
    "k2": ("k2", float),
    "tau": ("tau", float),
    "e_set": ("E", _float_list),
}

#: Help text of the flags that carry one.  It names accepted values; the
#: handlers check them.
_FIELD_HELP = {
    "grid": "LO:HI:COUNT",
    "format": "csv, svg or both",
    "thm": "33, 41, 71 or 72",
    "e_set": "anchor set, e.g. 0,0.5,1",
}

_OPERATOR = ("m", "m_list", "q", "lam", "rho", "f", "grid", "out", "format")
_TENSOR = _OPERATOR + ("m1", "m2", "q1", "q2", "lam1", "lam2", "y1", "y2")

#: Subcommand -> (help, flag fields).  ``figure`` and ``verify`` also take
#: one positional each.
_COMMANDS = {
    "eval": ("evaluate the operator at --u or over --grid", _OPERATOR + ("u",)),
    "moments": ("raw and central moments, both paths", _OPERATOR + ("u",)),
    "table1": ("recompute the reference error table", _OPERATOR),
    "figure": ("regenerate demo figure 1, 2 or 3", _OPERATOR),
    "bivariate": ("evaluate the tensor operator", _TENSOR),
    "bounds": (
        "published error bounds",
        _TENSOR + ("thm", "u", "lipschitz_M", "gamma", "k1", "k2", "tau", "e_set"),
    ),
    "verify": ("run invariant suites and the closed-form audit", ()),
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
    parsers = {}
    for command, (help_text, fields) in _COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=help_text)
        for field in fields:
            key, convert = _FIELD_PARSERS[field]
            p.add_argument(f"--{key}", dest=field, type=convert, help=_FIELD_HELP.get(field))
        p.add_argument("--config", dest="config_file")
    parsers["figure"].add_argument("figure_id", type=int, help="1, 2 or 3")
    parsers["verify"].add_argument("level", nargs="?", help="fast or full")
    return parser


#: Built once per process; parsing leaves it unchanged.
_PARSER = _build_parser()


def build_config(argv) -> RunConfig:
    """Resolve flags over the config file; RunConfig supplies the defaults."""
    ns = _PARSER.parse_args(argv)
    file_values = _read_config_file(ns.config_file) if ns.config_file else {}
    resolved = {}
    for field, (key, convert) in _FIELD_PARSERS.items():
        value = getattr(ns, field, None)
        if value is None and key in file_values:
            value = convert(file_values[key])
        if value is not None:
            resolved[field] = value
    resolved.setdefault("format", "both" if ns.command == "figure" else "csv")
    return RunConfig(command=ns.command, figure_id=getattr(ns, "figure_id", None), **resolved)


def main(argv=None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except (UsageError, ExpressionError, DomainError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
