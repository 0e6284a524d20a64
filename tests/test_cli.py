import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from skl import cli
from skl.cli import _float_list, _grid, _int_list, build_config, main
from skl.errors import UsageError
from skl.functions import resolve_function
from skl.reports import RunConfig
from skl.univariate import OperatorConfig, apply

#: A valid value text per field converter, and per field for the strings.
SAMPLE_TEXT = {
    int: "3", float: "0.25", _int_list: "3,4", _float_list: "0,0.5", _grid: "0:1:5"
}
STRING_TEXT = {"f": "y", "out": "result", "format": "svg", "level": "full"}


def _sample(field):
    convert = cli._FIELD_PARSERS[field][1]
    return STRING_TEXT[field] if convert is str else SAMPLE_TEXT[convert]


def test_list_and_grid_converters():
    assert _int_list("10,20, 40") == (10, 20, 40)
    assert _grid("0:1:11") == (0.0, 1.0, 11)
    with pytest.raises(UsageError):
        _int_list("10,twenty")
    with pytest.raises(UsageError):
        _int_list(",")
    with pytest.raises(UsageError):
        _grid("0:1")
    with pytest.raises(UsageError):
        _grid("0:one:5")


def test_build_config_defaults():
    cfg = build_config(["eval", "--m", "10", "--u", "0.5"])
    assert (cfg.q, cfg.lam, cfg.rho, cfg.format) == (0, 0.0, 1.0, "csv")
    assert build_config(["figure", "2"]).format == "both"
    assert build_config(["figure", "2", "--format", "svg"]).format == "svg"


def test_config_file_layering(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# demo settings\n"
        "lambda = 0.5\n"
        "m_list = 10,20\n"   # underscore spelling accepted
        "rho = 2\n"
        "\n"
    )
    cfg = build_config(["eval", "--m", "8", "--config", str(cfg_file)])
    assert cfg.lam == 0.5
    assert cfg.m_list == (10, 20)
    assert cfg.rho == 2.0
    # An explicit flag wins over the file.
    override = build_config(
        ["eval", "--m", "8", "--lambda", "0.25", "--config", str(cfg_file)]
    )
    assert override.lam == 0.25


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(UsageError):
        build_config(["eval", "--config", str(missing)])
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("moon = full\n")
    with pytest.raises(UsageError):
        build_config(["eval", "--config", str(bad_key)])
    # The domain is fixed: there is no key that lets points or lam leave it.
    bad_key.write_text("unchecked = yes\n")
    with pytest.raises(UsageError, match="unknown key 'unchecked'"):
        build_config(["eval", "--m", "5", "--config", str(bad_key)])
    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("lambda 0.5\n")
    with pytest.raises(UsageError):
        build_config(["eval", "--config", str(bad_line)])


def test_main_usage_failures(capsys, tmp_path):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["eval", "--u", "0.5"]) == 1  # --m missing
    assert main(["eval", "--m", "10", "--grid", "0:1"]) == 1
    assert main(["figure", "7"]) == 1
    assert main(["moments", "--m", "10"]) == 1  # --u missing
    assert main(["bounds", "--m", "10", "--thm", "99"]) == 1
    assert main(["eval", "--m", "10", "--u", "0.5", "--f", "y +"]) == 1
    assert main(["eval", "--m", "10", "--u", "1.5"]) == 1  # outside [0, 1]
    err = capsys.readouterr().err
    # Arithmetic failures: a non-finite target, exact division by zero,
    # float overflow in a constant, a degree past the command-line limit,
    # and a complex power.  Each prints one line and no warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--m", "10", "--u", "0.5", "--f", "y/0"]) == 1
    assert not caught
    divide = capsys.readouterr().err
    assert divide.splitlines() == ["error: function returned a non-finite value"]
    assert main(["eval", "--m", "10", "--u", "0.5", "--f", "0/0"]) == 1
    assert main(["eval", "--m", "10", "--u", "0.5", "--f", "10^400"]) == 1
    assert main(["eval", "--m", "1100", "--u", "0.5"]) == 1
    assert main(["eval", "--m", "10", "--u", "0.5", "--f", "(-1)^0.5"]) == 1
    arithmetic = capsys.readouterr().err
    assert "error: expression '10^400' overflows a float" in arithmetic
    assert "error: degree m + q = 1100 exceeds the command-line limit of 1024" in arithmetic
    assert "error: expression '(-1)^0.5' has a complex value" in arithmetic
    assert len(arithmetic.splitlines()) == 4
    # The limit covers every degree flag, not only --m.
    assert main(["figure", "1", "--m-list", "1100"]) == 1
    assert main(["bivariate", "--m1", "1100", "--m2", "5", "--y1", "0.5", "--y2", "0.5"]) == 1
    limits = capsys.readouterr().err
    assert limits.splitlines() == [
        "error: degree m + q = 1105 exceeds the command-line limit of 1024",  # q = 5
        "error: degree m + q = 1100 exceeds the command-line limit of 1024",
    ]
    # A non-finite point, or one far outside [0, 1], fails with one line and
    # no warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for u in ("nan", "inf", "1e300"):
            assert main(["eval", "--m", "5", f"--u={u}"]) == 1
    assert not caught
    points = capsys.readouterr().err
    assert points.splitlines() == [
        "error: evaluation point nan is not finite",
        "error: evaluation point inf is not finite",
        "error: evaluation point 1e+300 outside [0, 1]",
    ]
    assert (err + divide + arithmetic + limits + points).count("error:") == 19
    # No flag lets a point leave [0, 1].
    assert main(["eval", "--m", "5", "--u", "0.3", "--unchecked"]) == 1
    assert capsys.readouterr().err.count("error:") == 1
    # A rho with no Gauss-Jacobi rule (its recurrence overflows, or
    # 2 + beta rounds to 1, or beta = 1/rho - 1 rounds to -1) is refused by
    # name; the extremes that have one still evaluate.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for rho in ("1e-300", "1e-160", "5e-324", "1e16", "1e300"):
            assert main(["eval", "--m", "5", "--u", "0.5", "--rho", rho]) == 1
            line, = capsys.readouterr().err.splitlines()
            assert line == f"error: rho = {float(rho)!r} is too extreme for the window quadrature"
    assert not caught
    kept = {"1e-20": "3.83912037037", "1e-5": "3.83911814815", "1e15": "3.52199074074"}
    for rho, value in kept.items():
        assert main(["eval", "--m", "5", "--u", "0.5", "--rho", rho]) == 0
        assert capsys.readouterr().out.strip() == value
    # The library itself takes the degree the command line refuses.
    assert apply(OperatorConfig(m=1100), resolve_function("e0"), 0.5) == pytest.approx(
        1.0, abs=1e-12
    )


def test_handlers_check_their_values(capsys):
    # Each value is checked once, by the handler that uses it.
    cases = [
        (["figure", "7"], "error: figure id must be 1, 2 or 3"),
        (["bounds", "--m", "10", "--thm", "99"], "error: --thm must be one of 33, 41, 71, 72"),
        (
            ["bounds", "--thm", "72", "--m", "30", "--y1", "0.3", "--y2", "0.6"],
            "error: --thm 72 needs --E",
        ),
        (["eval", "--m", "10", "--u", "0.5", "--format", "png"], "error: unknown format 'png'"),
        (["verify", "turbo"], "error: verify level must be 'fast' or 'full'"),
    ]
    for argv, line in cases:
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [line]


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    def rebuild():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    assert main(["eval", "--m", "5", "--u", "0.5"]) == 0
    capsys.readouterr()


def test_field_table_is_the_command_surface(tmp_path):
    assert tuple(cli._COMMANDS) == RunConfig.COMMANDS
    # Every field is a flag of at least one subcommand, except the verify
    # level, which is that command's positional.
    reached = {"level"}
    assert build_config(["verify", "full"]).level == "full"
    for command, (_, fields) in cli._COMMANDS.items():
        positional = ["1"] if command == "figure" else []
        for field in fields:
            key, convert = cli._FIELD_PARSERS[field]
            text = _sample(field)
            config = build_config([command, *positional, f"--{key}", text])
            assert getattr(config, field) == convert(text), (command, field)
            reached.add(field)
    assert reached == set(cli._FIELD_PARSERS)
    # Every field is also a config-file key.
    cfg_file = tmp_path / "all.cfg"
    cfg_file.write_text(
        "".join(f"{key} = {_sample(field)}\n" for field, (key, _) in cli._FIELD_PARSERS.items())
    )
    config = build_config(["verify", "--config", str(cfg_file)])
    for field, (_, convert) in cli._FIELD_PARSERS.items():
        assert getattr(config, field) == convert(_sample(field)), field


def test_main_eval_point(capsys):
    assert main(["eval", "--m", "10", "--u", "0.5", "--f", "const:1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_main_eval_grid_stdout(capsys):
    code = main(
        ["eval", "--m", "5", "--grid", "0:1:3", "--f", "y", "--lambda", "0.5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,K"
    assert len(lines) == 4


def test_main_eval_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        ["eval", "--m", "5", "--grid", "0:1:3", "--f", "y", "--out", str(out)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "x,K"
    assert len(lines) == 4


def test_main_eval_grid_stdout_matches_csv_file(tmp_path, capsys):
    argv = ["eval", "--m", "20", "--q", "2", "--lambda", "0.5", "--grid", "0:1:41"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "grid.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert printed == out.read_text()
    assert printed.count("\n") == 42


def test_main_moments_fixed_point(capsys):
    code = main(
        ["moments", "--m", "10", "--q", "0", "--lambda", "0.5", "--rho", "1",
         "--u", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # The first moment is exactly the point itself for this configuration.
    assert "e1 closed 0.5 oracle 0.5" in out
    assert "central identity residual" in out


def test_main_moments_max_gap_keeps_nan(capsys):
    # At rho = 1e300 the transcribed e2 overflows to nan; the maximum gap
    # must say so, not fall back to the finite rows.  The audit never gates.
    assert main(["moments", "--m", "5", "--u", "0.5", "--rho", "1e300"]) == 0
    out = capsys.readouterr().out
    assert "e2 closed nan" in out
    assert "max raw discrepancy nan\n" in out


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["eval", "--m", "20", "--u", "0.5"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "skl", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert main(argv) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")


def test_main_bounds_thm33_dominates_error(capsys):
    code = main(
        ["bounds", "--thm", "33", "--m", "20", "--q", "5", "--lambda", "0.5",
         "--rho", "0.1", "--u", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    bound = float(out.split()[1])
    assert bound >= 0.1324072752  # published error at this point


def test_main_bounds_thm72(capsys):
    code = main(
        ["bounds", "--thm", "72", "--m", "10", "--q", "2", "--y1", "0.5",
         "--y2", "0.5", "--E", "0,0.5,1"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("bound ")


def test_main_figure_with_ladder(tmp_path, capsys):
    out = tmp_path / "fig"
    code = main(
        ["figure", "1", "--m-list", "5", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    assert (tmp_path / "fig.csv").read_text().splitlines()[0] == "x,f,K_n5"
    capsys.readouterr()


def test_main_bivariate_point(capsys):
    code = main(
        ["bivariate", "--m1", "4", "--m2", "6", "--q1", "1", "--q2", "0",
         "--lambda1", "0.3", "--lambda2", "0.7", "--y1", "0.2", "--y2", "0.8",
         "--f", "const:2"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_main_verify_fast(capsys):
    assert main(["verify", "fast"]) == 0
    assert "verify fast: PASS" in capsys.readouterr().out
