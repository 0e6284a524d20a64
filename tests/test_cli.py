import warnings

import pytest

from skl.cli import _grid, _int_list, build_config, main
from skl.errors import UsageError
from skl.functions import resolve_function
from skl.univariate import OperatorConfig, apply


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
        "unchecked = yes\n"
        "\n"
    )
    cfg = build_config(["eval", "--m", "8", "--config", str(cfg_file)])
    assert cfg.lam == 0.5
    assert cfg.m_list == (10, 20)
    assert cfg.unchecked is True
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
    assert (err + divide + arithmetic + limits).count("error:") == 16
    # The library itself takes the degree the command line refuses.
    assert apply(OperatorConfig(m=1100), resolve_function("e0"), 0.5) == pytest.approx(
        1.0, abs=1e-12
    )


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
