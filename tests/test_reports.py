import re

import numpy as np
import pytest
from conftest import assert_same_text

from skl.cli import main
from skl.errors import UsageError
from skl.reference import (
    TABLE1_ERRORS,
    TABLE1_MS,
    TABLE1_XS,
)
from skl.reports import (
    CSV_FLOAT_FORMAT,
    CheckResult,
    RunConfig,
    VerifyResult,
    cmd_figure,
    cmd_table1,
    cmd_verify,
    _write_csv,
    run_audit,
    table1_errors,
)


def test_reference_table_anchors():
    # Spot anchors transcribed from the published error table.
    def ref(x, m):
        return TABLE1_ERRORS[np.where(TABLE1_XS == x)[0][0], TABLE1_MS.index(m)]

    assert ref(0.7, 30) == 0.0036833631
    assert ref(1.0, 20) == 0.3303053711
    assert ref(0.1, 20) == 0.2717372121
    assert ref(0.5, 20) == 0.1324072752
    assert ref(1.0, 40) == 0.1466965539


def test_table1_reproduces_reference():
    errors = table1_errors()
    assert errors.shape == (10, 3)
    assert np.abs(errors - TABLE1_ERRORS).max() < 1e-6


def test_cmd_table1_writes_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    result = cmd_table1(out)
    assert result.tier == "exact"
    lines = out.read_text().splitlines()
    assert lines[0] == "x,E_n20,E_n30,E_n40"
    assert len(lines) == 11
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    assert "reproduction tier: exact" in capsys.readouterr().out


def test_cmd_table1_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cmd_table1(a)
    cmd_table1(b)
    assert a.read_bytes() == b.read_bytes()


def test_cmd_figure1_artifacts(tmp_path):
    written = cmd_figure(1, out=tmp_path / "fig1", fmt="both")
    csv = tmp_path / "fig1.csv"
    svg = tmp_path / "fig1.svg"
    assert set(written) == {csv, svg}
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,f,K_n20,K_n30,K_n40"
    assert len(lines) == 502
    assert svg.read_text().startswith("<svg")


def test_cmd_figure2_matches_table(tmp_path):
    written = cmd_figure(2, out=tmp_path / "fig2", fmt="csv")
    data = np.loadtxt(written[0], delimiter=",", skiprows=1)
    table_xs_idx = [int(round(x * 500)) for x in TABLE1_XS]
    fig_max = data[table_xs_idx, 3].max()  # the m=40 error column
    assert fig_max == pytest.approx(TABLE1_ERRORS[:, 2].max(), abs=1e-9)


def test_cmd_figure3_artifacts(tmp_path):
    written = cmd_figure(3, out=tmp_path / "fig3", fmt="both")
    m10 = tmp_path / "fig3_m10.csv"
    m20 = tmp_path / "fig3_m20.csv"
    svg = tmp_path / "fig3.svg"
    assert set(written) == {m10, m20, svg}
    d10 = np.loadtxt(m10, delimiter=",", skiprows=1)
    d20 = np.loadtxt(m20, delimiter=",", skiprows=1)
    assert d10.shape == (41 * 41, 5)
    assert d20[:, 4].max() < d10[:, 4].max()  # finer operator is closer


def test_cmd_figure_rejects_bad_id(tmp_path):
    with pytest.raises(UsageError):
        cmd_figure(4, out=tmp_path / "x")


def test_audit_report_shape():
    report = run_audit(points=5)
    assert len(report.records) == 20  # 4 identity families x 5 points
    names = {r.name.split("[")[0] for r in report.records}
    assert names == {"uni-raw", "uni-central", "bi-raw", "bi-central"}
    for record in report.records:
        assert record.abs_gap == abs(record.closed_value - record.oracle_value)
    assert len(report.summaries) == 4
    for summary in report.summaries:
        assert summary.points == 5
        assert summary.verdict in ("consistent", "divergent")
    # The transcribed identities are documented as divergent.
    assert all(s.verdict == "divergent" for s in report.summaries)


def test_audit_deterministic():
    assert run_audit(points=4) == run_audit(points=4)


def test_cmd_verify_fast_passes(capsys):
    result = cmd_verify("fast")
    out = capsys.readouterr().out
    assert result.passed
    assert result.exit_code == 0
    assert len(result.checks) == 8
    assert {c.name for c in result.checks} == {
        "partition-of-unity",
        "positivity",
        "linearity",
        "oracle-agreement",
        "central-moment-algebra",
        "tensor-factorization",
        "korovkin-trend",
        "bound-soundness",
    }
    assert "verify fast: PASS" in out
    assert "never gates" in out
    with pytest.raises(UsageError):
        cmd_verify("turbo")


def test_verify_exit_code_mapping():
    failing = VerifyResult(
        level="fast",
        checks=(CheckResult(name="x", passed=False, detail=""),),
        audit=run_audit(points=1),
        elapsed=0.0,
    )
    assert failing.exit_code == 2
    passing = VerifyResult(
        level="fast",
        checks=(CheckResult(name="x", passed=True, detail=""),),
        audit=failing.audit,
        elapsed=0.0,
    )
    assert passing.exit_code == 0


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(command="explode")
    with pytest.raises(UsageError):
        RunConfig(command="eval", format="png")
    cfg = RunConfig(command="eval", m=10)
    assert cfg.operator().m == 10
    with pytest.raises(UsageError):
        RunConfig(command="eval").operator()
    bi = RunConfig(command="bivariate", m=8, q=1).bivariate()
    assert (bi.m1, bi.m2, bi.q1, bi.q2) == (8, 8, 1, 1)


def _ref_csv(header, columns):
    """The per-row, per-value CSV join the array formatter replaced."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(CSV_FLOAT_FORMAT % v for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "columns",
    [
        [np.array([-0.0, 0.0, 1e-300, 1e300, -1e300, 5e-324, 0.1, 1 / 3, 2.5e15]),
         np.array([0, 1, -7, 2**40, 10**15, 123456789012345, 3, 4, 5])],
        [np.array([np.inf, -np.inf, np.nan]), np.arange(3.0)],
        [np.arange(0.0), np.arange(0)],
        # Many 512-row formatting blocks.
        list(np.random.default_rng(3).normal(size=(5, 9000)) * 1e4 ** np.arange(-2, 3)[:, None]),
    ],
)
def test_write_csv_matches_scalar_join(tmp_path, columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    path = tmp_path / "t.csv"
    _write_csv(path, header, columns)
    assert_same_text(path.read_bytes().decode(), _ref_csv(header, columns))


def test_write_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match="CSV columns must have equal length"):
        _write_csv(path, "a,b", [np.arange(5.0), np.arange(3.0)])
    assert not path.exists()


def test_bivariate_heatmap_ticks_follow_grid(tmp_path):
    base = tmp_path / "bi5"
    args = ["bivariate", "--m", "6", "--grid", "0.1:0.9:5", "--format", "both", "--out", str(base)]
    assert main(args) == 0
    ticks = re.findall(r'text-anchor="middle" font-size="12" font-family="Arial">([^<]*)<',
                       base.with_suffix(".svg").read_text())
    assert (ticks[0], ticks[-1]) == ("0.1", "0.9")
    rows = np.loadtxt(base.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert (rows[0, 0], rows[-1, 0]) == (0.1, 0.9)
