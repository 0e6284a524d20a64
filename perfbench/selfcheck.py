"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

For every workload at its smallest size (``--smoke``) it checks that

* an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run every per-layer metric;
* a run with ``--corrupt``, which shifts the first checked result by ten
  times its tolerance, counts one more failed op and reports
  ``correct: false``: the correctness gate is live;

and that the benchmark exits non-zero without a result line in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


class SelfCheckError(Exception):
    """A property of the harness does not hold."""


def require(condition, message) -> None:
    if not condition:
        raise SelfCheckError(message)


def run(root: Path, *args: str) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(root / RUN.relative_to(ROOT)), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result(workload: str, trace: int, *extra: str) -> dict:
    code, lines = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", str(trace), "--smoke", *extra)
    require(code == 0, f"{workload}: exit {code}")
    out = json.loads(lines[-1])
    require(set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out))
    require(out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"], out)
    return out


def expect_metrics(workload: str, out: dict, wanted: list[dict]) -> None:
    names = {m["name"] for m in wanted}
    require(set(out["metrics"]) == names, f"{workload}: {sorted(set(out['metrics']) ^ names)}")
    for metric in wanted:
        printed = out["metrics"][metric["name"]]
        require(printed["unit"] == metric["unit"], f"{workload}: {metric['name']} unit {printed['unit']}")
        require(isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"]), printed)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        name = entry["name"]
        plain = result(name, 0)
        expect_metrics(name, plain, spec["end_to_end"])
        require(plain["correct"], f"{name}: a valid input failed its check")
        expect_metrics(name, result(name, 1), spec["per_layer"])
        corrupt = result(name, 0, "--corrupt")
        expected_failed = plain["failed"] / plain["attempted"] * corrupt["attempted"] + 1
        require(not corrupt["correct"], f"{name}: a corrupted result passed")
        require(corrupt["failed"] >= round(expected_failed), f"{name}: {corrupt['failed']} failed")
        passed = corrupt["metrics"]["passed_frac"]["value"]
        require(passed < plain["metrics"]["passed_frac"]["value"], f"{name}: passed_frac {passed}")
        print(f"ok {name}: metrics and units printed; corrupted result counted as failed")

    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                          "--seconds", "1", "--trace", "0")
        require(code != 0 and not any(line.startswith("{") for line in lines), (code, lines))
        print("ok bare directory: exits with code", code, "and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
