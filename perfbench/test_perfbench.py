"""The benchmark's own tests.  They run the real CLI, so they take about
two minutes:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(*args, cwd=HERE.parent):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=180)
    return proc, proc.stdout.decode().strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(workload, trace):
    # --seconds 0 runs exactly one task
    proc, lines = _result("--workload", workload, "--seed", "1",
                          "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    line = json.loads(lines[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float))
               for v in line["metrics"].values())


def test_wrong_oracle_fails_every_task():
    line, report = run.run_workload("count", 1, 0, False,
                                    kontsevich=lambda d: 13)
    assert line["attempted"] >= 1
    assert line["failed"] == line["attempted"]
    assert not line["correct"]
    assert report["extra"]["fail_ratio"] == 1
    assert "oracle 13" in report["tasks"][0]["faults"][0]


def test_time_limit_is_a_benchmark_error(tmp_path):
    with run.Runner(tmp_path, 0.5) as runner, \
            pytest.raises(run.BenchmarkTimeout):
        runner.process(["-c", "import time; time.sleep(30)"],
                       tmp_path / "out")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _result("--workload", "degenerate", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)
