"""Smoke test of the benchmark command: perfbench's self-test, then one
short run of every workload BENCHMARK.json lists, each on a copy of the
checkout in a temporary directory so that ``.perfbench_runs/`` lands
there.  A program change that breaks the benchmark run itself fails here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    (root / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "reference_tables.py", root / "tests")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def run(checkout, *argv):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["DETLINKS_CACHE"] = str(checkout / "cache")
    return subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=300)


def test_selftest_passes(checkout):
    done = run(checkout, "perfbench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest passed"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(checkout, workload):
    done = run(checkout, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
    assert (checkout / ".perfbench_runs").is_dir()
