"""The target bench, ``bench/targets.py``: its cases cover every route, and its
cheapest case counts and checks its digest in a child process, so a renamed
route breaks the bench here rather than in a later timing run."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import battery_syt
from battery_syt import cli

TARGETS = Path(__file__).resolve().parents[1] / "bench" / "targets.py"
SRC = Path(battery_syt.__file__).resolve().parents[1]


def _targets():
    spec = importlib.util.spec_from_file_location("bench_targets", TARGETS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_has_a_case_for_every_route():
    routes = {route for route, _, _ in _targets().CASES.values()}
    assert set(cli.METHODS) <= routes


def test_the_cheapest_case_checks_its_count_within_2_s():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(TARGETS), "--check", "--case", "conjugate skew:12,12,11,10/1"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - started < 2
    assert '"conjugate skew:12,12,11,10/1"' in done.stdout


def test_the_bench_checks_a_count_outside_a_git_checkout(tmp_path):
    # a benchmark checkout is usually not a repository: the report has no
    # commit, and --parent, which needs git archive, is one error line
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bench").mkdir()
    shutil.copy(TARGETS, tmp_path / "bench")
    argv = [sys.executable, str(tmp_path / "bench" / "targets.py"),
            "--check", "--case", "conjugate skew:12,12,11,10/1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["commit"], report["dirty"]) == (None, None)
    assert list(report["cases"]) == ["conjugate skew:12,12,11,10/1"]
    done = subprocess.run(argv + ["--parent", "HEAD"], cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: --parent needs a git checkout, and {tmp_path} is not one\n"
