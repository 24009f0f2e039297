"""The target bench, ``bench/targets.py``: its cases cover every route, the
CLI admits each case's shape, and its cheapest case counts and checks its
digest in a child process, so a renamed route breaks the bench here rather
than in a later timing run."""

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


def _copy(into: Path) -> Path:
    """The package's source and the bench script copied into ``into``; returns the script."""
    shutil.copytree(SRC, into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (into / "bench").mkdir()
    return Path(shutil.copy(TARGETS, into / "bench"))


def test_the_bench_has_a_case_for_every_route():
    routes = {route for route, _, _ in _targets().CASES.values()}
    assert set(cli.METHODS) <= routes


def test_every_case_s_route_admits_its_shape():
    # a case times the CLI's call, so the CLI must take it: factorize and str
    # time a call on the count of the route they name in COUNTED_BY
    targets = _targets()
    for name, (route, expr, _) in targets.CASES.items():
        rule = cli.REGISTRY[targets.COUNTED_BY.get(route, route)]
        assert rule(cli.parse_shape_expr(expr), cli.DEFAULT_SIZE_CAP) is None, name


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
    argv = [sys.executable, str(_copy(tmp_path)), "--check", "--case", "conjugate skew:12,12,11,10/1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["commit"], report["dirty"]) == (None, None)
    assert list(report["cases"]) == ["conjugate skew:12,12,11,10/1"]
    done = subprocess.run(argv + ["--parent", "HEAD"], cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: --parent needs a git checkout, and {tmp_path} is not one\n"


def test_a_parent_revision_git_cannot_resolve_is_one_error_line(tmp_path):
    targets = _copy(tmp_path)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    argv = [sys.executable, str(targets), "--check", "--parent", "nosuchrev",
            "--case", "conjugate skew:12,12,11,10/1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: --parent nosuchrev names no commit of {tmp_path}\n"
