"""What the benchmark under ``perfbench/`` relies on of the package: every
pinned pool count is what the CLI prints, the pool builder imports, and every
binding the span tracer rebinds is still there and still traced.

The benchmark's own files are read by path, not copied. The tracer is only
installed in child processes: installed here, it would rebind the package's
names for every later test.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import battery_syt
from battery_syt import cli
from conftest import masked

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(battery_syt.__file__).resolve().parents[1]


def _load(name):
    """``perfbench/<name>.py`` loaded by path, as a module of its own name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load("harness")
spans = _load("spans")

POOL = [(workload, entry)
        for workload, spec in harness.load_pool()["workloads"].items()
        for slot in spec["slots"] for entry in slot]


def _child(*argv, path=(SRC,), timeout=60):
    """``python *argv`` in a fresh process with only ``path`` on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout)


def _pinned(expr):
    return next(entry["count"] for _, entry in POOL if entry["args"][0] == expr)


@pytest.mark.parametrize("entry", [entry for _, entry in POOL],
                         ids=[f"{workload}:{' '.join(entry['args'])}" for workload, entry in POOL])
def test_every_pinned_pool_count_is_what_the_cli_prints(entry, capsys):
    status = cli.run(["count", *entry["args"]])
    captured = capsys.readouterr()
    if entry.get("pinned") == "factor-hang":
        # the factorization the pool pins as over its work budget
        assert (status, captured.out) == (3, "")
        assert captured.err.startswith("error: factorization over budget: ")
        assert captured.err.count("\n") == 1
    else:
        assert status == 0, captured.err
        assert harness.check_output(captured.out, entry) is None


def test_the_pool_builder_imports_against_the_package():
    # nothing else imports it, so a package name it imports that the package
    # no longer exports would otherwise fail only at the next rebuild
    done = _child("-c", "import build_pool", path=(SRC, PERFBENCH))
    assert (done.returncode, done.stderr) == (0, "")


def test_every_name_the_tracer_rebinds_is_bound_in_the_package():
    for module, attr, _ in spans.FUNCTION_TARGETS:
        assert callable(getattr(importlib.import_module(f"battery_syt.{module}"), attr)), (module, attr)
    for module, attr, _ in spans.REGISTRY_TARGETS:
        registry = getattr(importlib.import_module(f"battery_syt.{module}"), attr)
        assert registry and all(map(callable, registry.values())), (module, attr)


@pytest.mark.parametrize("args, count, counters", [
    (["battery:rect:11x7,a=1,k=6", "--output", "factored"],
     "2^5*3^2*5^2*11*13*17^2*19^3*23^2*29*31*37^2*41*3361178017*2839893182041", {}),
    # --method dp sends a straight partition through the DP, as the battery with
    # no stacked cells, whose .size the tracer's dp-cell note reads
    (["partition:4,3,2", "--method", "dp", "--verify", "--output", "json"], "168",
     {"oracle.dp_cells": 9, "oracle.dp_states": 28}),
    # a battery over a non-rectangular base is verified by the DP on its conjugate layout
    (["battery:part:2,1,a=1,k=2", "--verify"], "5", {}),
    # a route's module loads on its first call, through the binding the tracer wrapped
    (["battery:rect:8x9,a=5,k=3", "--method", "hyper"], _pinned("battery:rect:8x9,a=5,k=3"), {}),
    (["skew:12,12,11,10/1", "--method", "dp"], _pinned("skew:12,12,11,10/1"), {}),
], ids=["flagship-factored", "dp-json", "conjugate", "lazy-hyper", "lazy-dp"])
def test_a_traced_call_prints_what_the_untraced_call_prints(args, count, counters, tmp_path, capsys):
    summary = tmp_path / "spans.json"
    done = _child(str(PERFBENCH / "spans.py"), str(summary), "0", "count", *args)
    assert cli.run(["count", *args]) == done.returncode == 0
    captured = capsys.readouterr()
    assert (masked(done.stdout), done.stderr) == (masked(captured.out), captured.err)
    assert (json.loads(done.stdout)["count"] if "json" in args else done.stdout.strip()) == count
    recorded = json.loads(summary.read_text())["counters"]
    assert {name: recorded.get(name) for name in counters} == counters


# Installs the tracer and calls every target bound through a lazy loader,
# each with arguments whose result is known: the module loads through the
# wrapper, the result is the unwrapped one, and the span is recorded.
LAZY_BINDINGS = textwrap.dedent("""
    import battery_syt
    import battery_syt.cli
    import spans

    recorder = spans.Recorder()
    recorder.install(battery_syt)
    shape = battery_syt.BatteryShape((3, 3), 1, 2)  # 12 tableaux
    calls = {
        ("cli", "factorize"): (lambda f: str(f(12)), "2^2*3"),
        ("cli", "count_general"): (lambda f: f(3, 2, 1, 2), 12),
        ("cli", "closed_form"): (lambda f: f("k2-a1", m=3, n=2), 12),
        ("cli", "count_linear_extensions"): (lambda f: f(shape), 12),
        ("cli", "count_line_convex"): (lambda f: f(shape.row_spans()), 12),
        ("counting", "eval_pfq"): (lambda f: f((-2, 3), (1,)), (1, 1)),
        ("counting", "eval_multi_pfq"): (lambda f: battery_syt.counting.count_hyper(3, 2, 1, 2), 12),
    }
    lazy = [(module, attr, span) for module, attr, span in spans.FUNCTION_TARGETS
            if "_lazy" in getattr(getattr(battery_syt, module), attr).__wrapped__.__qualname__]
    assert {(module, attr) for module, attr, _ in lazy} == set(calls), lazy
    for module, attr, span in lazy:
        before = sum(name == span for _, _, name, *_ in recorder.spans)
        call, expected = calls[module, attr]
        assert call(getattr(getattr(battery_syt, module), attr)) == expected, (module, attr)
        assert sum(name == span for _, _, name, *_ in recorder.spans) > before, (module, attr)
        print(f"{module}.{attr}: {span} recorded")
""")


def test_every_lazy_binding_the_tracer_wraps_loads_its_module_and_records_a_span():
    done = _child("-c", LAZY_BINDINGS, path=(SRC, PERFBENCH))
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout.splitlines()) == 7
