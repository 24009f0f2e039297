"""battery-syt benchmark: CLI time-to-exact-count on four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hyper-large --seed 1 --seconds 30 --trace 0

One closed-loop client runs one ``python -m battery_syt.cli count ...`` child
at a time, from ``src`` on ``PYTHONPATH``. The seed draws a batch of 40 calls
from the pinned pool (``pool.json``), spread evenly over slots of similar-cost
shapes. The batch is run in passes, each in its own seeded order, as many as
its recorded cost fits into ``--seconds`` and at least two. A call's latency
is the least of its wall times over the passes. End-to-end timings are scaled
by the run's speed reference (see ``REF_ARGV``), because the shared hosts the
benchmark runs on change speed by 20% and more over minutes. Every output is
checked against the pool's reference count, and pinned factorization where
there is one.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced passes (traced, untraced, traced, ...) and reports per-layer
metrics from the traced passes, where each child wraps the package's module
bindings with spans (``spans.py``). Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run-time files go to ``.bench_build/perfbench``.

A call fails on a nonzero exit, a traceback, a missed deadline (the pool's
``deadline_s``), or a wrong count or factorization; only the last makes the
run incorrect. Known defects that fail inside the workloads' ranges stay in.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import harness

# An untraced pass times the speed reference, a bare interpreter start that
# imports nothing (not even site), before every call, and a fresh import of
# battery_syt.cli, the set-up, before every SETUP_EVERY-th call, so both are
# sampled across the whole run.
SETUP_EVERY = 20
REF_ARGV = (sys.executable, "-S", "-c", "pass")
SETUP_ARGV = (sys.executable, "-c", "import battery_syt.cli")
# End-to-end timings are scaled to a machine on which the reference takes
# REF_START_S, about its median on the 2-vCPU Xeon VM the benchmark was tuned on.
REF_START_S = 0.02
# Work counts that must repeat exactly between traced passes of one batch.
DETERMINISTIC_COUNTS = ("oracle.dp_states", "counting.general_profiles", "shapes.hlf_calls", "arith.is_prime_calls")

# per-layer metric -> (span name, field) summed over a pass; field is self or calls
SPAN_METRICS = {
    "hypergeom.eval_s": ("hypergeom.eval", "self"),
    "hypergeom.eval_calls": ("hypergeom.eval", "calls"),
    "counting.hyper_s": ("counting.hyper", "self"),
    "counting.general_s": ("counting.general", "self"),
    "counting.general_profiles": ("shapes.complement", "calls"),
    "counting.closed_s": ("counting.closed", "self"),
    "shapes.hlf_s": ("shapes.hlf", "self"),
    "shapes.hook_s": ("shapes.hook", "self"),
    "shapes.hlf_calls": ("shapes.hlf", "calls"),
    "shapes.complement_s": ("shapes.complement", "self"),
    "arith.binomial_s": ("arith.binomial", "self"),
    "oracle.dp_s": ("oracle.dp", "self"),
    "arith.factorize_s": ("arith.factorize", "self"),
    "arith.is_prime_s": ("arith.is_prime", "self"),
    "arith.is_prime_calls": ("arith.is_prime", "calls"),
}
COUNTER_METRICS = ("oracle.dp_states", "oracle.dp_cells", "arith.count_digits")
STAGE_METRICS = {"cli.parse_s": "parse", "cli.primary_s": "primary", "cli.verify_s": "verify", "cli.output_s": "output"}
CLI_SELF_SPANS = ("cli.run", "cli.parse", "cli.method")


def environment(root):
    """nproc, CPU model, Python version, commit (when the checkout is a git
    repository) and a digest of the sources under test."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():  # a benchmark checkout is usually not a repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def time_child(argv, root, env, work):
    """Wall time of a child that must succeed (the reference or the set-up)."""
    result = harness.run_child(list(argv), 60.0, root, env, work)
    if result.returncode != 0 or result.timed_out:
        raise SystemExit(f"error: {' '.join(argv[1:])} failed with {root / 'src'} on the path:\n{result.stderr}")
    return result.wall_s


def run_pass(batch, order, traced, deadline, root, env, work, samples):
    """Run every call of the batch once, in ``order``; returns (wall seconds,
    call records by call id). Unless ``samples`` is None, an untraced pass
    appends reference and set-up times to ``samples["ref"]`` and
    ``samples["setup"]`` and leaves them out of its wall time."""
    records = [None] * len(batch)
    summary_path = work / "call.json"
    wall = 0.0
    for position, call_id in enumerate(order):
        entry = batch[call_id]
        if traced:
            summary_path.unlink(missing_ok=True)
            argv = harness.traced_argv(entry, summary_path, call_id)
        else:
            argv = harness.cli_argv(entry)
            if samples is not None:
                samples["ref"].append(time_child(REF_ARGV, root, env, work))
            if samples is not None and position % SETUP_EVERY == 0:
                samples["setup"].append(time_child(SETUP_ARGV, root, env, work))
        result = harness.run_child(argv, deadline, root, env, work)
        wall += result.wall_s
        record = {"call": call_id, "wall_s": result.wall_s, "rss_kb": result.maxrss_kb,
                  "outcome": harness.classify(result, entry), "summary": None}
        if traced and summary_path.exists():
            record["summary"] = json.loads(summary_path.read_text())
        records[call_id] = record
    return wall, records


def call_latencies(passes, scale):
    """Each call's latency: its least wall time over the passes, times ``scale``.

    Other tenants of a shared host slow a whole stretch of calls for seconds
    at a time; passes in their own orders sample every call at different
    moments, and the least of them keeps what the program itself costs. A call
    that ran into its deadline in every pass keeps the deadline's time
    unscaled, since the harness, not the program, ended it."""
    latencies = []
    for runs in zip(*(records for _, records in passes)):
        finished = [record["wall_s"] for record in runs if record["outcome"] != "timeout"]
        latencies.append(min(finished) * scale if finished else min(record["wall_s"] for record in runs))
    return latencies


def layer_metrics(records):
    """Per-layer sums over one traced pass."""
    values = {name: 0 for name in (*SPAN_METRICS, *COUNTER_METRICS, *STAGE_METRICS, "cli.self_s", "process.outside_s")}
    for record in records:
        summary = record["summary"]
        if summary is None:
            continue
        finished = record["outcome"] != "timeout"
        names = summary["names"]
        for metric, (span, field) in SPAN_METRICS.items():
            calls, _total, self_ns = names.get(span, (0, 0, 0))
            if field == "self":
                values[metric] += self_ns / 1e9
            elif finished:
                values[metric] += calls
        for metric in COUNTER_METRICS:
            if finished:
                values[metric] += summary["counters"].get(metric, 0)
        for metric, stage in STAGE_METRICS.items():
            values[metric] += summary["stages"][stage] / 1e9
        values["cli.self_s"] += sum(names.get(span, (0, 0, 0))[2] for span in CLI_SELF_SPANS) / 1e9
        root_ns = names.get("cli.run", (0, 0, 0))[1]
        values["process.outside_s"] += record["wall_s"] - root_ns / 1e9
    return values


def run_benchmark(args, root):
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    pool = harness.load_pool()
    if args.workload not in pool["workloads"]:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {sorted(pool['workloads'])}")
    deadline = pool["deadline_s"]
    slots = pool["workloads"][args.workload]["slots"]
    batch = harness.draw(slots, args.seed, args.workload)
    env = harness.child_env(root)
    env_info = environment(root)
    for argv in (REF_ARGV, SETUP_ARGV):  # warm-up: fills the page cache before anything is timed
        time_child(argv, root, env, work)

    # The pass count is planned from --seconds and the batch's costs recorded
    # in the pool (measured when the pool was built), not from the clock, so
    # every run of a workload makes the same number of calls.
    pass_cost = sum(entry["cost_s"] for entry in batch)
    planned = max(2, int(args.seconds // pass_cost))
    passes = {True: [], False: []}  # traced -> [(wall_s, records)]
    if args.trace:  # traced, untraced, traced, ...: at least two traced passes and one untraced
        kinds = [index % 2 == 0 for index in range(max(3, planned))]
    else:
        kinds = [False] * planned
    samples = None if args.trace else {"ref": [], "setup": []}
    for index, traced in enumerate(kinds):
        order = harness.pass_order(len(batch), args.seed, args.workload, index)
        passes[traced].append(run_pass(batch, order, traced, deadline, root, env, work, samples))

    all_records = [r for kind in passes.values() for _, records in kind for r in records]
    failures = {}
    for record in all_records:
        if record["outcome"] != "ok":
            failures[record["outcome"]] = failures.get(record["outcome"], 0) + 1
    wrong = sum(n for kind, n in failures.items() if kind.startswith("wrong:"))
    attempted = len(all_records)
    failed = sum(failures.values())

    lines = [f"env {json.dumps(env_info)}",
             f"workload {args.workload} seed {args.seed} calls/pass {len(batch)} "
             f"passes untraced {len(passes[False])} traced {len(passes[True])} deadline {deadline} s",
             f"failures {json.dumps(failures, sort_keys=True)}"]
    fault = None
    if args.trace:
        per_pass = [layer_metrics(records) for _, records in passes[True]]
        for name in DETERMINISTIC_COUNTS:
            seen = {values[name] for values in per_pass}
            if len(seen) > 1:
                fault = f"work count {name} drifted between traced passes: {sorted(seen)}"
        metrics = {}
        for name in per_pass[0]:
            unit = "s" if name.endswith("_s") else "count"
            value = harness.median([values[name] for values in per_pass])
            metrics[name] = {"value": value, "unit": unit}
        untraced_s = harness.median([w for w, _ in passes[False]])
        traced_s = harness.median([w for w, _ in passes[True]])
        metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
        spans_path = work / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([
            {"pass": i, "call": r["call"], "args": batch[r["call"]]["args"], "outcome": r["outcome"],
             "spans": r["summary"]["spans"] if r["summary"] else None}
            for i, (_, records) in enumerate(passes[True]) for r in records]))
        lines.append(f"spans written to {spans_path.relative_to(root)}")
        for name, metric in metrics.items():
            lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    else:
        ref_s = harness.median(samples["ref"])
        scale = REF_START_S / ref_s
        latencies = call_latencies(passes[False], scale)
        unscaled = call_latencies(passes[False], 1.0)
        tail = harness.tail_percentile(latencies)
        if tail is None:
            raise SystemExit(f"error: {len(latencies)} calls are too few for a tail percentile")
        setup_s = harness.median(samples["setup"])
        batch_s = sum(latencies)
        p50_s = harness.hd_quantile(latencies, 0.5)
        tail_s = harness.hd_quantile(latencies, tail[0] / 100.0)
        metrics = {
            "setup_s": {"value": setup_s * scale, "unit": "s"},
            "batch_s": {"value": batch_s, "unit": "s"},
            "latency_p50_s": {"value": p50_s, "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": max(r["rss_kb"] for r in all_records) / 1024.0, "unit": "MB"},
        }
        n_passes = len(passes[False])
        notes = {
            "setup_s": f"median of {len(samples['setup'])} fresh imports of battery_syt.cli spread over the run; "
                       f"unscaled {setup_s:.6g} s",
            "batch_s": f"sum over {len(batch)} calls of each call's best of {n_passes} passes; "
                       f"unscaled {sum(unscaled):.6g} s; pass walls {' '.join(f'{w:.3f}' for w, _ in passes[False])}",
            "latency_p50_s": f"Harrell-Davis median of {len(latencies)} calls' best of {n_passes} passes; "
                             f"unscaled {harness.hd_quantile(unscaled, 0.5):.6g} s",
            "latency_tail_s": f"Harrell-Davis p{tail[0]:g} of {len(latencies)} calls' best of {n_passes} passes, "
                              f"{tail[2]} beyond it; unscaled {harness.hd_quantile(unscaled, tail[0] / 100.0):.6g} s",
            "ok_ratio": f"{attempted - failed} of {attempted} calls ok",
            "peak_rss_mb": "largest child peak RSS",
        }
        lines.append(f"timings scaled by {scale:.6g} = {REF_START_S} s / {ref_s:.6g} s, the median of "
                     f"{len(samples['ref'])} bare interpreter starts, one before each call")
        for name, metric in metrics.items():
            lines.append(f"{name} {metric['value']:.6g} {metric['unit']} ({notes[name]})")
        lines.append(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} calls failed)")
    if fault:
        lines.append(f"benchmark fault: {fault}")
    for line in lines:
        print(line)
    result = {"correct": wrong == 0 and fault is None, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "battery_syt" / "cli.py").is_file():
        print(f"error: no battery_syt sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    run_benchmark(args, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
