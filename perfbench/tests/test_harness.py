"""Tests of the benchmark harness's own logic.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


# --- self-time arithmetic ------------------------------------------------------------


def test_covered_ns_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered_ns(0, 100, []) == 0
    assert spans.covered_ns(0, 100, [(10, 20), (30, 50)]) == 30
    assert spans.covered_ns(0, 100, [(10, 40), (30, 50)]) == 40
    assert spans.covered_ns(0, 100, [(30, 50), (10, 40)]) == 40
    assert spans.covered_ns(0, 100, [(-20, 10), (90, 130)]) == 20
    assert spans.covered_ns(0, 100, [(100, 120)]) == 0


def test_self_time_is_duration_minus_children():
    # root [0,100] with children [10,30] and [40,90]; the second has a child [50,60]
    recorded = [
        (2, 0, "b", 10, 30, None),
        (4, 3, "d", 50, 60, None),
        (3, 0, "c", 40, 90, None),
        (0, None, "a", 0, 100, None),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 30, 2: 20, 3: 40, 4: 10}
    assert sum(own.values()) == 100


def test_summarize_sums_names_and_measures_stages_outside_in():
    recorded = [
        (1, 0, "cli.parse", 5, 10, None),
        (3, 2, "counting.hyper", 21, 39, None),
        (2, 0, "cli.method", 20, 40, "primary"),
        (5, 4, "oracle.dp", 42, 88, None),
        (4, 0, "cli.method", 41, 90, "verify"),
        (0, None, "cli.run", 0, 100, None),
    ]
    summary = spans.summarize(recorded)
    assert summary["stages"] == {"parse": 10, "primary": 20, "verify": 49, "output": 10}
    calls, total, own = summary["names"]["cli.method"]
    assert (calls, total, own) == (2, 69, 2 + 3)
    assert summary["names"]["cli.run"][2] == 100 - 5 - 20 - 49


def test_method_spans_are_labelled_primary_then_verify():
    recorder = spans.Recorder()
    count = recorder.wrap("cli.method", lambda shape: shape * 2, recorder._method_note)
    nested = recorder.wrap("counting.hyper", lambda: count(2))
    assert nested() == 4
    assert count(3) == 6
    names = [(name, note) for _id, _parent, name, _s, _e, note in recorder.spans]
    assert names == [("cli.method", "primary"), ("counting.hyper", None), ("cli.method", "verify")]
    by_id = {span[0]: span for span in recorder.spans}
    assert by_id[1][1] == 0  # the method span's parent is the enclosing span
    assert by_id[2][1] is None


def test_wrapped_exceptions_close_the_span():
    recorder = spans.Recorder()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        recorder.wrap("x", boom)()
    assert len(recorder.spans) == 1 and recorder.stack == []


# --- percentile admissibility --------------------------------------------------------


@pytest.mark.parametrize("n, percentile, beyond", [
    (20, 50.0, 10),
    (39, 50.0, 19),
    (40, 75.0, 10),
    (99, 75.0, 24),
    (100, 90.0, 10),
    (200, 95.0, 10),
    (1000, 99.0, 10),
])
def test_tail_is_the_highest_percentile_with_ten_calls_beyond(n, percentile, beyond):
    values = list(range(n, 0, -1))
    p, value, count = harness.tail_percentile(values)
    assert (p, count) == (percentile, beyond)
    assert sum(v > value for v in values) == beyond


def test_tail_needs_twenty_calls():
    assert harness.tail_percentile(list(range(19))) is None


def test_harrell_davis_quantile():
    assert harness.hd_quantile([0.25] * 40, 0.75) == pytest.approx(0.25)
    # symmetric weights: the median of an arithmetic sequence is its middle
    assert harness.hd_quantile(list(range(1, 42)), 0.5) == pytest.approx(21)
    values = [1.0 + (i * 37 % 40) / 10 for i in range(40)]
    assert harness.hd_quantile(values, 0.5) < harness.hd_quantile(values, 0.75) < max(values)
    # close to the nearest-rank percentile, and it moves little when two
    # neighbours of that rank trade places
    p75 = harness.tail_percentile(values)[1]
    assert harness.hd_quantile(values, 0.75) == pytest.approx(p75, rel=0.05)


# --- per-call latencies --------------------------------------------------------------


def _pass(*calls):
    return 0.0, [{"wall_s": wall, "outcome": outcome} for wall, outcome in calls]


def test_call_latency_is_the_least_wall_over_passes_scaled():
    passes = [_pass((0.5, "ok"), (2.0, "traceback")), _pass((0.4, "ok"), (2.2, "traceback"))]
    assert run.call_latencies(passes, 2.0) == pytest.approx([0.8, 4.0])


def test_a_call_that_always_timed_out_keeps_its_unscaled_deadline():
    passes = [_pass((4.01, "timeout"), (1.0, "ok")), _pass((4.02, "timeout"), (1.1, "ok"))]
    assert run.call_latencies(passes, 0.5) == pytest.approx([4.01, 0.5])
    # a call that finished in one pass takes its finished time
    mixed = [_pass((4.01, "timeout")), _pass((1.5, "ok"))]
    assert run.call_latencies(mixed, 0.5) == pytest.approx([0.75])


# --- failure classification ----------------------------------------------------------


def _result(stdout="", stderr="", returncode=0, timed_out=False):
    return harness.CallResult(wall_s=0.1, returncode=returncode, timed_out=timed_out,
                              stdout=stdout, stderr=stderr, maxrss_kb=1)


DECIMAL = {"args": ["battery:rect:2x2,a=1,k=2"], "count": "5"}
JSON = {"args": ["battery:rect:2x2,a=2,k=2", "--output", "json"], "count": "12"}
FACTORED = {"args": ["x", "--output", "factored"], "count": "360"}
PINNED = {"args": ["x", "--output", "factored"], "count": "360", "factors": "2^3*3^2*5"}


def test_classification_order_and_kinds():
    tb = "Traceback (most recent call last):\n  ...\nValueError: Exceeds the limit"
    assert harness.classify(_result("5\n", timed_out=True, returncode=-9), DECIMAL) == "timeout"
    assert harness.classify(_result(stderr=tb, returncode=1), DECIMAL) == "traceback"
    assert harness.classify(_result(stderr="error: no", returncode=3), DECIMAL) == "exit3"
    assert harness.classify(_result("5\n"), DECIMAL) == "ok"
    assert harness.classify(_result("6\n"), DECIMAL) == "wrong:wrong count"


def test_json_and_factored_outputs_must_reconstruct_the_count():
    ok_json = json.dumps({"count": "12", "factorization": [[2, 2], [3, 1]]})
    assert harness.classify(_result(ok_json), JSON) == "ok"
    bad_json = json.dumps({"count": "12", "factorization": [[2, 1], [3, 1]]})
    assert harness.classify(_result(bad_json), JSON) == "wrong:factorization does not reconstruct the count"
    assert harness.classify(_result("{"), JSON) == "wrong:unreadable output"
    assert harness.classify(_result("2^3*3^2*5\n"), FACTORED) == "ok"
    assert harness.classify(_result("3^2*2^3*5\n"), FACTORED) == "wrong:primes not strictly ascending"
    assert harness.classify(_result("2^3*5*9\n"), FACTORED) == "wrong:factor 9 is composite"
    assert harness.classify(_result("2^3*3^2*5\n"), PINNED) == "ok"
    assert harness.classify(_result("8*3^2*5\n"), PINNED) == "wrong:factorization differs from the pinned one"


def test_probable_prime_check():
    assert [n for n in range(30) if harness.is_probable_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert harness.is_probable_prime(2 ** 89 - 1)
    assert not harness.is_probable_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


# --- the seeded draw -----------------------------------------------------------------


SLOTS = [[{"args": [f"s{i}-{j}"]} for j in range(3)] for i in range(12)]


def test_draw_is_determined_by_the_seed():
    first = harness.draw(SLOTS, 5, "w", size=30)
    assert first == harness.draw(SLOTS, 5, "w", size=30)
    assert first != harness.draw(SLOTS, 6, "w", size=30)
    assert first != harness.draw(SLOTS, 5, "other", size=30)


def test_draw_spreads_the_batch_evenly_over_the_slots():
    picked = harness.draw(SLOTS, 11, "w", size=30)
    per_slot = {}
    for entry in picked:
        slot = entry["args"][0].split("-")[0]
        per_slot[slot] = per_slot.get(slot, 0) + 1
    assert len(picked) == len({entry["args"][0] for entry in picked}) == 30
    # two full rounds, then a third round over the first six slots in pool order
    assert per_slot == {f"s{i}": 3 if i < 6 else 2 for i in range(12)}


def test_draw_refuses_a_batch_larger_than_the_pool():
    with pytest.raises(ValueError):
        harness.draw(SLOTS, 1, "w", size=37)


def test_every_workload_draws_a_full_batch_of_similar_cost():
    pool = harness.load_pool()
    for workload, spec in pool["workloads"].items():
        costs = [sum(entry["cost_s"] for entry in harness.draw(spec["slots"], seed, workload))
                 for seed in range(20)]
        assert max(costs) / min(costs) < 1.05, workload


def test_pass_order_is_a_seeded_permutation_per_pass():
    first = harness.pass_order(40, 3, "w", 0)
    assert sorted(first) == list(range(40))
    assert first == harness.pass_order(40, 3, "w", 0)
    assert first != harness.pass_order(40, 3, "w", 1)
    assert first != harness.pass_order(40, 4, "w", 0)


def test_every_factor_batch_holds_the_pinned_calls():
    pool = harness.load_pool()
    pinned = {
        "battery:rect:20x20,a=5,k=6", "battery:rect:14x14,a=3,k=6",
        "battery:rect:11x7,a=1,k=6", "battery:rect:7x11,a=1,k=4",
    }
    for seed in range(20):
        batch = harness.draw(pool["workloads"]["factor"]["slots"], seed, "factor")
        assert pinned <= {entry["args"][0] for entry in batch}


# --- the traced child ----------------------------------------------------------------


def test_traced_child_reports_primary_and_verify(tmp_path):
    out = tmp_path / "call.json"
    env = harness.child_env(ROOT)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), str(out), "3",
         "count", "battery:rect:5x3,a=1,k=3", "--verify"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert summary["call"] == 3
    assert summary["stages"]["primary"] > 0 and summary["stages"]["verify"] > 0
    assert summary["counters"]["oracle.dp_states"] > 0
    assert summary["counters"]["oracle.dp_cells"] == 16
    methods = [span for span in summary["spans"] if span["name"] == "cli.method"]
    assert [span["note"] for span in methods] == ["primary", "verify"]
    assert {span["call"] for span in summary["spans"]} == {3}
