"""Build ``perfbench/pool.json``, the pinned pool the benchmark draws from.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/build_pool.py measure
    PYTHONPATH=src python3 perfbench/build_pool.py select
    PYTHONPATH=src python3 perfbench/build_pool.py recost   # optional, see below

For each workload it generates candidate shape expressions from a fixed seed
within the workload's stated ranges, times each one as a CLI call (the least
of two runs), and keeps, per band, the candidates that fall into the band's
cost window. A band's survivors are sorted by cost and cut into slots of
similar cost; the benchmark draws one entry per slot. Every kept count is
computed by two independent routes and must agree:

* rectangle batteries: a formula (closed, hyper or general) against the DP
  at up to 120 cells, otherwise hyper against general;
* straight partitions: hook length formula against the DP;
* batteries over other bases: the battery DP against the line-convex DP;
* skew shapes: the line-convex DP against the Aitken determinant;
* truncated shapes: the line-convex DP against a memoised corner-removal
  count written here.

Factorizations of ``factor`` entries are pinned from the CLI's output after
checking that they reconstruct the count, that the primes ascend, and (when
sympy is installed) that ``sympy.factorint`` agrees. The two flagship
factorizations are pinned verbatim from the paper. The build takes tens of
minutes on two cores; timings depend on the machine, so the pool is checked
in rather than rebuilt by the benchmark.

``recost`` re-times every entry of the checked-in pool, as the least of
RECOST_ROUNDS runs in rounds of shuffled order, and re-cuts each band's
entries into slots of consecutive cost. Costs taken at one sitting are
comparable, so slot-mates end up closer in cost than two runs per candidate
at build time make them; the references stay as pinned.
"""

import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import harness

from battery_syt.cli import parse_shape_expr
from battery_syt.counting import COUNT_BY_COLUMN, closed_form, count_general, match_closed_form
from battery_syt.oracle import count_line_convex, count_linear_extensions
from battery_syt.shapes import BatteryShape, SkewShape, TruncatedShape, syt_count_straight

DP_CAP = 120
# Calls slower than this (untraced, on the build machine) stay out of the pool
# unless a band pins them; the per-call deadline must stay well above it.
MAX_COST_S = 1.3
DEADLINE_S = 4.0
SLOT_SIZE = 3
RECOST_ROUNDS = 4
# digits of the counts the factor workload factorizes
FACTOR_DIGITS = (40, 400)

FLAGSHIPS = {
    "battery:rect:11x7,a=1,k=6":
        "2^5*3^2*5^2*11*13*17^2*19^3*23^2*29*31*37^2*41*3361178017*2839893182041",
    "battery:rect:7x11,a=1,k=4":
        "2^7*3^2*5^2*7*13*17^3*19^3*23^2*29^2*31^2*37^2*41*43*59*61*67*71*73*2792843",
}
# In every factor batch: the factorization that hangs (ROADMAP section 5), the
# count with a 24-digit prime factor, and both flagships.
PINNED = {
    "battery:rect:20x20,a=5,k=6": "factor-hang",
    "battery:rect:14x14,a=3,k=6": "prime-above-proven-mr-range",
    **{expr: "flagship" for expr in FLAGSHIPS},
}


def _rect(m, n, a, k):
    return f"battery:rect:{m}x{n},a={a},k={k}"


def _partition(rng, rows, largest):
    parts = sorted((rng.randint(1, largest) for _ in range(rows)), reverse=True)
    return parts


def _csv(parts):
    return ",".join(str(p) for p in parts)


def _auto(m, n, a, k):
    if match_closed_form(m, n, a, k) is not None:
        return "closed"
    return "hyper" if k in COUNT_BY_COLUMN else "general"


def candidates(rng):
    """Yield (workload, band, args) for every candidate, from a seeded generator."""
    # hyper-large: auto resolves to hyper (no closed form matches)
    for _ in range(40):
        m, n, a, k = rng.randint(30, 64), rng.randint(30, 64), rng.randint(4, 9), rng.randint(2, 3)
        if _auto(m, n, a, k) == "hyper":
            yield "hyper-large", "k2-3", [_rect(m, n, a, k)]
    for k, count in ((4, 24), (5, 30), (6, 40)):
        for _ in range(count):
            m, n, a = rng.randint(14, 24), rng.randint(14, 24), rng.randint(1, 6)
            yield "hyper-large", f"k{k}", [_rect(m, n, a, k)]
    # general-high-k: k >= 7 picks general; up to 120 cells so the DP can check the pool
    for _ in range(300):
        k = rng.randint(7, 10)
        n = rng.randint(5, 10)
        m = rng.randint(k, 24)
        a = rng.randint(1, 4)
        if m * n + a <= DP_CAP:
            yield "general-high-k", "k7-10", [_rect(m, n, a, k)]
    for _ in range(40):
        k = rng.randint(4, 6)
        m, n, a = rng.randint(11, 16), rng.randint(11, 16), rng.randint(1, 4)
        if m * n + a > DP_CAP and _auto(m, n, a, k) == "hyper":
            yield "general-high-k", "verify-general", [_rect(m, n, a, k), "--verify"]
    # dp-verify
    for _ in range(150):
        k = rng.randint(2, 6)
        n = rng.randint(4, 11)
        m = rng.randint(max(k, 55 // n), 110 // n)
        a = rng.randint(1, 4)
        if 55 <= m * n + a <= 110 and m >= k:
            yield "dp-verify", "rect-verify", [_rect(m, n, a, k), "--verify"]
    for _ in range(80):
        parts = _partition(rng, rng.randint(4, 7), 11)
        if len(set(parts)) > 1 and 35 <= sum(parts) <= 70:
            k = rng.randint(1, parts[0])
            yield "dp-verify", "battery-dp", [f"battery:part:{_csv(parts)},a={rng.randint(1, 4)},k={k}", "--method", "dp"]
    for _ in range(80):
        outer = _partition(rng, rng.randint(4, 7), 12)
        inner = [min(rng.randint(0, 4), p) for p in outer[: rng.randint(1, 3)]]
        inner = sorted(inner, reverse=True)
        inner = [p for p in inner if p > 0]
        if inner and 35 <= sum(outer) - sum(inner) <= 70:
            yield "dp-verify", "skew-dp", [f"skew:{_csv(outer)}/{_csv(inner)}", "--method", "dp"]
    for _ in range(50):
        outer = _partition(rng, rng.randint(4, 7), 12)
        cut = [rng.randint(1, 3)]
        if 35 <= sum(outer) - cut[0] <= 70:
            yield "dp-verify", "truncated-dp", [f"truncated:{_csv(outer)}\\{_csv(cut)}", "--method", "dp"]
    for _ in range(50):
        parts = _partition(rng, rng.randint(5, 9), 12)
        if 45 <= sum(parts) <= 80:
            yield "dp-verify", "straight-verify", [f"partition:{_csv(parts)}", "--verify"]
    # factor: counts of 40-400 digits whose primary count is cheap
    for expr in PINNED:
        yield "factor", "pinned", [expr, "--output", "json"]
    for _ in range(120):
        k = rng.randint(2, 6)
        m, n, a = rng.randint(max(k, 5), 16), rng.randint(4, 14), rng.randint(1, 5)
        mode = "factored" if rng.random() < 0.2 else "json"
        yield "factor", f"out-{mode}", [_rect(m, n, a, k), "--output", mode]


# band: (slots, largest cost in seconds a kept candidate may have). The slot
# counts and cost caps make one pass about 8 s and at least 20 calls, so a
# 30 s run makes three passes and the tail percentile has ten calls beyond it.
BANDS = {
    "hyper-large": {"k2-3": (7, MAX_COST_S), "k2-3-defect": (1, MAX_COST_S), "k4": (4, MAX_COST_S),
                    "k5": (5, MAX_COST_S), "k6": (3, MAX_COST_S)},
    "general-high-k": {"k7-10": (15, 0.8), "verify-general": (5, 0.7)},
    "dp-verify": {"rect-verify": (10, 1.0), "battery-dp": (3, MAX_COST_S), "skew-dp": (3, MAX_COST_S),
                  "truncated-dp": (2, MAX_COST_S), "straight-verify": (3, MAX_COST_S)},
    "factor": {"pinned": (4, None), "out-json": (13, 0.5), "out-factored": (3, 0.5)},
}


# --- reference counts by two routes -------------------------------------------------


def aitken(outer, inner):
    """Skew tableau count n! det[1/(outer_i - inner_j - i + j)!] (Aitken 1943)."""
    rows = len(outer)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    matrix = [
        [Fraction(1, factorial(outer[i] - inner[j] - i + j)) if outer[i] - inner[j] - i + j >= 0 else Fraction(0)
         for j in range(rows)]
        for i in range(rows)
    ]
    det = Fraction(1)
    for col in range(rows):
        pivot = next((r for r in range(col, rows) if matrix[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            det = -det
        det *= matrix[col][col]
        for r in range(col + 1, rows):
            ratio = matrix[r][col] / matrix[col][col]
            for c in range(col, rows):
                matrix[r][c] -= ratio * matrix[col][c]
    value = det * factorial(sum(outer) - sum(inner))
    assert value.denominator == 1
    return value.numerator


def corner_removal_count(spans):
    """Tableaux of a row-contiguous diagram by removing the largest entry,
    memoised on the per-row cell counts still present."""
    starts = tuple(s for s, _ in spans)

    @lru_cache(maxsize=None)
    def count(lengths):
        if not any(lengths):
            return 1
        total = 0
        for i, length in enumerate(lengths):
            if length == 0:
                continue
            col = starts[i] + length - 1
            below = i + 1 < len(lengths) and starts[i + 1] <= col < starts[i + 1] + lengths[i + 1]
            if not below:
                total += count(lengths[:i] + (length - 1,) + lengths[i + 1:])
        return total

    return count(tuple(e - s for s, e in spans))


def reference(expr):
    """(count, routes) with the count agreed by two routes."""
    shape = parse_shape_expr(expr)
    if isinstance(shape, BatteryShape) and shape.is_rectangle():
        m, n, a, k = shape.lam[0], len(shape.lam), shape.a, shape.k
        match = match_closed_form(m, n, a, k)
        if shape.size <= DP_CAP:
            if match is not None:
                first = ("closed", closed_form(match[0], **match[1]))
            elif k in COUNT_BY_COLUMN:
                first = ("hyper", COUNT_BY_COLUMN[k](m, n, a))
            else:
                first = ("general", count_general(m, n, a, k))
            second = ("dp", count_linear_extensions(shape, DP_CAP))
        else:
            first = ("hyper", COUNT_BY_COLUMN[k](m, n, a))
            second = ("general", count_general(m, n, a, k))
    elif isinstance(shape, BatteryShape):
        first = ("dp", count_linear_extensions(shape, DP_CAP))
        second = ("line-convex-dp", count_line_convex(shape.row_spans(), DP_CAP))
    elif isinstance(shape, tuple):
        first = ("hlf", syt_count_straight(shape))
        second = ("dp", count_linear_extensions(BatteryShape(shape, 0, 1), DP_CAP))
    elif isinstance(shape, SkewShape):
        first = ("line-convex-dp", count_line_convex(shape.row_spans(), DP_CAP))
        second = ("aitken", aitken(shape.outer, shape.inner))
    elif isinstance(shape, TruncatedShape):
        first = ("line-convex-dp", count_line_convex(shape.row_spans(), DP_CAP))
        second = ("corner-removal", corner_removal_count(shape.row_spans()))
    else:
        raise TypeError(expr)
    if first[1] != second[1]:
        raise SystemExit(f"routes disagree on {expr}: {first[0]}={first[1]} {second[0]}={second[1]}")
    return first[1], [first[0], second[0]]


def pinned_factors(expr, count, stdout):
    if expr in FLAGSHIPS:
        return FLAGSHIPS[expr]
    factors = [(int(p), int(e)) for p, e in json.loads(stdout)["factorization"]] if stdout.lstrip().startswith("{") \
        else harness.parse_factored(stdout)
    problem = harness.factorization_problem(factors, count, None)
    if problem:
        raise SystemExit(f"{expr}: {problem}")
    try:
        from sympy import factorint
    except ImportError:
        factorint = None
    if factorint is not None and sorted(factorint(count).items()) != factors:
        raise SystemExit(f"{expr}: sympy disagrees with the CLI factorization")
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


# --- cost measurement and slot selection ---------------------------------------------


def measure(args, env, scratch):
    """The faster of two untraced CLI runs."""
    entry = {"args": args}
    runs = [harness.run_child(harness.cli_argv(entry), DEADLINE_S, ".", env, scratch) for _ in range(2)]
    return min(runs, key=lambda r: r.wall_s)


def pick_slots(items, slots):
    """Cut cost-sorted items into ``slots`` equal chunks and keep the
    SLOT_SIZE items nearest each chunk's median cost."""
    items = sorted(items, key=lambda it: it["cost_s"])
    if len(items) < slots * SLOT_SIZE:
        raise SystemExit(f"only {len(items)} candidates for {slots} slots")
    chunk = len(items) / slots
    chosen = []
    for s in range(slots):
        part = items[round(s * chunk):round((s + 1) * chunk)]
        mid = part[len(part) // 2]["cost_s"]
        nearest = sorted(part, key=lambda it: abs(it["cost_s"] - mid))[:SLOT_SIZE]
        chosen.append(sorted(nearest, key=lambda it: it["cost_s"]))
    return chosen


def output_digits(stdout):
    """Digits of the count in a json or factored CLI output."""
    text = stdout.strip()
    if text.startswith("{"):
        return len(json.loads(text)["count"])
    product = 1
    for prime, exponent in harness.parse_factored(text):
        product *= prime ** exponent
    return len(str(product))


def measure_candidates(env, scratch):
    """Time every candidate; sort survivors into bands."""
    rng = random.Random(20221)
    seen = set()
    found = {}
    for workload, band, args in candidates(rng):
        if (workload, tuple(args)) in seen:
            continue
        seen.add((workload, tuple(args)))
        result = measure(args, env, scratch)
        item = {"args": args, "cost_s": round(result.wall_s, 4)}
        if band == "pinned":
            item["pinned"] = PINNED[args[0]]
        elif band == "k2-3" and harness.TRACEBACK_MARK in result.stderr:
            band = "k2-3-defect"
            item["defect"] = "int-str-limit"
        elif result.returncode != 0 or result.timed_out:
            continue
        elif workload == "factor":
            item["digits"] = output_digits(result.stdout)
        found.setdefault(f"{workload}/{band}", []).append(item)
        print(f"{workload:15s} {band:22s} {result.wall_s:6.3f}s rc={result.returncode} {' '.join(args)}", flush=True)
    return found


def select(found, env, scratch):
    pool = {"deadline_s": DEADLINE_S, "workloads": {}}
    for workload, bands in BANDS.items():
        slots = []
        for band, (count, max_cost) in bands.items():
            items = found.get(f"{workload}/{band}", [])
            if band.startswith("pinned"):
                slots.extend([item] for item in items)
                continue
            kept = [it for it in items if it["cost_s"] <= max_cost]
            if workload == "factor":
                kept = [it for it in kept if FACTOR_DIGITS[0] <= it["digits"] <= FACTOR_DIGITS[1]]
            slots.extend(pick_slots(kept, count))
        for slot in slots:
            for item in slot:
                item["band"] = band_of(workload, item)
                count, routes = reference(item["args"][0])
                item["count"] = str(count)
                item["routes"] = routes
                if workload == "factor" and item.get("pinned") != "factor-hang":
                    result = measure(item["args"], env, scratch)
                    item["factors"] = pinned_factors(item["args"][0], count, result.stdout)
                print(f"ref {workload} {' '.join(item['args'])} {routes}", flush=True)
        pool["workloads"][workload] = {"slots": slots}
    return pool


def band_of(workload, item):
    """The band a pool entry was selected from, from its arguments."""
    args = item["args"]
    if workload == "hyper-large":
        if "defect" in item:
            return "k2-3-defect"
        k = int(args[0].rsplit("k=", 1)[1])
        return "k2-3" if k <= 3 else f"k{k}"
    if workload == "general-high-k":
        return "verify-general" if "--verify" in args else "k7-10"
    if workload == "dp-verify":
        prefixes = {"battery:rect:": "rect-verify", "battery:part:": "battery-dp", "skew:": "skew-dp",
                    "truncated:": "truncated-dp", "partition:": "straight-verify"}
        return next(band for prefix, band in prefixes.items() if args[0].startswith(prefix))
    if "pinned" in item:
        return "pinned"
    return f"out-{harness.expected_output(item)}"


def recost(pool, env, scratch):
    """Re-time every entry and re-cut each band into slots of consecutive cost."""
    rng = random.Random(20222)
    for workload, spec in pool["workloads"].items():
        items = [item for slot in spec["slots"] for item in slot]
        timed = [item for item in items if item.get("pinned") != "factor-hang"]
        best = {id(item): float("inf") for item in timed}
        for round_ in range(RECOST_ROUNDS):
            for item in rng.sample(timed, len(timed)):
                result = harness.run_child(harness.cli_argv(item), DEADLINE_S, ".", env, scratch)
                best[id(item)] = min(best[id(item)], result.wall_s)
            print(f"recost {workload} round {round_ + 1}/{RECOST_ROUNDS}", flush=True)
        for item in timed:
            item["cost_s"] = round(best[id(item)], 4)
        slots = []
        for band in BANDS[workload]:
            members = sorted((item for item in items if band_of(workload, item) == band),
                             key=lambda item: item["cost_s"])
            size = 1 if band == "pinned" else SLOT_SIZE
            for start in range(0, len(members), size):
                slot = members[start:start + size]
                for item in slot:
                    item["band"] = band
                slots.append(slot)
        spec["slots"] = slots
    return pool


def write_pool(pool):
    with open(harness.POOL_PATH, "w") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


def main(argv):
    """``measure`` times the candidates into .bench_build/pool/candidates.json;
    ``select`` cuts them into slots, pins references and writes pool.json;
    ``recost`` re-times pool.json's entries and re-cuts its slots."""
    sys.set_int_max_str_digits(0)
    env = harness.child_env(Path(".").resolve())
    scratch = Path(".bench_build/pool")
    scratch.mkdir(parents=True, exist_ok=True)
    found_path = scratch / "candidates.json"
    if argv[:1] == ["measure"]:
        found_path.write_text(json.dumps(measure_candidates(env, scratch), indent=1))
    elif argv[:1] == ["select"]:
        write_pool(select(json.loads(found_path.read_text()), env, scratch))
    elif argv[:1] == ["recost"]:
        write_pool(recost(harness.load_pool(), env, scratch))
    else:
        raise SystemExit("usage: build_pool.py measure|select|recost")


if __name__ == "__main__":
    main(sys.argv[1:])
