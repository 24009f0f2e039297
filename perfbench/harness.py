"""The benchmark's building blocks: the seeded draw from the pinned pool, the
output checks, failure classification, the tail-percentile rule, and the
child-process runner used by ``run.py`` and ``build_pool.py``.
"""

import json
import math
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"

# Percentiles the tail metric may report; the highest one with at least
# MIN_BEYOND calls beyond it is used.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Calls in a batch: the fewest with a percentile above the median that has
# MIN_BEYOND calls beyond it (p75).
BATCH_SIZE = 40

TRACEBACK_MARK = "Traceback (most recent call last)"

# After its deadline a child gets SIGTERM, so a traced child can still write
# its spans, and SIGKILL if it has not ended this much later.
KILL_GRACE_S = 2.0

# Primes below 72 as Miller-Rabin bases for checking factors the pool does not
# pin; this is the harness's own test, independent of battery_syt.arith.
_CHECK_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def load_pool(path=POOL_PATH):
    with open(path) as fh:
        return json.load(fh)


def draw(slots, seed, workload, size=BATCH_SIZE):
    """``size`` entries spread evenly over the slots, in a seeded order.

    Entries of a slot have similar cost, so every draw costs about the same.
    The batch takes the slots' entries round by round: one from every slot,
    then a second from every slot, and so on. A last, partial round takes
    slots in pool order, so which slots give an extra entry does not depend
    on the seed. The seed picks the entries that stand for each slot and the
    call order.
    """
    rng = random.Random(f"{workload}:{seed}")
    shuffled = [rng.sample(slot, len(slot)) for slot in slots]
    rounds = max(len(slot) for slot in slots)
    picks = [slot[r] for r in range(rounds) for slot in shuffled if r < len(slot)][:size]
    if len(picks) < size:
        raise ValueError(f"the pool holds {len(picks)} entries for a batch of {size}")
    rng.shuffle(picks)
    return picks


def pass_order(size, seed, workload, index):
    """The seeded order in which pass ``index`` runs the batch's calls, a
    fresh one per pass, so a call does not meet the same moment of a pass
    each time."""
    order = list(range(size))
    random.Random(f"{workload}:{seed}:pass{index}").shuffle(order)
    return order


def expected_output(entry):
    args = entry["args"]
    if "--output" in args:
        return args[args.index("--output") + 1]
    return "decimal"


def is_probable_prime(n):
    if n < 2:
        return False
    for p in _CHECK_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _CHECK_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_factored(text):
    """``2^5*3*...`` as [(prime, exponent), ...]; ``1`` is the empty product."""
    text = text.strip()
    if text == "1":
        return []
    factors = []
    for token in text.split("*"):
        base, _, exp = token.partition("^")
        factors.append((int(base), int(exp) if exp else 1))
    return factors


def factorization_problem(factors, count, pinned):
    """None if the factors reconstruct ``count`` with ascending primes, else why not."""
    if pinned is not None:
        return None if factors == parse_factored(pinned) else "factorization differs from the pinned one"
    product = 1
    previous = 1
    for prime, exponent in factors:
        if prime <= previous or exponent < 1:
            return "primes not strictly ascending"
        if not is_probable_prime(prime):
            return f"factor {prime} is composite"
        product *= prime ** exponent
        previous = prime
    return None if product == count else "factorization does not reconstruct the count"


def check_output(stdout, entry):
    """None if stdout carries the pinned count (and a valid factorization), else why not."""
    mode = expected_output(entry)
    text = stdout.strip()
    reference = entry["count"]
    pinned = entry.get("factors")
    try:
        if mode == "decimal":
            return None if text == reference else "wrong count"
        count = int(reference)
        if mode == "factored":
            return factorization_problem(parse_factored(text), count, pinned)
        report = json.loads(text)
        if report.get("count") != reference:
            return "wrong count"
        factors = [(int(p), int(e)) for p, e in report["factorization"]]
        return factorization_problem(factors, count, pinned)
    except (ValueError, KeyError, TypeError):
        return "unreadable output"


@dataclass
class CallResult:
    wall_s: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str
    maxrss_kb: int


def classify(result, entry):
    """'ok' or the failure kind of one call; a wrong answer is 'wrong:<why>'."""
    if result.timed_out:
        return "timeout"
    if TRACEBACK_MARK in result.stderr:
        return "traceback"
    if result.returncode != 0:
        return f"exit{result.returncode}"
    problem = check_output(result.stdout, entry)
    return "ok" if problem is None else f"wrong:{problem}"


def tail_percentile(values):
    """(percentile, value, values beyond) for the highest ladder percentile with
    at least MIN_BEYOND values beyond its nearest-rank position, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def hd_quantile(values, p):
    """The Harrell-Davis estimate of the p-quantile (0 < p < 1): a weighted
    mean of all order statistics, with the weights a Beta(p(n+1), (1-p)(n+1))
    distribution puts on ((i-1)/n, i/n]. It moves smoothly when the calls
    near the quantile trade places, where a single order statistic jumps
    from one call's cost to the next one's."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per_value = 200  # midpoint-rule steps of the Beta density per order statistic
    h = 1.0 / (n * per_value)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(i * per_value, (i + 1) * per_value):
            x = (j + 0.5) * h
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass * h)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def run_child(argv, deadline_s, cwd, env, scratch):
    """Run one child to completion or to its deadline, stopping it then.

    Standard output and error go to files so a large count cannot fill a pipe.
    Returns wall time, exit status, both outputs and the child's peak RSS
    from its own rusage.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], deadline_s)[0]
                if timed_out:
                    proc.terminate()
                    if not select.select([pidfd], [], [], KILL_GRACE_S)[0]:
                        proc.kill()
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        out.seek(0)
        err.seek(0)
        return CallResult(
            wall_s=wall,
            returncode=proc.returncode,
            timed_out=timed_out,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
            maxrss_kb=usage.ru_maxrss,
        )


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(entry):
    return [sys.executable, "-m", "battery_syt.cli", "count", *entry["args"]]


def traced_argv(entry, out_path, call_id):
    return [sys.executable, str(HERE / "spans.py"), str(out_path), str(call_id), "count", *entry["args"]]
