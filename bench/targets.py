"""The target bench: in-process times of each counting route, with every count
checked against a pinned digest.

    python bench/targets.py [--out FILE] [--parent REV] [--check] [--case NAME]...

Each case runs in a child interpreter that imports the package from a tree's
``src``. By default that is this checkout's. With ``--parent REV`` it is also
that of ``git archive REV``, unpacked in a temporary directory.

A case builds its input untimed (a count to factor, say), then times one call:
best of 3, or once when the first run takes over 1 s. That is one round, one
child per tree. Every case runs 5 rounds, since one process's minimum of a
call moves with the process; the tree that goes first alternates by round.
Each count's sha256 is checked against the one pinned in ``CASES``; a
mismatch exits 1. ``--check`` runs each count once and times nothing.

The report is JSON, on stdout or in ``--out`` (``BENCH_<pr>.json``): the
commit and whether the work tree differs from it (both null outside a git
checkout, where ``--parent`` is refused), the Python version, the host, and
for each case its route and, per tree, each round's minimum (``rounds_s``),
their least (``min_s``) and their median, and for the DP's case its states
from one more, untimed run. With ``--parent`` each case also has the ratio of
the two trees' minima in each round (``ratios``), their median (``ratio``)
and the ratio of the trees' least (``min_ratio``). Compare only files written
on one machine.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 3
ONCE_OVER_S = 1.0
ROUNDS = 5


# name -> (route, shape expression, sha256). A route's case times
# cli.METHODS[route] on the parsed shape at the default size cap, the call
# `battery-syt count` makes; factorize and str time that call on a count built
# untimed by the route COUNTED_BY names. The digest is that of str() of the
# result. One case a route, then the slow targets of ROADMAP items 21
# (general's moments), 1 (general at large k) and 12 (hook products), and two
# long products: the 200,000 hooks of the rectangle closed multiplies, and
# general's column-side denominator of 50,000 factors.
CASES = {
    "closed 100x100,a=1,k=2": ("closed", "battery:rect:100x100,a=1,k=2",
        "9071b6a7e228dabbc01b04a9f7184e3b6f776b8600360aeca274abd5139078ba"),
    "general 20x20,a=3,k=11": ("general", "battery:rect:20x20,a=3,k=11",
        "c452b136036842f6fa11530972e7d40c3f0c639d846465f678eed40a91634397"),
    "hyper 16x16,a=3,k=6": ("hyper", "battery:rect:16x16,a=3,k=6",
        "257e848239ac21d629fb6daa61f38fcdb8bcdc72105e6e0da4f3dea35da7fafa"),
    "dp battery:rect:11x8,a=3,k=6": ("dp", "battery:rect:11x8,a=3,k=6",
        "a057dcd42b7f49b97de02ec1af80442309bf186401156a99fcb7ebf82d7ebf5b"),
    "conjugate skew:12,12,11,10/1": ("conjugate", "skew:12,12,11,10/1",
        "c65a887cdd7862576e8ce32fea8356ecdb81a3a3cce42bb5cd2fd4acf2b7b04e"),
    "hlf rect:200x200": ("hlf", "rect:200x200",
        "4d55c53d3fd156d3100d9077567776ea051b4fff226032a0366c4448c28126ea"),
    "frobenius rect:400x400": ("frobenius", "rect:400x400",
        "907b2ba9f107d5f5406d917e3040ff5efb6784b0a2ae829e4081af66532d8f2f"),
    "factorize 14x14,a=3,k=6": ("factorize", "battery:rect:14x14,a=3,k=6",
        "d0198b3b11dca410369f9503a847bd62b6cdd8f4c662a8a8ed6cb5565fa0ab6a"),
    "general 3x20000,a=1,k=3": ("general", "battery:rect:3x20000,a=1,k=3",
        "b8ab09e00ef5f069a59f4ee53eaf4ad3effeea5fa1f10a5fbbc1181cf4a2432c"),
    "general 30x30,a=5,k=25": ("general", "battery:rect:30x30,a=5,k=25",
        "4141ba8866f98e91410a89244eb871510a5b7386e106471d0b506430a2b3405f"),
    "hlf rect:400x400": ("hlf", "rect:400x400",
        "907b2ba9f107d5f5406d917e3040ff5efb6784b0a2ae829e4081af66532d8f2f"),
    "str rect:400x400": ("str", "rect:400x400",
        "907b2ba9f107d5f5406d917e3040ff5efb6784b0a2ae829e4081af66532d8f2f"),
    "closed battery:rect:2x100000,a=1,k=2": ("closed", "battery:rect:2x100000,a=1,k=2",
        "878ea0c8848d7e3a57a769846cbb782e3089d0d35ef751810d4f74c203e7915b"),
    "general battery:rect:50000x4,a=4,k=2": ("general", "battery:rect:50000x4,a=4,k=2",
        "736cee79a24e3f3dc3d0caeef772e2078d20cadf18ab2eb45b61809b0fa4d7f3"),
}
COUNTED_BY = {"factorize": "general", "str": "frobenius"}


def _worker(name: str, timed: bool) -> dict:
    """Run one case on the package this interpreter imports."""
    # every route's module, so no timed call pays the import a lazy binding makes
    from battery_syt import arith, cli, counting, frobenius, oracle  # noqa: F401

    sys.set_int_max_str_digits(0)
    route, expr, _ = CASES[name]
    shape = cli.parse_shape_expr(expr)
    if route in COUNTED_BY:
        count = cli.METHODS[COUNTED_BY[route]](shape, cli.DEFAULT_SIZE_CAP)
        call = partial({"factorize": arith.factorize, "str": str}[route], count)
    else:
        call = partial(cli.METHODS[route], shape, cli.DEFAULT_SIZE_CAP)
    times = []
    while True:
        started = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - started)
        if not timed or len(times) == REPEATS or times[0] > ONCE_OVER_S:
            break
    report = {"sha256": hashlib.sha256(str(result).encode()).hexdigest()}
    if route == "dp":
        report["dp_states"] = oracle.linear_extension_profile(shape, cli.DEFAULT_SIZE_CAP)[1]
    if timed:
        report["min_s"] = min(times)
    return report


def _run_case(src: Path, name: str, timed: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, __file__, "--worker", name] + (["--check"] if not timed else [])
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"case {name!r} failed in {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def _unpack(rev: str, into: Path) -> str:
    """``git archive rev`` unpacked in ``into``; returns the full commit id."""
    try:
        commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    except subprocess.CalledProcessError:
        raise SystemExit(f"error: --parent {rev} names no commit of {ROOT}") from None
    archive = into / "tree.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=out, check=True)
    # the data filter, where this Python has it, keeps every member inside the tree
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", **safe)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the report here (BENCH_<pr>.json); default stdout")
    parser.add_argument("--parent", metavar="REV", help="also run the cases on this git revision")
    parser.add_argument("--check", action="store_true", help="run each count once and check it; no timing")
    parser.add_argument("--case", action="append", choices=CASES, help="run only this case (repeatable)")
    parser.add_argument("--worker", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker, timed=not args.check)))
        return 0

    names = args.case or list(CASES)
    trees = {"change": ROOT / "src"}
    repository = (ROOT / ".git").exists()  # a benchmark checkout is usually not a repository
    if args.parent and not repository:
        raise SystemExit(f"error: --parent needs a git checkout, and {ROOT} is not one")
    report = {
        "commit": _git("rev-parse", "HEAD") if repository else None,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if repository else None,
        "python": sys.version,
        "host": f"{platform.platform()}, {os.cpu_count()} CPUs",
        "cases": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        if args.parent:
            report["parent"] = _unpack(args.parent, Path(scratch))
            trees["parent"] = Path(scratch) / "tree" / "src"
        mismatched = []
        for i, name in enumerate(names):
            route, _, pinned = CASES[name]
            rounds = []  # per round: each tree's worker report
            for r in range(1 if args.check else ROUNDS):
                order = list(trees) if (i + r) % 2 == 0 else list(reversed(trees))
                rounds.append({side: _run_case(trees[side], name, timed=not args.check) for side in order})
            case = {"route": route}
            for side in trees:  # the working tree's figures first
                runs = [each[side] for each in rounds]
                digests = {run.pop("sha256") for run in runs}
                mismatched += [f"{name} ({side}) has {digest}" for digest in sorted(digests - {pinned})]
                case[side] = result = runs[0]
                if not args.check:
                    minima = [run["min_s"] for run in runs]
                    result.update(rounds_s=minima, min_s=min(minima), median_s=statistics.median(minima))
            if args.parent and not args.check:
                ratios = [c / p for c, p in zip(case["change"]["rounds_s"], case["parent"]["rounds_s"])]
                case.update(ratios=ratios, ratio=statistics.median(ratios),
                            min_ratio=case["change"]["min_s"] / case["parent"]["min_s"])
            report["cases"][name] = case
            print(f"{name}: {json.dumps(case)}", file=sys.stderr, flush=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if mismatched:
        print("count differs from its pinned sha256:", *mismatched, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
