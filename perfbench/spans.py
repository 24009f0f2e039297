"""Outside-in span tracing for one ``battery-syt count`` call.

Run as ``python perfbench/spans.py OUT CALL_ID count <shape> [flags...]`` with
``src`` on ``PYTHONPATH``. It imports the CLI, wraps the module bindings
through which callers reach the package's public functions, runs
``battery_syt.cli.main`` on the remaining arguments and, when the call ends,
writes a JSON summary of its spans to ``OUT``. The exit status, standard
output and any traceback are those of the untraced call.

Spans are kept in memory while the call runs. Each carries its name, start and
end (``perf_counter_ns``) and its parent span; the call id is added when they
are written. A span's self time is its duration minus the time its child spans
cover.
"""

import json
import signal
import sys
import time
from collections import defaultdict

# (module, attribute, span name): the bindings callers use to reach a layer.
# A module-level function is rebound in the namespace its callers look it up
# in, so calls from inside the package are traced too.
FUNCTION_TARGETS = (
    ("cli", "run", "cli.run"),
    ("cli", "parse_shape_expr", "cli.parse"),
    ("cli", "factorize", "arith.factorize"),
    ("cli", "count_general", "counting.general"),
    ("cli", "closed_form", "counting.closed"),
    ("cli", "count_linear_extensions", "oracle.dp"),
    ("cli", "count_line_convex", "oracle.dp"),
    ("cli", "syt_count_straight", "shapes.hlf"),
    ("counting", "eval_pfq", "hypergeom.eval"),
    ("counting", "eval_multi_pfq", "hypergeom.eval"),
    ("counting", "syt_count_straight", "shapes.hlf"),
    ("counting", "rotated_complement", "shapes.complement"),
    ("counting", "binomial", "arith.binomial"),
    ("shapes", "hook_lengths", "shapes.hook"),
    ("oracle", "linear_extension_profile", "oracle.dp"),
    ("arith", "is_prime", "arith.is_prime"),
)

# (module, dict attribute, span name): registries whose values are called.
REGISTRY_TARGETS = (
    ("cli", "METHODS", "cli.method"),
    ("counting", "COUNT_BY_COLUMN", "counting.hyper"),
)

# Span names whose first and second occurrence in a call are the primary
# count and the verify partner.
METHOD_ROLES = ("primary", "verify")


class DeadlineReached(BaseException):
    """Raised on SIGTERM so open spans close and the summary is still written."""


def _on_term(signum, frame):
    raise DeadlineReached()


class Recorder:
    """Collects the spans of one call; nesting follows the call stack."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns, note)
        self.stack = []
        self.next_id = 0
        self.counters = defaultdict(int)
        self.method_calls = 0

    def wrap(self, name, fn, note_fn=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id = span_id + 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, note_fn(args, result) if note_fn else None))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # notes and counters taken from arguments and results at the boundary
    def _method_note(self, args, result):
        role = METHOD_ROLES[self.method_calls] if self.method_calls < len(METHOD_ROLES) else "extra"
        self.method_calls += 1
        return role

    def _dp_cells(self, args, result):
        shape = args[0]
        if hasattr(shape, "size"):
            self.counters["oracle.dp_cells"] += shape.size
        else:
            self.counters["oracle.dp_cells"] += sum(max(0, e - s) for s, e in shape)
        return None

    def _dp_states(self, args, result):
        if result is not None:
            self.counters["oracle.dp_states"] += result[1]
        return None

    def _count_digits(self, args, result):
        self.counters["arith.count_digits"] += len(str(args[0]))
        return None

    def install(self, package):
        """Rebind every target in the imported package's modules."""
        notes = {
            ("cli", "count_linear_extensions"): self._dp_cells,
            ("cli", "count_line_convex"): self._dp_cells,
            ("oracle", "linear_extension_profile"): self._dp_states,
            ("cli", "factorize"): self._count_digits,
        }
        for module_name, attr, span_name in FUNCTION_TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            note_fn = notes.get((module_name, attr))
            setattr(module, attr, self.wrap(span_name, original, note_fn))
        for module_name, attr, span_name in REGISTRY_TARGETS:
            registry = getattr(getattr(package, module_name), attr)
            note_fn = self._method_note if span_name == "cli.method" else None
            for key, original in list(registry.items()):
                registry[key] = self.wrap(span_name, original, note_fn)


def covered_ns(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id to self time: duration minus the time child spans cover."""
    children = defaultdict(list)
    for span_id, parent, _name, start, end, _note in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_ns(start, end, children.get(span_id, ()))
        for span_id, _parent, _name, start, end, _note in spans
    }


def summarize(spans):
    """Per span name: calls, total ns and self ns; plus the CLI stage times.

    Stages are measured outside in from the root ``cli.run`` span: ``parse``
    runs from the root's start to the end of shape parsing, ``primary`` and
    ``verify`` are the two ``cli.method`` spans, and ``output`` runs from the
    end of the last count to the root's end (factorization and printing).
    """
    own = self_times(spans)
    names = defaultdict(lambda: [0, 0, 0])
    stages = {"parse": 0, "primary": 0, "verify": 0, "output": 0}
    root = None
    parse_end = None
    last_count_end = None
    for span_id, parent, name, start, end, note in spans:
        entry = names[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own[span_id]
        if name == "cli.run" and parent is None:
            root = (start, end)
        elif name == "cli.parse" and parse_end is None:
            parse_end = end
        elif name == "cli.method":
            if note in stages:
                stages[note] += end - start
            last_count_end = end if last_count_end is None else max(last_count_end, end)
    if root is not None:
        if parse_end is not None:
            stages["parse"] = parse_end - root[0]
        if last_count_end is not None:
            stages["output"] = root[1] - last_count_end
    return {"names": dict(names), "stages": stages}


def top_spans(spans, call_id, depth=2):
    """Spans within ``depth`` levels of the root, for the run's span file."""
    level = {}
    kept = []
    for span_id, parent, name, start, end, note in sorted(spans, key=lambda s: s[0]):
        level[span_id] = 0 if parent is None else level.get(parent, depth) + 1
        if level[span_id] <= depth:
            kept.append({"call": call_id, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "note": note})
    return kept


def main(argv):
    out_path, call_id, cli_args = argv[0], int(argv[1]), argv[2:]
    import battery_syt
    import battery_syt.cli  # noqa: F401  (loads every module the CLI uses)

    recorder = Recorder()
    recorder.install(battery_syt)
    signal.signal(signal.SIGTERM, _on_term)
    try:
        return battery_syt.cli.main(cli_args)
    finally:
        summary = summarize(recorder.spans)
        summary["call"] = call_id
        summary["counters"] = dict(recorder.counters)
        summary["spans"] = top_spans(recorder.spans, call_id)
        with open(out_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
