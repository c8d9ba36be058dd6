"""Traced `canimm` op and the per-layer summary of its spans.

Run as a script, this is `python -m canimm` with spans around the public
entry points of each module:

    python perfbench/tracer.py SPANS_FILE OP_ID canimm-args...

Every call of a wrapped entry point records a span (name, start, end,
parent span) in memory; exact counts are kept beside them at the same
boundaries.  The spans, the counts and the op id are written to SPANS_FILE
when the process exits, also when the op fails.  `summarize` turns the
span files of a run into per-layer metrics, with self time = span duration
minus the time its child spans cover.

Recursive helpers such as `is_total_tier`, `_parse` or `_compile` are not
wrapped: they are entered millions of times per build, so spans there would
measure the tracer instead of the program.
"""

from __future__ import annotations

import marshal
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# The construction entry points the CLI's build command calls.
BUILD_ENTRIES = (
    "delta2_prefix",
    "bci_run",
    "cofinal_encode",
    "ci_hi_run",
    "ci_not_hi_run",
    "hi_not_ci_run",
    "effectivize_inside",
    "build_2generic_witness",
)

# (span name, module, attribute); a dotted attribute is a method.
ENTRY_POINTS = [
    ("machine.eval_total", "machine", "eval_total_steps"),
    ("machine.we_bounded", "machine", "we_bounded"),
    ("machine.we_bounded", "machine", "we_enumeration"),
    ("machine.eval_bounded", "machine", "eval_bounded"),
    ("numberings.value", "numberings", "Numbering.value"),
    *[(f"constructions.{entry}", "constructions", entry) for entry in BUILD_ENTRIES],
    ("constructions.h_block_at", "constructions", "h_block_at"),
    ("constructions.pump", "constructions", "pump_enumeration"),
    ("mathias.build_generic", "mathias", "build_generic"),
    ("mathias.extends", "mathias", "extends"),
    ("mathias.values", "mathias", "ComputableSet.values"),
    ("mathias.transformer", "mathias", "thin_for_numbering"),
    ("mathias.transformer", "mathias", "meet_avoidance"),
    ("mathias.transformer", "mathias", "meet_size"),
    ("checkers.immunity", "checkers", "check_canonical_immunity"),
    ("checkers.effective", "checkers", "check_effective_immunity"),
    ("checkers.domination", "checkers", "refute_domination"),
    ("schnorr.in_U_n", "schnorr", "in_U_n"),
    ("schnorr.measure", "schnorr", "measure_U_trunc"),
    ("records.render_trace", "records", "render_trace"),
    ("records.parse_trace", "records", "parse_trace"),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _trace_of(result):
    """The ConstructionTrace a construction entry point returns."""
    if isinstance(result, tuple):
        return result[-1]
    return result.trace


def _pairs_scanned(args, kwargs) -> int:
    pool = _arg(args, kwargs, 2, "pool")
    bound = _arg(args, kwargs, 3, "index_bound")
    k_map = kwargs.get("k_map", args[4] if len(args) > 4 else None)
    total = 0
    for pos, numbering in enumerate(pool):
        start = k_map.get(numbering.id, pos) if k_map is not None else pos
        total += max(0, bound + 1 - start)
    return total


class Tracer:
    """Spans in four parallel columns plus exact counters."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.value_keys: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = self.name_col, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def observer(self, name: str):
        """Counts taken at the boundary of the named span, beyond its calls."""
        c = self.counts
        if name == "machine.eval_total":
            def obs(a, k, r):
                c["machine.eval_total.steps"] += r[1]
        elif name == "machine.we_bounded":
            def obs(a, k, r):
                c["machine.we_bounded.inputs"] += _arg(a, k, 1, "budget")
                c["machine.we_bounded.converged"] += len(r)
        elif name == "machine.eval_bounded":
            def obs(a, k, r):
                c["machine.eval_bounded.diverged"] += not r.converged
        elif name == "numberings.value":
            keys = self.value_keys

            def obs(a, k, r):
                keys.add((a[0].rule, _arg(a, k, 1, "i")))
        elif name.removeprefix("constructions.") in BUILD_ENTRIES:
            def obs(a, k, r):
                c["constructions.records"] += len(_trace_of(r).records)
        elif name == "constructions.pump":
            def obs(a, k, r):
                c["constructions.pump.candidates"] += r.candidates_tried
        elif name == "mathias.values":
            def obs(a, k, r):
                bits = a[0].enumerator.bit_length()
                if bits > c["mathias.reservoir.code_bits_max"]:
                    c["mathias.reservoir.code_bits_max"] = bits
        elif name == "checkers.immunity":
            def obs(a, k, r):
                c["checkers.immunity.pairs"] += _pairs_scanned(a, k)
                c["checkers.immunity.skipped"] += len(r.horizon_dict()["skipped"])
        elif name == "checkers.effective":
            def obs(a, k, r):
                c["checkers.effective.codes"] += len(_arg(a, k, 2, "e_range"))
        elif name == "records.render_trace":
            def obs(a, k, r):
                c["records.trace_bytes"] += len(r)
        elif name == "records.parse_trace":
            def obs(a, k, r):
                c["records.trace_bytes"] += len(_arg(a, k, 0, "text"))
        else:
            obs = None
        return obs

    def install(self) -> None:
        """Wrap every entry point, rebinding each module's name for it, so
        that `from .machine import we_bounded` style imports see the wrapper."""
        import canimm.cli  # noqa: F401  (loads every module)

        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("canimm")}
        wrappers = {}
        for span, module, attr in ENTRY_POINTS:
            owner = modules[f"canimm.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span, getattr(cls, meth), self.observer(span)))
                continue
            original = getattr(owner, attr)
            wrappers[id(original)] = (original, self.wrap(span, original, self.observer(span)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path: Path) -> None:
        counts = dict(self.counts)
        counts["numberings.value.distinct"] = len(self.value_keys)
        payload = (
            self.op_id,
            self.names,
            counts,
            self.name_col.tobytes(),
            self.parent.tobytes(),
            self.start.tobytes(),
            self.end.tobytes(),
        )
        with open(path, "wb") as fh:
            marshal.dump(payload, fh)


def load(path: Path):
    with open(path, "rb") as fh:
        op_id, names, counts, name_col, parent, start, end = marshal.load(fh)
    cols = []
    for typecode, raw in (("i", name_col), ("i", parent), ("q", start), ("q", end)):
        col = array(typecode)
        col.frombytes(raw)
        cols.append(col)
    return op_id, names, counts, cols


def summarize(paths) -> dict[str, float]:
    """Per-layer metrics over the span files of one pass of a workload."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for path in paths:
        _, names, op_counts, (name_col, parent, start, end) = load(path)
        for key, value in op_counts.items():
            if key.endswith("_max"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
        n = len(start)
        child = [0] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        for sid in range(n):
            name = names[name_col[sid]]
            calls[name] += 1
            self_ns[name] += end[sid] - start[sid] - child[sid]

    def self_s(*names):
        return sum(self_ns[n] for n in names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {
        "machine.eval_total.calls": calls["machine.eval_total"],
        "machine.eval_total.steps": counts["machine.eval_total.steps"],
        "machine.eval_total.self_s": self_s("machine.eval_total"),
        "machine.we_bounded.calls": calls["machine.we_bounded"],
        "machine.we_bounded.inputs": counts["machine.we_bounded.inputs"],
        "machine.we_bounded.converged_ratio": ratio(
            counts["machine.we_bounded.converged"], counts["machine.we_bounded.inputs"]
        ),
        "machine.we_bounded.self_s": self_s("machine.we_bounded"),
        "machine.eval_bounded.calls": calls["machine.eval_bounded"],
        "machine.eval_bounded.diverged": counts["machine.eval_bounded.diverged"],
        "machine.eval_bounded.self_s": self_s("machine.eval_bounded"),
        "numberings.value.calls": calls["numberings.value"],
        "numberings.value.distinct_ratio": ratio(counts["numberings.value.distinct"], calls["numberings.value"]),
        "numberings.value.self_s": self_s("numberings.value"),
    }
    for entry in BUILD_ENTRIES:
        m[f"constructions.{entry}.self_s"] = self_s(f"constructions.{entry}")
    m.update({
        "constructions.h_block_at.calls": calls["constructions.h_block_at"],
        "constructions.pump.candidates": counts["constructions.pump.candidates"],
        "constructions.records": counts["constructions.records"],
        "mathias.build_generic.self_s": self_s("mathias.build_generic"),
        "mathias.extends.calls": calls["mathias.extends"],
        "mathias.extends.self_s": self_s("mathias.extends"),
        "mathias.values.calls": calls["mathias.values"],
        "mathias.transformer.self_s": self_s("mathias.transformer"),
        "mathias.reservoir.code_bits_max": counts["mathias.reservoir.code_bits_max"],
        "checkers.immunity.self_s": self_s("checkers.immunity"),
        "checkers.immunity.pairs": counts["checkers.immunity.pairs"],
        "checkers.immunity.skipped_ratio": ratio(counts["checkers.immunity.skipped"], counts["checkers.immunity.pairs"]),
        "checkers.effective.self_s": self_s("checkers.effective"),
        "checkers.effective.codes": counts["checkers.effective.codes"],
        "checkers.domination.self_s": self_s("checkers.domination"),
        "schnorr.in_U_n.calls": calls["schnorr.in_U_n"],
        "schnorr.in_U_n.self_s": self_s("schnorr.in_U_n"),
        "schnorr.measure.self_s": self_s("schnorr.measure"),
        "records.render_trace.self_s": self_s("records.render_trace"),
        "records.parse_trace.self_s": self_s("records.parse_trace"),
        "records.trace_bytes": counts["records.trace_bytes"],
    })
    return m


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer(op_id)
    tracer.install()
    from canimm.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
