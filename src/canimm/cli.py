"""Command-line entry point: build constructions, run checks, print measures.

Same flags produce byte-identical outputs; every emitted trace replays
through the library to the same prefix.  Exit status is 0 on success, 1 on
usage or input errors, 2 when a check finds what it should not (or fails
to find an expected failure under --expect-fail).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checkers, constructions as cons, mathias, programs as pg, schnorr
from .machine import encode, is_total_tier
from .numberings import Numbering, Registry, default_pool
from .records import parse_trace, render_trace, render_value

CHECK_SUITES = ("immunity", "domination", "effective", "schnorr")

DEFAULT_COFINAL_BITS = "10" * 16


def modulus_catalog() -> dict[str, int]:
    return {
        "identity": pg.identity_code(),
        "zero": pg.zero_code(),
        "succ": pg.succ_code(),
        "double": pg.double_code(),
        "cofinal": encode(pg.succ_(pg.mul_(pg.c_(2), pg.P0))),
        "bci": encode(pg.add_(pg.mul_(pg.c_(4), pg.pair_(pg.P0, pg.P0)), pg.c_(3))),
        "twof": encode(pg.mul_(pg.c_(2), pg.pair_(pg.P0, pg.P0))),
    }


def default_functions() -> list[int]:
    return [pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code()]


def _load_pool(path: str | None) -> Registry | None:
    """The pool from a --pool file (default pool without one); None, after
    printing the error, when the file is missing or malformed."""
    if path is None:
        return default_pool()
    try:
        return Registry.deserialize(Path(path).read_text())
    except (OSError, ValueError, IndexError) as err:
        print(f"error: cannot read pool file {path}: {err}", file=sys.stderr)
        return None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fill_pairs(pool, index_bound: int) -> int:
    return cons.pool_value_ceiling(list(pool), index_bound) // 2 + 2


def _with_r(prefix, trace):
    return trace, {"R": prefix}


def _build_bci(pool, args):
    r, q, trace = cons.bci_run(list(pool), args.stages, _fill_pairs(pool, args.index_bound))
    return trace, {"Q": q, "R": r}


def _build_effectivize(pool, args):
    base, _ = cons.delta2_prefix(pool.codes(), args.stages, args.markers)
    quotient, trace = cons.effectivize_inside(base, args.markers // 2, args.budget)
    trace.meta["base_stages"] = args.stages
    return trace, {"Q": quotient, "R": base}


def _build_2generic_witness(pool, args):
    _, _, trace = cons.build_2generic_witness(
        "", pg.enumerate_oracle_ones_code(), pg.zero_code(), args.index_bound, args.index_bound
    )
    return trace, {}


def _build_generic(pool, args):
    schedule = mathias.default_schedule(
        list(pool), thin_count=args.index_bound, avoid_count=args.blocks, stem_target=args.markers
    )
    run = mathias.build_generic(mathias.Condition.empty(), schedule, horizon=args.stages)
    return run.trace, {"R": run.prefix}


# name -> (pool, args) -> (trace, prefixes by label).  Every entry reads the
# library function off its module at call time, so a wrapper installed on
# the module (a profiler's, say) sees the call.
BUILDS = {
    "delta2": lambda pool, args: _with_r(*cons.delta2_prefix(pool.codes(), args.stages, args.markers)),
    "bci": _build_bci,
    "cofinal": lambda pool, args: _with_r(*cons.cofinal_encode(list(pool), DEFAULT_COFINAL_BITS)),
    "ci-hi": lambda pool, args: _with_r(*cons.ci_hi_run(list(pool), default_functions(), args.stages)),
    "ci-not-hi": lambda pool, args: _with_r(
        *cons.ci_not_hi_run(list(pool), args.stages, _fill_pairs(pool, args.index_bound))
    ),
    "hi-not-ci": lambda pool, args: _with_r(*cons.hi_not_ci_run(default_functions(), args.blocks, target_index=0)),
    "effectivize": _build_effectivize,
    "2generic-witness": _build_2generic_witness,
    "generic": _build_generic,
}


# The flag whose smaller values shrink the largest integer in a
# construction's trace, for each construction whose trace is known to pass
# Python's int->str digit limit (tests/test_records_cli.py shows each).
TRACE_SIZE_FLAGS = {
    "effectivize": "--markers",
    "hi-not-ci": "--blocks",
    "2generic-witness": "--index-bound",
    "generic": "--index-bound",
}


def _digit_limit_error(output: str, shrink: str | None) -> ValueError:
    hint = f"; a smaller {shrink} shrinks it" if shrink else ""
    return ValueError(
        f"{output} has an integer of more than {sys.get_int_max_str_digits()} decimal digits, "
        f"Python's int->str limit{hint}"
    )


def cmd_build(args) -> int:
    pool = _load_pool(args.pool)
    if pool is None:
        return 1
    trace, prefixes = BUILDS[args.construction](pool, args)
    try:
        text = render_trace(trace, prefixes)
    except ValueError as err:  # str() of an integer past the digit limit
        shrink = TRACE_SIZE_FLAGS.get(args.construction)
        raise _digit_limit_error(f"the {args.construction} trace", shrink) from err
    _emit(text, args.out)
    return 0


def _int_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(i, int) for i in value)


def _check_exit(found_fail: bool, expect_fail: bool) -> int:
    if expect_fail:
        return 0 if found_fail else 2
    return 2 if found_fail else 0


def _suite_verdict(args, parsed, pool):
    """The per-prefix verdict function of the immunity, domination or
    effective suite; None, after printing the error, when the trace lacks
    what the suite reads."""
    h = modulus_catalog()[args.modulus]
    if args.suite == "domination":

        def refute(prefix):
            members = prefix.members()
            return checkers.refute_domination(members, h, range(1, len(members) + 1))

        return refute
    if args.suite == "effective":
        return lambda prefix: checkers.check_effective_immunity(prefix, h, range(args.index_bound + 1), args.budget)
    if parsed.name == "hi-not-ci" and args.modulus == "identity":
        # the trace carries the numbering built to refute its target
        rule, positions = parsed.meta.get("witness_rule"), parsed.meta.get("witness_positions")
        if not (isinstance(rule, int) and rule >= 0 and is_total_tier(rule) and positions and _int_list(positions)):
            print("error: a hi-not-ci trace needs meta witness_rule (a total-tier code) and "
                  "witness_positions (a nonempty list of indices)", file=sys.stderr)
            return None
        witness = Registry().register(rule, surjective=True, label="witness")
        scan: list[Numbering] = [witness]
        k_map = {witness.id: 0}
        bound = max(positions)
    else:
        scan = list(pool)
        k_map = None
        bound = args.index_bound
    return lambda prefix: checkers.check_canonical_immunity(prefix, h, scan, bound, k_map)


def cmd_check(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 1
    try:
        parsed = parse_trace(path.read_text())
    except (OSError, ValueError, IndexError) as err:
        print(f"error: cannot read trace file {path}: {err}", file=sys.stderr)
        return 1
    pool = _load_pool(args.pool)
    if pool is None:
        return 1
    lines = []
    found_fail = False
    if args.suite == "schnorr":
        prefix = parsed.prefixes.get("R")
        if prefix is None:
            print("error: a schnorr check needs the trace's prefix R line", file=sys.stderr)
            return 1
        missed = parsed.meta.get("missed_blocks", [])
        if not _int_list(missed):
            print("error: meta missed_blocks must be a list of block indices", file=sys.stderr)
            return 1
        top = 0
        while schnorr.block_span(top + 1) <= prefix.length:
            top += 1
        covered = [i for i in missed if i <= top]
        if not covered:
            lines.append("schnorr\tinconclusive\tno covered missed blocks")
            found_fail = True
        else:
            m = max(covered)
            for n in range(len(missed)):
                if n >= m:
                    break
                ok, witness = schnorr.in_U_n(prefix, n, m)
                found_fail |= not ok
                lines.append(f"schnorr\tU_{n}\t{'member' if ok else 'MISSING'}\twitness\t{render_value(witness or 0)}")
    else:
        verdict_of = _suite_verdict(args, parsed, pool)
        if verdict_of is None:
            return 1
        for label, prefix in sorted(parsed.prefixes.items()):
            verdict = verdict_of(prefix)
            found_fail |= verdict.failed
            lines.append(f"{label}\t{checkers.serialize_verdict(verdict)}")

    _emit("".join(line if line.endswith("\n") else line + "\n" for line in lines), args.out)
    return _check_exit(found_fail, args.expect_fail)


def cmd_measure(args) -> int:
    if args.n < 0:
        print("error: need n >= 0", file=sys.stderr)
        return 1
    value = schnorr.measure_U_trunc(args.n, args.m)
    bound = schnorr.DyadicRational.power(args.n)
    ok = value <= bound
    try:
        text = value.serialize()
    except ValueError as err:  # str() of an integer past the digit limit
        output = f"the measure of U_{args.n} truncated at m = {args.m}"
        raise _digit_limit_error(output, "m (the second argument)") from err
    print(f"{text} ≤ {bound.serialize()}: {'true' if ok else 'false'}")
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like input errors; exit 2 is kept for checks.
    Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="canimm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="run a construction and emit its trace")
    b.add_argument("construction", choices=BUILDS)
    b.add_argument("--stages", type=int, default=1000)
    b.add_argument("--markers", type=int, default=32)
    b.add_argument("--index-bound", type=int, default=16)
    b.add_argument("--budget", type=int, default=256)
    b.add_argument("--blocks", type=int, default=6)
    b.add_argument("--pool", default=None)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="run a checker suite over a trace file")
    c.add_argument("suite", choices=CHECK_SUITES)
    c.add_argument("trace")
    c.add_argument("--pool", default=None)
    c.add_argument("--index-bound", type=int, default=16)
    c.add_argument("--budget", type=int, default=256)
    c.add_argument("--modulus", default="identity", choices=sorted(modulus_catalog()))
    c.add_argument("--expect-fail", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_check)

    m = sub.add_parser("measure", help="exact truncated measure and its bound")
    m.add_argument("n", type=int)
    m.add_argument("m", type=int)
    m.set_defaults(func=cmd_measure)

    return parser


def _positive(parser: argparse.ArgumentParser, args) -> bool:
    for flag in ("stages", "markers", "index_bound", "budget"):
        if getattr(args, flag, 1) < 1:
            parser.error(f"--{flag.replace('_', '-')} must be positive")
    if getattr(args, "blocks", 0) < 0:
        parser.error("--blocks must be nonnegative")
    return True


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _positive(parser, args)
    try:
        return args.func(args)
    except mathias.ExtensionOrderError as err:  # a built chain broke the extension order
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # input the library rejects, ProgramDepthError among them
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
