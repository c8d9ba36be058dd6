"""Command-line entry point: build constructions, run checks, print measures.

Same flags produce byte-identical outputs; every emitted trace replays
through the library to the same prefix.  Exit status is 0 on success, 1 on
usage or input errors, 2 when a check finds what it should not (or fails
to find an expected failure under --expect-fail).
"""

# Only argparse and sys at the top: each verb imports the library modules it
# runs when it runs, so `measure` loads `schnorr` and `finitesets` alone.
import argparse
import sys

DEFAULT_COFINAL_BITS = "10" * 16

# --modulus name -> (programs module) -> the code of its bounding function
MODULI = {
    "identity": lambda pg: pg.identity_code(),
    "zero": lambda pg: pg.zero_code(),
    "succ": lambda pg: pg.succ_code(),
    "double": lambda pg: pg.double_code(),
    "cofinal": lambda pg: pg.encode(pg.succ_(pg.mul_(pg.c_(2), pg.P0))),
    "bci": lambda pg: pg.encode(pg.add_(pg.mul_(pg.c_(4), pg.pair_(pg.P0, pg.P0)), pg.c_(3))),
    "twof": lambda pg: pg.encode(pg.mul_(pg.c_(2), pg.pair_(pg.P0, pg.P0))),
}


def modulus_catalog() -> dict[str, int]:
    from . import programs

    return {name: make(programs) for name, make in MODULI.items()}


def default_functions() -> list[int]:
    from . import programs as pg

    return [pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code()]


def _path(text: str) -> str:
    """`str(pathlib.Path(text))` on POSIX, the form in which every message
    has shown a path argument, without importing pathlib."""
    root = "//" if text[:2] == "//" and text[2:3] != "/" else "/" * text.startswith("/")
    return root + "/".join(part for part in text.split("/") if part not in ("", ".")) or "."


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_pool(path: str | None):
    """The pool from a --pool file (default pool without one)."""
    from .numberings import Registry, default_pool

    if path is None:
        return default_pool()
    try:
        return Registry.deserialize(_read(_path(path)))
    except (OSError, ValueError, IndexError) as err:
        raise ValueError(f"cannot read pool file {path}: {err}") from err


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(_path(out), "w") as fh:
            fh.write(text)


def _cons():
    from . import constructions

    return constructions


def _fill_pairs(pool, index_bound: int) -> int:
    return _cons().pool_value_ceiling(list(pool), index_bound) // 2 + 2


def _with_r(prefix, trace):
    return trace, {"R": prefix}


def _build_bci(pool, args):
    r, q, trace = _cons().bci_run(list(pool), args.stages, _fill_pairs(pool, args.index_bound))
    return trace, {"Q": q, "R": r}


def _build_effectivize(pool, args):
    cons = _cons()
    base, _ = cons.delta2_prefix(pool.codes(), args.stages, args.markers)
    quotient, trace = cons.effectivize_inside(base, args.markers // 2, args.budget)
    trace.meta["base_stages"] = args.stages
    return trace, {"Q": quotient, "R": base}


def _build_2generic_witness(pool, args):
    from . import programs as pg

    _, _, trace = _cons().build_2generic_witness(
        "", pg.enumerate_oracle_ones_code(), pg.zero_code(), args.index_bound, args.index_bound
    )
    return trace, {}


def _build_hi_not_ci(pool, args):
    try:
        return _with_r(*_cons().hi_not_ci_run(default_functions(), args.blocks, target_index=0))
    except ValueError as err:  # no selection, or one past the construction's size guard
        raise ValueError(f"--blocks {args.blocks}: {err}") from err


def _build_generic(pool, args):
    from . import mathias

    schedule = mathias.default_schedule(
        list(pool), thin_count=args.index_bound, avoid_count=args.blocks, stem_target=args.markers
    )
    run = mathias.build_generic(mathias.Condition.empty(), schedule, horizon=args.stages)
    return run.trace, {"R": run.prefix}


# name -> (pool, args) -> (trace, prefixes by label).  Every entry imports
# its library module when it runs and reads the function off that module at
# call time, so a wrapper installed on the module (a profiler's, say) sees
# the call.
BUILDS = {
    "delta2": lambda pool, args: _with_r(*_cons().delta2_prefix(pool.codes(), args.stages, args.markers)),
    "bci": _build_bci,
    "cofinal": lambda pool, args: _with_r(*_cons().cofinal_encode(list(pool), DEFAULT_COFINAL_BITS)),
    "ci-hi": lambda pool, args: _with_r(*_cons().ci_hi_run(list(pool), default_functions(), args.stages)),
    "ci-not-hi": lambda pool, args: _with_r(
        *_cons().ci_not_hi_run(list(pool), args.stages, _fill_pairs(pool, args.index_bound))
    ),
    "hi-not-ci": _build_hi_not_ci,
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
    from . import records

    pool = _load_pool(args.pool)
    trace, prefixes = BUILDS[args.construction](pool, args)
    try:
        text = records.render_trace(trace, prefixes)
    except ValueError as err:  # str() of an integer past the digit limit
        shrink = TRACE_SIZE_FLAGS.get(args.construction)
        raise _digit_limit_error(f"the {args.construction} trace", shrink) from err
    _emit(text, args.out)
    return 0


def _index_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(i, int) and i >= 0 for i in value)


def _verdict_lines(parsed, verdict_of):
    from . import checkers

    lines = []
    found_fail = False
    for label, prefix in sorted(parsed.prefixes.items()):
        verdict = verdict_of(prefix)
        found_fail |= verdict.failed
        lines.append(f"{label}\t{checkers.serialize_verdict(verdict)}")
    return lines, found_fail


def _check_immunity(parsed, pool, h, args):
    from . import checkers
    from .machine import is_total_tier
    from .numberings import Registry

    scan, bound = list(pool), args.index_bound
    if parsed.name == "hi-not-ci" and args.modulus == "identity":
        # the trace carries the numbering built to refute its target
        rule, positions = parsed.meta.get("witness_rule"), parsed.meta.get("witness_positions")
        if not (isinstance(rule, int) and rule >= 0 and is_total_tier(rule) and positions and _index_list(positions)):
            raise ValueError("a hi-not-ci trace needs meta witness_rule (a total-tier code) and "
                             "witness_positions (a nonempty list of indices)")
        scan, bound = [Registry().register(rule, surjective=True, label="witness")], max(positions)
    return _verdict_lines(parsed, lambda prefix: checkers.check_canonical_immunity(prefix, h, scan, bound))


def _check_domination(parsed, pool, h, args):
    from . import checkers

    def refute(prefix):
        members = prefix.members()
        return checkers.refute_domination(members, h, range(1, len(members) + 1))

    return _verdict_lines(parsed, refute)


def _check_effective(parsed, pool, h, args):
    from . import checkers

    codes = range(args.index_bound + 1)
    return _verdict_lines(parsed, lambda prefix: checkers.check_effective_immunity(prefix, h, codes, args.budget))


def _check_schnorr(parsed, pool, h, args):
    from . import records, schnorr

    prefix = parsed.prefixes.get("R")
    if prefix is None:
        raise ValueError("a schnorr check needs the trace's prefix R line")
    missed = parsed.meta.get("missed_blocks", [])
    if not _index_list(missed):
        raise ValueError("meta missed_blocks must be a list of block indices")
    top = 0
    while schnorr.block_span(top + 1) <= prefix.length:
        top += 1
    covered = [i for i in missed if i <= top]
    if not covered:
        return ["schnorr\tinconclusive\tno covered missed blocks\n"], True
    m = max(covered)
    lines = []
    found_fail = False
    for n in range(min(len(missed), m)):
        ok, witness = schnorr.in_U_n(prefix, n, m)
        found_fail |= not ok
        lines.append(f"schnorr\tU_{n}\t{'member' if ok else 'MISSING'}\twitness\t{records.render_value(witness or 0)}\n")
    return lines, found_fail


# suite -> (parsed trace, pool, modulus code, args) -> (output lines, each
# ending in a newline, and whether a check failed).  Like BUILDS, every entry
# imports its library module when it runs and reads the function off it at
# call time.
CHECKS = {
    "immunity": _check_immunity,
    "domination": _check_domination,
    "effective": _check_effective,
    "schnorr": _check_schnorr,
}


def cmd_check(args) -> int:
    import os

    from . import programs, records

    path = _path(args.trace)
    if not os.path.exists(path):
        raise ValueError(f"no such trace file: {path}")
    try:
        parsed = records.parse_trace(_read(path))
    except (OSError, ValueError, IndexError) as err:
        raise ValueError(f"cannot read trace file {path}: {err}") from err
    pool = _load_pool(args.pool)
    lines, found_fail = CHECKS[args.suite](parsed, pool, MODULI[args.modulus](programs), args)
    _emit("".join(lines), args.out)
    return 2 if found_fail != args.expect_fail else 0


def cmd_measure(args) -> int:
    from . import schnorr

    if args.n < 0:
        raise ValueError("need n >= 0")
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
    c.add_argument("suite", choices=CHECKS)
    c.add_argument("trace")
    c.add_argument("--pool", default=None)
    c.add_argument("--index-bound", type=int, default=16)
    c.add_argument("--budget", type=int, default=256)
    c.add_argument("--modulus", default="identity", choices=sorted(MODULI))
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


def _order_errors() -> tuple:
    """`mathias.ExtensionOrderError` once mathias is loaded; until then no
    code has run that can raise it, and mathias need not be imported."""
    mathias = sys.modules.get(f"{__package__}.mathias")
    return () if mathias is None else (mathias.ExtensionOrderError,)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _positive(parser, args)
    try:
        return args.func(args)
    except _order_errors() as err:  # a built chain broke the extension order
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:  # bad input (ProgramDepthError among it), an --out that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
