"""Command-line entry point: build constructions, run checks, print measures.

Same flags produce byte-identical outputs; every emitted trace replays
through the library to the same prefix.  Exit status is 0 on success, 1 on
usage or input errors, 2 when a check finds what it should not (or fails
to find an expected failure under --expect-fail).
"""

# Only argparse and sys at the top: each verb imports the modules it runs
# when it runs.  `measure` loads `schnorr` and `finitesets` alone; `build`
# and `check` load their glue, `handlers`, and of the library only what the
# verb runs and the inputs it reads.
import argparse
import sys

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


POOL, MODULUS = "pool", "modulus"

# verb -> construction or check suite -> the inputs it reads besides its
# flags and a check's trace: POOL opens --pool, MODULUS encodes --modulus.
# Every verb accepts those flags and leaves unread the ones it does not
# declare.  The parser takes its choices from here; `handlers` holds the
# handler of each.
VERBS = {
    "build": {
        "delta2": (POOL,),
        "bci": (POOL,),
        "cofinal": (POOL,),
        "ci-hi": (POOL,),
        "ci-not-hi": (POOL,),
        "hi-not-ci": (),
        "effectivize": (POOL,),
        "2generic-witness": (),
        "generic": (POOL,),
    },
    "check": {
        "immunity": (POOL, MODULUS),
        "domination": (MODULUS,),
        "effective": (MODULUS,),
        "schnorr": (),
    },
}


def _handled(args) -> int:
    """Run a build or a check through `handlers`, which `measure` never loads."""
    from . import handlers

    return getattr(handlers, f"cmd_{args.command}")(args)


def _readers(verb: str, what: str) -> str:
    return ", ".join(name for name, reads in VERBS[verb].items() if what in reads)


def cmd_measure(args) -> int:
    from . import schnorr

    value = schnorr.measure_U_trunc(args.n, args.m)
    bound = schnorr.DyadicRational.power(args.n)
    ok = value <= bound
    try:
        text = value.serialize()
    except ValueError as err:  # str() of an integer past the digit limit
        raise ValueError(
            f"the measure of U_{args.n} truncated at m = {args.m} has an integer of more than "
            f"{sys.get_int_max_str_digits()} decimal digits, Python's int->str limit; "
            "a smaller m (the second argument) shrinks it"
        ) from err
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

    pool_help = "pool file (default: the built-in pool), opened only by {}; any other {} accepts it unopened"
    b = sub.add_parser("build", help="run a construction and emit its trace")
    b.add_argument("construction", choices=VERBS["build"])
    b.add_argument("--stages", type=int, default=1000)
    b.add_argument("--markers", type=int, default=32)
    b.add_argument("--index-bound", type=int, default=16)
    b.add_argument("--budget", type=int, default=256)
    b.add_argument("--blocks", type=int, default=6)
    b.add_argument("--pool", default=None, help=pool_help.format(_readers("build", POOL), "build"))
    b.add_argument("--out", default=None)
    b.set_defaults(func=_handled)

    c = sub.add_parser("check", help="run a checker suite over a trace file")
    c.add_argument("suite", choices=VERBS["check"])
    c.add_argument("trace")
    c.add_argument("--pool", default=None, help=pool_help.format(_readers("check", POOL), "suite"))
    c.add_argument("--index-bound", type=int, default=16)
    c.add_argument("--budget", type=int, default=256)
    c.add_argument(
        "--modulus", default="identity", choices=sorted(MODULI),
        help=f"bounding function (default: identity), read only by {_readers('check', MODULUS)}",
    )
    c.add_argument("--expect-fail", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_handled)

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
