"""Command-line entry point: build constructions, run checks, print measures.

Same flags produce byte-identical outputs; every emitted trace replays
through the library to the same prefix.  Exit status is 0 on success, 1 on
usage or input errors, 2 when a check finds what it should not (or fails
to find an expected failure under --expect-fail).  `canimm <verb> --help`
lists the positionals and flags of a verb.

`run` is the process entry, which `python -m canimm` and the installed
`canimm` script call: it runs `main` and, on every way out, freezes the
heap, so the interpreter's exit-time collection walks none of the
objects the verb left.  `main` is the in-process entry, which the tests,
`scripts/run_all.py` and the benchmark's tracer call, and leaves the
collector alone: frozen objects are never collected, so a process that
goes on after `main` keeps its cyclic garbage collectable.
"""

# Only gc (built in), sys and types (`python -m` has loaded types already)
# at the top: `parse_args` reads the flags from `ARGS`, without argparse, and
# each verb imports the modules it runs when it runs.  `measure` loads
# `schnorr` and `finitesets` alone; `build` loads its glue, `builds`, and
# `check` its own, `checks`, and of the library only what the verb runs and
# the inputs it reads: a build loads its construction's family module, not
# the `constructions` index of all four.
import gc
import sys
from types import SimpleNamespace

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
# declare.  `ARGS` takes its choices from here; `builds.BUILDS` and
# `checks.CHECKS` hold the handler of each.
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


# verb -> (what it does, its positionals, its flags with their defaults).
# A positional takes a name from its table or a value of its type; a flag's
# type follows from its default: an int (positive, but --blocks may be 0),
# a MODULI name, a path (None) or a switch (False).
ARGS = {
    "build": ("run a construction and emit its trace", {"construction": VERBS["build"]},
              {"stages": 1000, "markers": 32, "index_bound": 16, "budget": 256, "blocks": 6, POOL: None, "out": None}),
    "check": ("run a checker suite over a trace file", {"suite": VERBS["check"], "trace": str},
              {POOL: None, "index_bound": 16, "budget": 256, MODULUS: "identity", "expect_fail": False, "out": None}),
    "measure": ("print the measure of U_n truncated at m and its bound 2^-n", {"n": int, "m": int}, {}),
}
_TOP = (__doc__, {"command": ARGS}, {})  # `canimm` up to its verb


def _handled(args) -> int:
    """Run a build through `builds` or a check through `checks`; neither
    verb compiles the other's glue, and `measure` loads neither."""
    if args.command == "build":
        from . import builds

        return builds.cmd_build(args)
    from . import checks

    return checks.cmd_check(args)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_pool(path: str | None):
    """The pool from a --pool file (default pool without one)."""
    from .numberings import Registry, default_pool

    if path is None:
        return default_pool()
    try:
        return Registry.deserialize(_read(path))
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot read pool file {path}: {err}") from err


def _inputs(verb: str, name: str, args):
    """The pool and the modulus code the verb reads, None for each it does not."""
    reads = VERBS[verb][name]
    pool = _load_pool(args.pool) if POOL in reads else None
    if MODULUS not in reads:
        return pool, None
    from . import programs

    return pool, MODULI[args.modulus](programs)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


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


def _opt(name: str) -> str:
    return "--" + name.replace("_", "-")


def _kind(default):
    """A flag's type from its default: int, a MODULI name, a path (str) or a switch (False)."""
    return int if type(default) is int else sorted(MODULI) if isinstance(default, str) else str if default is None else False


def _metavar(name: str, kind) -> str:
    return name if isinstance(kind, type) else "{" + ",".join(kind) + "}"


def _usage(verb) -> str:
    _, positionals, flags = ARGS.get(verb, _TOP)
    words = [f"[{_opt(n)}]" if d is False else f"[{_opt(n)} {_metavar(n.upper(), _kind(d))}]" for n, d in flags.items()]
    words += [_metavar(name, kind) for name, kind in positionals.items()]
    return " ".join(["canimm", verb, "[-h]", *words] if verb else ["canimm [-h]", *words, "..."])


def _help(verb) -> str:
    about, _, flags = ARGS.get(verb, _TOP)
    rows = []
    for name, default in flags.items():
        notes = ["switch" if default is False else "path" if default is None else f"default {default}"]
        notes += [f"read only by {_readers(verb, name)}"] * (name in (POOL, MODULUS))
        rows.append(f"  {_opt(name):15} {'; '.join(notes)}")
    return "\n".join([f"usage: {_usage(verb)}", "", about.strip(), "", *rows, ""])


def _fail(verb, message: str):
    prog = "canimm" if verb is None else f"canimm {verb}"
    sys.stderr.write(f"usage: {_usage(verb)}\n{prog}: error: {message}\n")
    sys.exit(1)


def _value(verb, label: str, kind, text: str):
    """`text` read as an int, a name in the table `kind`, or a path (`kind` str)."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _fail(verb, f"argument {label}: invalid int value: {text!r}")
    if kind is not str and text not in kind:
        _fail(verb, f"argument {label}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
    return text


def _flag(verb, token: str, names):
    """The flag `token` names, as (name, its `=` value or None); None for a
    value, and "" for an unknown flag.  A flag may be shortened to a unique
    prefix; -5, -.5 and -1.5 are values, as is a token holding a space."""
    head, dot, tail = token[1:].partition(".")
    if token[:1] != "-" or len(token) == 1 or (head + tail).isdecimal() and (tail or not dot):
        return None
    if token[:2] == "-h":
        return "help", token[2:].lstrip("h") or None  # -hh is -h -h
    option, eq, value = token.partition("=")
    hits = [name for name in names if option[:2] == "--" and _opt(name).startswith(option)]
    if len(hits) > 1:
        _fail(verb, f"ambiguous option: {token} could match {', '.join(map(_opt, hits))}")
    return (hits[0], value if eq else None) if hits else None if " " in token else ""


def parse_args(argv: list, verb=None, extras=()) -> SimpleNamespace:
    """The command line as attributes, the verb as `command`.  The flags of
    `verb` (None: of `canimm` up to its verb) go in any order among its
    positionals, the last of a repeated flag wins, and every token after the
    first `--` is a value.  A usage error prints the usage and the error and
    exits 1; --help prints the help and exits 0."""
    _, positionals, flags = ARGS.get(verb, _TOP)
    tokens, extras = list(argv), list(extras)
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_flag(verb, t, ["help", *flags]) for t in tokens[:end]] + [False] + [None] * (len(tokens) - end)
    values, left, i = {"command": verb, **flags}, list(positionals), 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None and left:
            name = left.pop(0)
            values[name] = _value(verb, name, positionals[name], token)
            if name == "command":  # the rest is the verb's
                return parse_args(tokens[i:], token, extras)
        elif kind is False:  # the first --
            continue
        elif not kind:  # an unknown flag, or a value past the positionals
            extras.append(token)
        elif kind[0] == "help" or flags[kind[0]] is False:  # a switch
            if kind[1] is not None:
                _fail(verb, f"argument {'-h/' * (kind[0] == 'help')}{_opt(kind[0])}: ignored explicit argument {kind[1]!r}")
            if kind[0] == "help":
                sys.stdout.write(_help(verb))
                sys.exit(0)
            values[kind[0]] = True
        else:
            name, value = kind
            if value is None:
                if i == len(tokens) or kinds[i] is not None:
                    _fail(verb, f"argument {_opt(name)}: expected one argument")
                value, i = tokens[i], i + 1
            values[name] = _value(verb, _opt(name), _kind(flags[name]), value)
    if left:
        _fail(verb, f"the following arguments are required: {', '.join(left)}")
    if extras:
        _fail(verb, f"unrecognized arguments: {' '.join(extras)}")
    for name, default in flags.items():
        if type(default) is int and values[name] < (name != "blocks"):
            _fail(verb, f"{_opt(name)} must be {'positive' if name != 'blocks' else 'nonnegative'}")
    return SimpleNamespace(**values)


def _order_errors() -> tuple:
    """`mathias.ExtensionOrderError` once mathias is loaded; until then no
    code has run that can raise it, and mathias need not be imported."""
    mathias = sys.modules.get(f"{__package__}.mathias")
    return () if mathias is None else (mathias.ExtensionOrderError,)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return cmd_measure(args) if args.command == "measure" else _handled(args)
    except _order_errors() as err:  # a built chain broke the extension order
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:  # bad input (ProgramDepthError among it), an --out that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> None:
    """Exit with `main`'s status, freezing the heap first on every way out
    (a returned status, a usage error's or --help's SystemExit, an uncaught
    exception): the collection the interpreter runs at exit then frees
    none of the objects the verb left, which the process no longer needs."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
