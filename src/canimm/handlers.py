"""The `build` and `check` verbs: from parsed flags to library calls and back.

Only those two verbs import this module, so `measure` compiles none of it.
A verb opens `--pool` and encodes `--modulus` only when `command.VERBS`
says it reads them; its handler gets None for an input it does not read.
Every handler imports its library module when it runs, and a build only
its construction's family (`markers`, `avoiding`, `blocks`, `pumping`, or
`mathias` for `generic`), never the `constructions` index of all four.  A
handler reads the function off that module at call time, so a wrapper
installed on the module (a profiler's, say) sees the call.
"""

import os
import sys

from .command import MODULI, MODULUS, POOL, VERBS

DEFAULT_COFINAL_BITS = "10" * 16


def default_functions() -> list[int]:
    from . import programs as pg

    return [pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code()]


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
    except (OSError, ValueError, IndexError) as err:
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


def _with_r(prefix, trace):
    return trace, {"R": prefix}


def _build_delta2(pool, args):
    from . import markers

    return _with_r(*markers.delta2_prefix(pool.codes(), args.stages, args.markers))


def _build_cofinal(pool, args):
    from . import avoiding

    return _with_r(*avoiding.cofinal_encode(list(pool), DEFAULT_COFINAL_BITS))


def _build_ci_hi(pool, args):
    from . import avoiding

    return _with_r(*avoiding.ci_hi_run(list(pool), default_functions(), args.stages))


def _build_ci_not_hi(pool, args):
    from . import avoiding

    return _with_r(*avoiding.ci_not_hi_run(list(pool), args.stages, args.index_bound))


def _build_bci(pool, args):
    from . import avoiding

    r, q, trace = avoiding.bci_run(list(pool), args.stages, args.index_bound)
    return trace, {"Q": q, "R": r}


def _build_effectivize(pool, args):
    from . import markers

    base, _ = markers.delta2_prefix(pool.codes(), args.stages, args.markers)
    quotient, trace = markers.effectivize_inside(base, args.markers // 2, args.budget)
    trace.meta["base_stages"] = args.stages
    return trace, {"Q": quotient, "R": base}


def _build_2generic_witness(pool, args):
    from . import programs as pg
    from . import pumping

    _, _, trace = pumping.build_2generic_witness(
        "", pg.enumerate_oracle_ones_code(), pg.zero_code(), args.index_bound, args.index_bound
    )
    return trace, {}


def _build_hi_not_ci(pool, args):
    from . import blocks

    try:
        return _with_r(*blocks.hi_not_ci_run(default_functions(), args.blocks, target_index=0))
    except ValueError as err:  # no selection, or one past the construction's size guard
        raise ValueError(f"--blocks {args.blocks}: {err}") from err


def _build_generic(pool, args):
    from . import mathias

    schedule = mathias.default_schedule(
        list(pool), thin_count=args.index_bound, avoid_count=args.blocks, stem_target=args.markers
    )
    run = mathias.build_generic(mathias.Condition.empty(), schedule, horizon=args.stages)
    return run.trace, {"R": run.prefix}


# construction -> (pool, args) -> (trace, prefixes by label)
BUILDS = {
    "delta2": _build_delta2,
    "bci": _build_bci,
    "cofinal": _build_cofinal,
    "ci-hi": _build_ci_hi,
    "ci-not-hi": _build_ci_not_hi,
    "hi-not-ci": _build_hi_not_ci,
    "effectivize": _build_effectivize,
    "2generic-witness": _build_2generic_witness,
    "generic": _build_generic,
}


def cmd_build(args) -> int:
    from . import records

    pool, _ = _inputs("build", args.construction, args)
    trace, prefixes = BUILDS[args.construction](pool, args)
    _emit(records.render_trace(trace, prefixes), args.out)
    return 0


def _index_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(i, int) and i >= 0 for i in value)


def _verdict_lines(parsed, verdict_of):
    from . import checkers

    if not parsed.prefixes:
        raise ValueError(f"the {parsed.name} trace has no prefix line to check")
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
    if not covered:  # Inconclusive, which no suite counts as a failure
        return ["schnorr\tinconclusive\tno covered missed blocks\n"], False
    m = max(covered)
    lines = []
    found_fail = False
    for n in range(min(len(missed), m)):
        ok, witness = schnorr.in_U_n(prefix, n, m)
        found_fail |= not ok
        lines.append(f"schnorr\tU_{n}\t{'member' if ok else 'MISSING'}\twitness\t{records.render_value(witness or 0)}\n")
    return lines, found_fail


# suite -> (parsed trace, pool, modulus code, args) -> (output lines, each
# ending in a newline, and whether a check failed)
CHECKS = {
    "immunity": _check_immunity,
    "domination": _check_domination,
    "effective": _check_effective,
    "schnorr": _check_schnorr,
}


def cmd_check(args) -> int:
    from . import records

    if not os.path.exists(args.trace):
        raise ValueError(f"no such trace file: {args.trace}")
    try:
        parsed = records.parse_trace(_read(args.trace))
    except (OSError, ValueError, IndexError) as err:
        raise ValueError(f"cannot read trace file {args.trace}: {err}") from err
    pool, h = _inputs("check", args.suite, args)
    lines, found_fail = CHECKS[args.suite](parsed, pool, h, args)
    _emit("".join(lines), args.out)
    return 2 if found_fail != args.expect_fail else 0
