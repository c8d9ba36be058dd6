"""The `build` verb: from parsed flags to a construction's library call and
its trace.

Only `build` imports this module, so `check` and `measure` compile none of
it.  A build opens `--pool` only when `command.VERBS` says it reads it; its
handler gets None for a pool it does not read.  Every handler imports its
construction's family (`markers`, `avoiding`, `blocks`, `pumping`, or
`mathias` for `generic`) when it runs, never the `constructions` index of
all four, and reads the function off that module at call time, so a
wrapper installed on the module (a profiler's, say) sees the call.
"""

from .command import MODULI, _emit, _inputs

DEFAULT_COFINAL_BITS = "10" * 16


def default_functions() -> list[int]:
    """The functions ci-hi and hi-not-ci outrun: the identity, zero, succ
    and double `--modulus` codes."""
    from . import programs

    return [MODULI[name](programs) for name in ("identity", "zero", "succ", "double")]


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
