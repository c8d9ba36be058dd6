"""The `check` verb: from a trace file and parsed flags to the library calls
that judge it, and their verdict lines.

Only `check` imports this module, so `build` and `measure` compile none of
it.  A check opens `--pool` and encodes `--modulus` only when
`command.VERBS` says it reads them; its handler gets None for an input it
does not read.  Every handler imports `checkers`, or `schnorr` alone for
the schnorr suite, when it runs, and reads the function off that module at
call time, so a wrapper installed on the module (a profiler's, say) sees
the call.
"""

import os

from .command import _emit, _inputs, _read


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
    """Scan the pool, or for a hi-not-ci trace under the identity modulus the
    numbering the trace carries, for violations of h as a modulus.

    That numbering has D(2n) = block n of the witness rule, and block n
    starts at or above n, so a witness position 2n at or past twice the
    prefix length names a block outside the prefix, from which no violation
    can come; such a position is refused before the scan.  A forged trace
    can still make the scan run up to twice its own prefix length.
    """
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
        bound = max(positions)
        length = max((prefix.length for prefix in parsed.prefixes.values()), default=0)
        if bound >= 2 * length:
            raise ValueError(f"witness position {bound} names block {bound // 2}, which starts at or past "
                             f"the prefix length {length}")
        scan = [Registry().register(rule, surjective=True, label="witness")]
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
    import bisect

    from . import records, schnorr

    prefix = parsed.prefixes.get("R")
    if prefix is None:
        raise ValueError("a schnorr check needs the trace's prefix R line")
    missed = parsed.meta.get("missed_blocks", [])
    if not _index_list(missed) or 0 in missed:
        raise ValueError("meta missed_blocks must be a list of block indices, which start at 1")
    top = 0
    while schnorr.block_span(top + 1) <= prefix.length:
        top += 1
    covered = [i for i in missed if i <= top]
    if not covered:  # Inconclusive, which no suite counts as a failure
        return ["schnorr\tinconclusive\tno covered missed blocks\n"], False
    m = max(covered)
    disjoint = schnorr.disjoint_blocks(prefix, m)
    lines = []
    found_fail = False
    for n in range(min(len(missed), m)):
        # the least witness for U_n: the first disjoint block above n
        k = bisect.bisect_right(disjoint, n)
        ok = k < len(disjoint)
        found_fail |= not ok
        witness = disjoint[k] if ok else 0
        lines.append(f"schnorr\tU_{n}\t{'member' if ok else 'MISSING'}\twitness\t{records.render_value(witness)}\n")
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
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot read trace file {args.trace}: {err}") from err
    pool, h = _inputs("check", args.suite, args)
    lines, found_fail = CHECKS[args.suite](parsed, pool, h, args)
    _emit("".join(lines), args.out)
    return 2 if found_fail != args.expect_fail else 0
