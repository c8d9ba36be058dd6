"""Independent checks of `canimm` outputs.

Nothing here calls the CLI or a checker.  Traces are replayed through the
library's `replay_*` inverses; verdicts are recomputed with plain set
arithmetic over `Numbering.value(i).elements` and closed-form moduli;
measures are recomputed with `fractions.Fraction`; Schnorr lines come from
the prefix bits.  Each `check_*` returns None when the output is right and
a one-line reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

from canimm import constructions as C
from canimm.machine import we_bounded
from canimm.numberings import Registry, witness_rule_from_table
from canimm.records import parse_trace

# The CLI's --modulus catalog in closed form; pair(i, i) = 2i^2 + 2i.
MODULI = {
    "identity": lambda i: i,
    "zero": lambda i: 0,
    "succ": lambda i: i + 1,
    "double": lambda i: 2 * i,
    "cofinal": lambda i: 2 * i + 1,
    "bci": lambda i: 4 * (2 * i * i + 2 * i) + 3,
    "twof": lambda i: 2 * (2 * i * i + 2 * i),
}

COFINAL_BITS = "10" * 16


def _flag(flags, name, default):
    flags = list(flags)
    return flags[flags.index(name) + 1] if name in flags else default


def _members(mask: int) -> set[int]:
    return {n for n in range(mask.bit_length()) if mask >> n & 1}


def _code(elements) -> int:
    return sum(1 << x for x in elements)


def _unpair(p: int) -> tuple[int, int]:
    w = (math.isqrt(8 * p + 1) - 1) // 2
    y = p - w * (w + 1) // 2
    return w - y, y


def _block(i: int) -> tuple[int, int]:
    """[start, end) of the Schnorr block F_i."""
    start = i * (i - 1) // 2
    return start, start + i


def _block_free(mask: int, i: int) -> bool:
    start, end = _block(i)
    return all(not mask >> x & 1 for x in range(start, end))


# ---------------------------------------------------------------- builds


def _replayed(parsed):
    """label -> (mask, length) the trace replays to."""
    trace = parsed.trace()
    name = parsed.name
    if name in ("delta2", "cofinal", "ci-hi", "ci-not-hi", "hi-not-ci"):
        replay = {
            "delta2": C.replay_delta2,
            "cofinal": C.replay_cofinal,
            "ci-hi": C.replay_ci_hi,
            "ci-not-hi": C.replay_ci_not_hi,
            "hi-not-ci": C.replay_hi_not_ci,
        }[name]
        r = replay(trace)
        return {"R": (r.mask, r.length)}
    if name == "bci":
        r, q = C.replay_bci(trace)
        return {"R": (r.mask, r.length), "Q": (q.mask, q.length)}
    if name == "effectivize":
        q = C.replay_effectivize(trace)
        return {"Q": (q.mask, q.length), "R": (parsed.meta["base_mask"], parsed.meta["base_length"])}
    if name == "2generic-witness":
        return {}
    raise ValueError(f"no replay for {name}")


def _check_generic(parsed, pool: Registry) -> str | None:
    """Condition chain: one record per schedule step, each followed by a
    grow record exactly when the stem is smaller than the step number;
    stems only grow and grow records reach the step number exactly."""
    stem = 0
    records = iter(parsed.records)
    for number, step in enumerate(parsed.meta["steps"], start=1):
        rec = next(records, None)
        if rec is None or (rec.stage, rec.fields[0]) != (number, step):
            return f"no record for step {number} ({step})"
        if stem & ~rec.fields[1]:
            return f"stem of {step} drops elements of the previous stem"
        stem = rec.fields[1]
        if stem.bit_count() < number:
            rec = next(records, None)
            if rec is None or (rec.stage, rec.fields[0]) != (number, f"grow-{number}"):
                return f"no grow record after step {number}"
            if stem & ~rec.fields[1] or rec.fields[1].bit_count() != number:
                return f"grow-{number} is not a growth to {number} elements"
            stem = rec.fields[1]
    if next(records, None) is not None:
        return "records beyond the schedule"
    if parsed.meta["stem"] != stem:
        return "meta stem differs from the last condition"
    prefix = parsed.prefixes["R"]
    if (prefix.mask, prefix.length) != (stem, stem.bit_length()):
        return "prefix R is not the final stem"
    for i in parsed.meta["missed_blocks"]:
        if not _block_free(stem, i):
            return f"missed block {i} meets the stem"
    members = _members(stem)
    for numbering_id, start, bound in parsed.meta["thin_certs"]:
        numbering = pool[numbering_id]
        for i in range(start, bound + 1):
            value = set(numbering.value(i).elements)
            if value <= members and len(value) > i:
                return f"thinning certificate D{numbering_id} broken at {i}"
    return None


def check_build(name: str, text: str, pool: Registry) -> str | None:
    parsed = parse_trace(text)
    if parsed.name != name:
        return f"trace names {parsed.name!r}"
    if name == "generic":
        return _check_generic(parsed, pool)
    if name == "2generic-witness":
        table = C.replay_2generic(parsed.trace())
        if witness_rule_from_table(table) != parsed.meta["witness_rule"]:
            return "replayed witness table gives another rule"
        return None
    if name in ("bci", "ci-not-hi"):
        stages = [(rec.stage, *rec.fields[:2]) for rec in parsed.records]
        if stages != [(s, *_unpair(s)) for s in range(parsed.meta["stages"])]:
            return "records are not one per stage s = pair(e, i)"
    got = {label: (p.mask, p.length) for label, p in parsed.prefixes.items()}
    if got != _replayed(parsed):
        return "prefixes differ from the replay"
    if name == "cofinal" and C.cofinal_decode(parsed.prefixes["R"]) != COFINAL_BITS:
        return "cofinal prefix does not decode to the coded bits"
    return None


# ---------------------------------------------------------------- checks


def parse_verdicts(text: str) -> dict[str, dict]:
    """label -> {status, horizon, violations} from a verdict file."""
    out: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "horizon":
            current["horizon"][fields[1]] = fields[2]
        elif fields[0] == "violation":
            current["violations"].append(tuple(int(x) for x in fields[1:]))
        else:
            label, kind, status = fields
            if kind != "verdict":
                raise ValueError(f"unexpected verdict line {line!r}")
            current = out[label] = {"status": status, "horizon": {}, "violations": []}
    return out


def _immunity(prefix, scan, bound: int, h) -> tuple[list, list]:
    members = _members(prefix.mask)
    violations, skipped = [], []
    for numbering, start in scan:
        for i in range(start, bound + 1):
            value = set(numbering.value(i).elements)
            if value and max(value) >= prefix.length:
                skipped.append((numbering.id, i))
            elif value <= members and len(value) > h(i):
                violations.append((numbering.id, i, _code(value), h(i)))
    return violations, skipped


def _horizon_differs(verdict, **expected) -> bool:
    return verdict["horizon"] != {key: str(value) for key, value in expected.items()}


def _check_immunity(parsed, flags, pool: Registry, verdicts) -> str | None:
    modulus = _flag(flags, "--modulus", "identity")
    if parsed.name == "hi-not-ci" and modulus == "identity":
        witness = Registry().register(parsed.meta["witness_rule"], surjective=True)
        scan = [(witness, 0)]
        bound = max(parsed.meta["witness_positions"])
    else:
        scan = [(numbering, pos) for pos, numbering in enumerate(pool)]
        bound = int(_flag(flags, "--index-bound", 16))
    for label, prefix in parsed.prefixes.items():
        violations, skipped = _immunity(prefix, scan, bound, MODULI[modulus])
        v = verdicts[label]
        if v["violations"] != violations:
            return f"{label}: violations differ from the set-arithmetic scan"
        if v["status"] != ("fail" if violations else "pass"):
            return f"{label}: status {v['status']} disagrees with the scan"
        ids = tuple(numbering.id for numbering, _ in scan)
        if _horizon_differs(v, index_bound=bound, pool_ids=ids, skipped=tuple(skipped), prefix_length=prefix.length):
            return f"{label}: horizon stamp differs"
    return None


def _check_domination(parsed, flags, verdicts) -> str | None:
    f = MODULI[_flag(flags, "--modulus", "identity")]
    for label, prefix in parsed.prefixes.items():
        members = sorted(_members(prefix.mask))
        exceed = [(n, members[n - 1], f(n)) for n in range(1, len(members) + 1) if members[n - 1] > f(n)]
        v = verdicts[label]
        if v["violations"] != exceed or v["status"] != ("fail" if exceed else "pass"):
            return f"{label}: domination verdict differs from direct comparison"
        if _horizon_differs(v, positions=(1, len(members) + 1), members=len(members), rank_base=1):
            return f"{label}: horizon stamp differs"
    return None


def _check_effective(parsed, flags, verdicts) -> str | None:
    h = MODULI[_flag(flags, "--modulus", "identity")]
    budget = int(_flag(flags, "--budget", 256))
    index_bound = int(_flag(flags, "--index-bound", 16))
    for label, prefix in parsed.prefixes.items():
        members = _members(prefix.mask)
        v = verdicts[label]
        if _horizon_differs(v, e_range=(0, index_bound + 1), budget=budget, prefix_length=prefix.length):
            return f"{label}: horizon stamp differs"
        if v["status"] != ("fail" if v["violations"] else "pass"):
            return f"{label}: status {v['status']} disagrees with its violations"
        for e, w_code, h_value in v["violations"]:
            w = _members(w_code)
            if we_bounded(e, budget).code != w_code:
                return f"{label}: W_{e} at budget {budget} is not the recorded set"
            if not (w <= members and max(w) < prefix.length and len(w) > h_value == h(e)):
                return f"{label}: violation at e={e} does not re-check"
    return None


def _schnorr_lines(parsed) -> list[str]:
    prefix = parsed.prefixes["R"]
    missed = parsed.meta.get("missed_blocks", [])
    top = 0
    while (top + 1) * (top + 2) // 2 <= prefix.length:
        top += 1
    covered = [i for i in missed if i <= top]
    if not covered:
        return ["schnorr\tinconclusive\tno covered missed blocks"]
    m = max(covered)
    lines = []
    for n in range(min(len(missed), m)):
        witness = next((i for i in range(n + 1, m + 1) if _block_free(prefix.mask, i)), None)
        status = "member" if witness is not None else "MISSING"
        lines.append(f"schnorr\tU_{n}\t{status}\twitness\t{witness or 0}")
    return lines


def check_check(suite: str, flags, trace_text: str, text: str, pool: Registry) -> str | None:
    parsed = parse_trace(trace_text)
    if suite == "schnorr":
        return None if text.splitlines() == _schnorr_lines(parsed) else "schnorr lines differ from the prefix bits"
    verdicts = parse_verdicts(text)
    if sorted(verdicts) != sorted(parsed.prefixes):
        return "verdict labels differ from the trace prefixes"
    if suite == "immunity":
        return _check_immunity(parsed, flags, pool, verdicts)
    if suite == "domination":
        return _check_domination(parsed, flags, verdicts)
    if suite == "effective":
        return _check_effective(parsed, flags, verdicts)
    raise ValueError(f"unknown suite {suite}")


# ---------------------------------------------------------------- measure


def _dyadic(x: Fraction) -> str:
    k = x.denominator.bit_length() - 1
    return str(x.numerator) if k == 0 else f"{x.numerator}/2^{k}"


def check_measure(flags, text: str) -> str | None:
    n, m = int(flags[0]), int(flags[1])
    product = Fraction(1)
    for i in range(n + 1, m + 1):
        product *= 1 - Fraction(1, 2**i)
    value, bound = 1 - product, Fraction(1, 2**n)
    expected = f"{_dyadic(value)} ≤ {_dyadic(bound)}: {'true' if value <= bound else 'false'}\n"
    return None if text == expected else "measure line differs from the Fraction recomputation"
