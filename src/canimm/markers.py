"""The marker family: movable markers against stage approximations of raw
codes (delta2), and the effective-immunity carving inside a prefix that the
`effectivize` build chains onto a marker run.  Conventions: `constructions`.
"""

from __future__ import annotations

from typing import Sequence

from .finitesets import SetPrefix, free_position
from .machine import eval_bounded, we_bounded
from .records import ConstructionTrace


# ---------------------------------------------------------------------------
# Limit-computable marker construction


def delta2_prefix(pool: Sequence[int], stages: int, markers: int) -> tuple[SetPrefix, ConstructionTrace]:
    """Movable markers against stage approximations of raw codes.

    At stage s, marker n is the least value above marker n-1 avoiding every
    D_{e,s}(i) with pool position e and index i both at most n whose size
    exceeds i.  Since a stage value only changes at its settling step, the
    markers are recomputed exactly at those event stages, from the lowest
    level max(e, i) whose mask an oversized value settling there grows; the
    trace records each move and which pool entries settled within the
    horizon.
    """
    if stages < 1 or markers < 1:
        raise ValueError("stage and marker horizons must be positive")
    settled: dict[tuple[int, int], tuple[int, int]] = {}
    unsettled: list[tuple[int, int]] = []
    for e, code in enumerate(pool):
        if e >= markers:
            break
        for i in range(markers):
            r = eval_bounded(code, (i,), stages)
            if r.converged:
                settled[(e, i)] = (r.steps, r.value)
            else:
                unsettled.append((e, i))
    events = sorted({0} | {steps for steps, _ in settled.values()})

    trace = ConstructionTrace(
        "delta2",
        meta={
            "stages": stages,
            "markers": markers,
            "pool": list(pool),
            "settled": len(settled),
            "unsettled": sorted(unsettled),
        },
    )
    hits: dict[int, list[tuple[int, int]]] = {}  # stage -> (level, oversized value)
    for (e, i), (steps, value) in settled.items():
        if value.bit_count() > i:
            hits.setdefault(steps, []).append((max(e, i), value))
    levels = [0] * markers  # the union of each level's settled oversized values
    below = [0] * markers  # below[n]: the union of levels 0..n, which marker n avoids
    current = [-1] * markers  # -1: not placed yet; the first event places every marker
    low = 0
    for s in events:
        for level, value in hits.get(s, ()):
            if value & ~levels[level]:
                levels[level] |= value
                low = min(low, level)
        mask = below[low - 1] if low else 0
        previous = current[low - 1] if low else -1
        for n in range(low, markers):
            mask |= levels[n]
            below[n] = mask
            previous = free_position(mask, previous + 1)
            if current[n] != previous:
                current[n] = previous
                trace.add(s, "set", n, previous)
        low = markers

    return replay_delta2(trace), trace


def replay_delta2(trace: ConstructionTrace) -> SetPrefix:
    markers: dict[int, int] = {}
    for rec in trace.records:
        if rec.rule == "set":
            n, x = rec.fields
            markers[n] = x
    values = [markers[n] for n in sorted(markers)]
    return SetPrefix.from_members(values)


# ---------------------------------------------------------------------------
# Carving an effectively immune subset out of a given prefix


def effectivize_inside(
    prefix: SetPrefix, stages: int, budget: int, codes: Sequence[int] | None = None
) -> tuple[SetPrefix, ConstructionTrace]:
    """Run the classical effective-immunity construction inside the members.

    At each stage the least not-yet-acted index e at most the stage number
    whose bounded domain meets the members from position 2e onward acts
    once, removing the least such element.  At most one removal per index
    keeps at least half of every initial segment.  The e-th domain comes
    from codes[e]; by default index e is the raw code e itself (the same
    finite surrogate for a universal listing the marker construction uses).

    Whether an index can act does not depend on the stage.  So when stage s
    begins, every index below s has acted or never will, and index s is
    the only one the stage examines: its bounded domain is computed once.
    """
    members = prefix.members()
    if len(members) < 2 * stages:
        raise ValueError("prefix must hold at least 2 * stages members")
    if codes is None:
        codes = range(stages)
    trace = ConstructionTrace(
        "effectivize",
        meta={"stages": stages, "budget": budget, "base_mask": prefix.mask, "base_length": prefix.length},
    )
    for s in range(min(stages, len(codes))):
        start = members[2 * s]
        hit = we_bounded(codes[s], budget).code & (prefix.mask >> start << start)
        if hit:
            trace.add(s, "act", s, (hit & -hit).bit_length() - 1)
    return replay_effectivize(trace), trace


def replay_effectivize(trace: ConstructionTrace) -> SetPrefix:
    mask = trace.meta["base_mask"]
    for rec in trace.records:
        if rec.rule == "act":
            mask &= ~(1 << rec.fields[1])
    return SetPrefix(mask, trace.meta["base_length"])
