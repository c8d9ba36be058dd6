"""Finite-horizon runs of the stage constructions, with replayable traces.

Each run is a pure function of its inputs and horizons, emits a set prefix
together with a trace, and ties are always broken toward the least
admissible value so that traces replay bit-for-bit.  A run's prefix is
the replay of its own trace.  None of the emitted prefixes is claimed to
have any infinite-horizon property; the runs guarantee exactly the
per-stage invariants the checkers re-verify.

Index conventions: pools are ordered, and the pool position e plays the
role of the index of the e-th numbering, with claims starting "from e" in
the checkers.  Stage pairing is the machine's Cantor pairing throughout,
and the threshold function f(i) = max over e <= i of pair(e, i) is
pair(i, i).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from . import programs as pg
from .finitesets import FiniteSet, Record, SetPrefix, code_of, subset_of_string
from .machine import (
    eval_bounded,
    eval_total,
    pair,
    pair_bound,
    unpair,
    we_bounded,
    we_enumeration,
)
from .numberings import Numbering, Registry, even_odd_rule_code, witness_rule_from_table
from .records import ConstructionTrace


def _free_position(mask: int, start: int) -> int:
    """Least x >= start whose bit is clear in mask."""
    m = mask >> start
    t = (m + 1) & ~m
    return start + t.bit_length() - 1


# ---------------------------------------------------------------------------
# Limit-computable marker construction


def _pairs_at_level(n: int, pool_size: int):
    for e in range(min(n + 1, pool_size)):
        yield e, n
    if n < pool_size:
        for i in range(n):
            yield n, i


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
    events = [s for s in events if s <= stages]

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
            previous = _free_position(mask, previous + 1)
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
# Two-sided construction over the pair blocks I_p = {2p, 2p+1}


# The most pair blocks a two-sided run fills up to a pool value ceiling;
# each of its prefix lines is then at most about 8 MB.
MAX_FILL_PAIRS = 1 << 22


def pool_value_ceiling(pool: Sequence[Numbering], index_bound: int) -> int:
    """Largest element any pool numbering mentions up to the index bound.

    Raises ValueError as soon as a value reaches an element in pair block
    MAX_FILL_PAIRS or later, before evaluating any further value: the
    default pool's big-interval value at index i has about 8 i**2 bits."""
    top = 0
    for position, numbering in enumerate(pool):
        for i in range(position, index_bound + 1):
            value = numbering.value(i)
            if not value.is_empty:
                top = max(top, value.max_value())
                if top // 2 >= MAX_FILL_PAIRS:
                    raise ValueError(
                        f"--index-bound {index_bound}: numbering {numbering.id} reaches element {top} at index {i},"
                        f" past the {MAX_FILL_PAIRS} pair blocks a fill may cover"
                    )
    return top


def bci_run(pool: Sequence[Numbering], stages: int, fill_pairs: int) -> tuple[SetPrefix, SetPrefix, ConstructionTrace]:
    """Two disjoint sets, each dodging every oversized pool value.

    Stage s = pair(e, i) acts only when i >= e and the e-th pool value at i
    has more than 4 f(i) + 3 elements; it then spoils that value for both
    sides by splitting two fresh pair blocks between them.  Unused pair
    blocks are finally split evens-to-R, odds-to-Q up to the fill horizon.
    A stage that would spoil a block at or past the fill horizon raises
    ValueError.
    """
    if stages < 1:
        raise ValueError("stage horizon must be positive")
    used_pairs: set[int] = set()
    trace = ConstructionTrace("bci", meta={"stages": stages, "pool_ids": [n.id for n in pool]})
    for s in range(stages):
        e, i = unpair(s)
        if e >= len(pool) or i < e:
            trace.add(s, "case1", e, i)
            continue
        value = pool[e].value(i)
        if len(value) <= 4 * pair_bound(i) + 3:
            trace.add(s, "case1", e, i)
            continue
        p_s, q_s = itertools.islice(_free_pairs(value, used_pairs), 2)
        if q_s >= fill_pairs:
            raise ValueError(f"stage {s} spoils pair block {q_s}, outside the {fill_pairs} pair blocks of the fill")
        x = _least_in_pair(value, p_s)
        z = _least_in_pair(value, q_s)
        used_pairs.update((p_s, q_s))
        trace.add(s, "case2", e, i, p_s, q_s, x, _partner(x), z, _partner(z))

    trace.meta["fill_pairs"] = fill_pairs
    return (*replay_bci(trace), trace)


def _free_pairs(value: FiniteSet, used: set[int]):
    """Pair blocks the value meets and `used` lacks, least first."""
    code = value.code
    while code:
        p = ((code & -code).bit_length() - 1) >> 1
        code &= ~(3 << (2 * p))
        if p not in used:
            yield p


def _least_in_pair(value: FiniteSet, p: int) -> int:
    if 2 * p in value:
        return 2 * p
    return 2 * p + 1


def _partner(x: int) -> int:
    return x ^ 1


def _unused_pair_evens(fill_pairs: int, used: set[int]) -> int:
    """Bit 2p for every pair block p < fill_pairs outside `used`: the
    alternating mask 0b0101... of width 2 * fill_pairs less the used pairs'
    bits, in time linear in the width."""
    evens = ((1 << 2 * fill_pairs) - 1) // 3
    return evens ^ code_of(2 * p for p in used if 0 <= p < fill_pairs)


def replay_bci(trace: ConstructionTrace) -> tuple[SetPrefix, SetPrefix]:
    r_mask = q_mask = 0
    used: set[int] = set()
    for rec in trace.records:
        if rec.rule == "case2":
            _, _, p_s, q_s, x, y, z, w = rec.fields
            r_mask |= (1 << y) | (1 << z)
            q_mask |= (1 << x) | (1 << w)
            used.update((p_s, q_s))
    fill_pairs = trace.meta["fill_pairs"]
    fill = _unused_pair_evens(fill_pairs, used)
    r_mask |= fill
    q_mask |= fill << 1
    return SetPrefix(r_mask, 2 * fill_pairs), SetPrefix(q_mask, 2 * fill_pairs)


# ---------------------------------------------------------------------------
# Coding an arbitrary prefix into an immune-against-the-pool set


def choose_cofinal_positions(pool: Sequence[Numbering], count: int) -> list[int]:
    """Increasing p_n with both 2 p_n and 2 p_n + 1 avoiding the oversized
    pool values with indices up to n."""
    positions = []
    mask = 0
    p = 0
    for n in range(count):
        for e, i in _pairs_at_level(n, len(pool)):
            value = pool[e].value(i)
            if len(value) > i:
                mask |= value.code
        while (mask >> (2 * p)) & 3:
            p += 1
        positions.append(p)
        p += 1
    return positions


def cofinal_encode(pool: Sequence[Numbering], bits: str) -> tuple[SetPrefix, ConstructionTrace]:
    """Code the bit string into the avoided pair positions: bit n = 1 puts
    2 p_n into the set, bit n = 0 puts 2 p_n + 1."""
    if any(c not in "01" for c in bits):
        raise ValueError("bits must be over {0,1}")
    positions = choose_cofinal_positions(pool, len(bits))
    trace = ConstructionTrace("cofinal", meta={"bits": bits, "pool_ids": [n.id for n in pool]})
    for n, (p, bit) in enumerate(zip(positions, bits)):
        trace.add(n, "pick", p, 2 * p if bit == "1" else 2 * p + 1)
    return replay_cofinal(trace), trace


def cofinal_decode(prefix: SetPrefix) -> str:
    """Read the coded bits back off the member parities."""
    return "".join("1" if m % 2 == 0 else "0" for m in prefix.members())


def cofinal_carrier(pool: Sequence[Numbering], count: int) -> SetPrefix:
    """Both parities over the avoided positions (immune with modulus 2i+1)."""
    positions = choose_cofinal_positions(pool, count)
    members = [2 * p for p in positions] + [2 * p + 1 for p in positions]
    members.sort()
    return SetPrefix.from_members(members)


def replay_cofinal(trace: ConstructionTrace) -> SetPrefix:
    members = [rec.fields[1] for rec in trace.records if rec.rule == "pick"]
    return SetPrefix.from_members(members)


# ---------------------------------------------------------------------------
# Hyperimmune and canonically immune at once


def ci_hi_run(
    pool: Sequence[Numbering], fns: Sequence[int], stages: int
) -> tuple[SetPrefix, ConstructionTrace]:
    """Pick x_s above x_{s-1} and above f_s(s), avoiding every oversized
    pool value with both indices at most s.  Registered functions beyond
    the list are treated as zero (no growth constraint)."""
    if stages < 1:
        raise ValueError("stage horizon must be positive")
    trace = ConstructionTrace(
        "ci-hi", meta={"stages": stages, "pool_ids": [n.id for n in pool], "functions": list(fns)}
    )
    mask = 0
    previous = -1
    for s in range(stages):
        for e, i in _pairs_at_level(s, len(pool)):
            value = pool[e].value(i)
            if len(value) > i:
                mask |= value.code
        bound = eval_total(fns[s], (s,)) if s < len(fns) else 0
        x = _free_position(mask, max(previous, bound) + 1)
        trace.add(s, "pick", x, bound)
        previous = x
    return replay_ci_hi(trace), trace


def replay_ci_hi(trace: ConstructionTrace) -> SetPrefix:
    members = [rec.fields[0] for rec in trace.records if rec.rule == "pick"]
    return SetPrefix.from_members(members)


# ---------------------------------------------------------------------------
# Canonically immune but dominated on both sides


def ci_not_hi_run(pool: Sequence[Numbering], stages: int, fill_pairs: int) -> tuple[SetPrefix, ConstructionTrace]:
    """One element from every pair block I_p, spoiling oversized values.

    Stage s = pair(e, i) with i >= e and the e-th value at i larger than
    2 f(i) withholds one element of that value from the set and inserts its
    pair partner; unused blocks contribute their even element, so both the
    set and its complement meet every block exactly once.  A stage that
    would spoil a block at or past the fill horizon raises ValueError.
    """
    if stages < 1:
        raise ValueError("stage horizon must be positive")
    used_pairs: set[int] = set()
    trace = ConstructionTrace("ci-not-hi", meta={"stages": stages, "pool_ids": [n.id for n in pool]})
    for s in range(stages):
        e, i = unpair(s)
        if e >= len(pool) or i < e:
            trace.add(s, "case1", e, i)
            continue
        value = pool[e].value(i)
        if len(value) <= 2 * pair_bound(i):
            trace.add(s, "case1", e, i)
            continue
        p_s = next(_free_pairs(value, used_pairs))
        if p_s >= fill_pairs:
            raise ValueError(f"stage {s} spoils pair block {p_s}, outside the {fill_pairs} pair blocks of the fill")
        used_pairs.add(p_s)
        trace.add(s, "case2", e, i, p_s, _least_in_pair(value, p_s))

    trace.meta["fill_pairs"] = fill_pairs
    return replay_ci_not_hi(trace), trace


def replay_ci_not_hi(trace: ConstructionTrace) -> SetPrefix:
    r_mask = 0
    used: set[int] = set()
    for rec in trace.records:
        if rec.rule == "case2":
            _, _, p_s, x = rec.fields
            r_mask |= 1 << _partner(x)
            used.add(p_s)
    fill_pairs = trace.meta["fill_pairs"]
    r_mask |= _unused_pair_evens(fill_pairs, used)
    return SetPrefix(r_mask, 2 * fill_pairs)


# ---------------------------------------------------------------------------
# Hyperimmune but refuted by a built-to-order numbering


def _h_block(f: int, n: int, previous_end: int) -> tuple[int, int]:
    """(start, end) of the n-th block for modulus f: min >= n, size f(2n)+1,
    consecutive and disjoint for a fixed f."""
    start = max(n, previous_end)
    return start, start + eval_total(f, (2 * n,)) + 1


def _block_set(start: int, end: int) -> FiniteSet:
    return FiniteSet(((1 << (end - start)) - 1) << start)


def h_blocks(f: int, count: int) -> list[FiniteSet]:
    """Blocks 0..count-1 for modulus f built from scratch, the tests' reference;
    hi_not_ci_run extends one (start, end) table per modulus instead."""
    out = []
    end = 0
    for n in range(count):
        start, end = _h_block(f, n, end)
        out.append(_block_set(start, end))
    return out


def h_block_at(f: int, n: int) -> FiniteSet:
    """The n-th block for modulus f, rebuilding blocks 0..n (reference only)."""
    return h_blocks(f, n + 1)[n]


def h_even_rule_tree(f: int):
    """Total-tier rule tree for n -> code of the n-th block of modulus f."""
    from .machine import PrimRec, decode

    f_tree = decode(f)

    def f_at(t):
        return pg.comp(f_tree, t)

    # end recurrence: E(0) = f(0)+1; E(m+1) = max(m+1, E(m)) + f(2(m+1)) + 1
    base = pg.succ_(f_at(pg.c_(0)))
    idx = pg.succ_(pg.P0)
    step = pg.add_(pg.max_(idx, pg.P1), pg.succ_(f_at(pg.mul_(pg.c_(2), idx))))
    end_tree = PrimRec(base, step)

    end = pg.comp(end_tree, pg.P0)
    width = pg.succ_(f_at(pg.mul_(pg.c_(2), pg.P0)))
    return pg.interval_code_(pg.monus_(end, width), end)


# Size guard of hi_not_ci_run: the blocks one selection may add to its
# function's table, and the bit where a selected block may end at most.
# Block codes grow doubly exponentially: with the four default functions
# the 8th selection adds 2,141 blocks and ends at bit 4,702,392, and the
# 9th would add 4.7 million.
MAX_SELECTION_BLOCKS = 1 << 14
MAX_BLOCK_END = 1 << 25


def hi_not_ci_run(fns: Sequence[int], pair_count: int, target_index: int = 0) -> tuple[SetPrefix, ConstructionTrace]:
    """Union of blocks chosen to outrun every listed function.

    The p-th selection, for p = pair(i, k), takes a block of the i-th
    function whose index exceeds f_i(s+1), where s counts the elements
    already placed; blocks are placed in increasing position order, so the
    block's minimum is the (s+1)-st element of the set, which therefore
    overtakes f_i at that position (and infinitely often in the limit
    reading).  The same blocks feed a numbering with D(2n) = block(n) of
    the target function, refuting that function as a modulus of immunity;
    the trace's meta carries its rule (witness_rule) and the indices 2n of
    the chosen target blocks (witness_positions).  Function indices beyond
    the list are treated as the zero function.  A selection that would add
    more than MAX_SELECTION_BLOCKS blocks, or take a block ending past bit
    MAX_BLOCK_END, raises ValueError before its block set is built.
    """
    if pair_count < 1:
        raise ValueError("need at least one selection")
    trace = ConstructionTrace(
        "hi-not-ci",
        meta={"pair_count": pair_count, "functions": list(fns), "target_index": target_index},
    )
    mask = 0
    placed = 0
    chosen: dict[int, int] = {}
    spans: dict[int, list[tuple[int, int]]] = {}
    for p in range(pair_count):
        fi, k = unpair(p)
        f = fns[fi] if fi < len(fns) else pg.zero_code()
        bound = eval_total(f, (placed + 1,))
        table = spans.setdefault(f, [])
        n = bound + 1
        top = mask.bit_length()
        stop = len(table) + MAX_SELECTION_BLOCKS
        while True:
            while len(table) <= n:
                if len(table) == stop:
                    raise ValueError(f"selection {p + 1} would walk more than {MAX_SELECTION_BLOCKS} blocks")
                table.append(_h_block(f, len(table), table[-1][1] if table else 0))
            if table[n][0] >= top:
                break
            n += 1
        if table[n][1] > MAX_BLOCK_END:
            raise ValueError(f"selection {p + 1} would take a block ending at bit {table[n][1]}, past {MAX_BLOCK_END}")
        block_n = _block_set(*table[n])
        assert mask & block_n.code == 0
        mask |= block_n.code
        if fi == target_index:
            chosen[n] = block_n.code
        trace.add(p, "select", fi, k, n, placed, bound, block_n.code)
        placed += len(block_n)

    trace.meta["witness_rule"] = even_odd_rule_code(h_even_rule_tree(fns[target_index]))
    trace.meta["witness_positions"] = [2 * n for n in sorted(chosen)]
    return replay_hi_not_ci(trace), trace


def replay_hi_not_ci(trace: ConstructionTrace) -> SetPrefix:
    mask = 0
    for rec in trace.records:
        if rec.rule == "select":
            mask |= rec.fields[5]
    return SetPrefix(mask, mask.bit_length())


# ---------------------------------------------------------------------------
# Pumping oracle domains along string extensions

PUMP_FUEL_PER_BIT = 16


class PumpResult(Record):
    """Either the first witness extension in length-lex order, or an honest
    record that the bounded search ran out."""

    __slots__ = ("rho", "candidates_tried", "best_size")

    def __init__(self, rho: str | None, candidates_tried: int, best_size: int):
        self._fill(rho, candidates_tried, best_size)

    @property
    def resolved(self) -> bool:
        return self.rho is not None


def pump_enumeration(sigma: str, e: int, target: int, max_candidates: int = 4096) -> PumpResult:
    """First extension rho of sigma (length-lex order) whose bounded oracle
    domain exceeds the target size, with per-candidate fuel
    PUMP_FUEL_PER_BIT * len(rho)."""
    tried = 0
    best = 0
    for extra in itertools.count(0):
        for suffix in itertools.product("01", repeat=extra):
            if tried >= max_candidates:
                return PumpResult(None, tried, best)
            rho = sigma + "".join(suffix)
            tried += 1
            size = len(we_bounded(e, PUMP_FUEL_PER_BIT * len(rho), rho))
            best = max(best, size)
            if size > target:
                return PumpResult(rho, tried, best)


def alpha_string(i: int) -> str:
    """The i-th binary string in length-lex order (empty string first)."""
    return bin(i + 1)[3:]


class WitnessEntry(Record):
    __slots__ = ("i", "n", "key", "target", "beta", "witness")

    def __init__(self, i: int, n: int, key: int, target: int, beta: str | None, witness: FiniteSet | None):
        self._fill(i, n, key, target, beta, witness)


def build_2generic_witness(
    sigma: str,
    e: int,
    f: int,
    i_max: int,
    n_max: int,
    max_candidates: int = 4096,
) -> tuple[list[WitnessEntry], Numbering, ConstructionTrace]:
    """Pump the oracle domain along each branch sigma + alpha_i and collect
    witness sets H(i, n): the first f(2 pair(i,n)) + 1 elements enumerated
    into the pumped domain.  Unresolved pumps stay unresolved; their table
    entries are simply absent (never fabricated).  The resulting numbering
    has D(2 pair(i,n)) = H(i,n) and the standard numbering on odd indices;
    its rule is the trace's meta witness_rule.
    """
    entries = []
    trace = ConstructionTrace(
        "2generic-witness",
        meta={"sigma": sigma, "e": e, "f": f, "i_max": i_max, "n_max": n_max},
    )
    for i in range(i_max + 1):
        tau = sigma + alpha_string(i)
        for n in range(n_max + 1):
            key = pair(i, n)
            target = eval_total(f, (2 * key,))
            pump = pump_enumeration(tau, e, target, max_candidates)
            if not pump.resolved:
                entries.append(WitnessEntry(i, n, key, target, None, None))
                trace.add(key, "unresolved", i, n, target)
                continue
            rho = pump.rho
            order = we_enumeration(e, PUMP_FUEL_PER_BIT * len(rho), rho)
            first = [pos for _, pos in order[: target + 1]]
            witness = FiniteSet.from_elements(first)
            beta = rho[len(tau):]
            entries.append(WitnessEntry(i, n, key, target, beta, witness))
            trace.add(key, "entry", i, n, target, witness.code)
    trace.meta["witness_rule"] = witness_rule_from_table(replay_2generic(trace))
    numbering = Registry().register(trace.meta["witness_rule"], surjective=True, label="2generic-witness")
    return entries, numbering, trace


def replay_2generic(trace: ConstructionTrace) -> dict[int, int]:
    return {rec.stage: rec.fields[3] for rec in trace.records if rec.rule == "entry"}


def x_n_membership(sigma: str, numbering: Numbering, f: int, n: int, index_bound: int) -> bool:
    """Does some index i in [n, index_bound] witness the numbering against f
    inside sigma, i.e. D(i) inside the string and |D(i)| > f(i)?"""
    for i in range(n, index_bound + 1):
        value = numbering.value(i)
        if subset_of_string(value, sigma) and len(value) > eval_total(f, (i,)):
            return True
    return False


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
