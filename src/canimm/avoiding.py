"""The pool-avoiding family: constructions whose members dodge every
oversized pool value.  bci and ci-not-hi spoil pair blocks I_p = {2p, 2p+1}
in one stage loop and derive their fill horizon from the index bound
themselves; prefix coding and ci-hi read one level-by-level scan of the
oversized pool values.  Conventions: `constructions`.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .finitesets import FiniteSet, SetPrefix, code_of, free_position
from .machine import eval_total, pair, unpair
from .numberings import Numbering
from .records import ConstructionTrace


def _oversized_unions(pool: Sequence[Numbering]):
    """After each level n = 0, 1, ..., the union of the pool values D_e(i)
    with max(e, i) <= n that have more than i elements."""
    mask = 0
    for n in itertools.count():
        column = [(e, n) for e in range(min(n + 1, len(pool)))]
        row = [(n, i) for i in range(n)] if n < len(pool) else []
        for e, i in column + row:
            value = pool[e].value(i)
            if len(value) > i:
                mask |= value.code
        yield mask


# ---------------------------------------------------------------------------
# Spoiling stages over the pair blocks I_p = {2p, 2p+1}


# The most pair blocks a one-per-pair run fills up to a pool value ceiling;
# each of its prefix lines is then at most about 8 MB.
MAX_FILL_PAIRS = 1 << 22


def _fill_pairs(pool: Sequence[Numbering], index_bound: int, stages: int) -> tuple[int, dict[int, FiniteSet]]:
    """Pair blocks up to the largest element any pool numbering mentions up
    to the index bound, and two more; and the values it read at stages
    pair(e, i) < stages, by stage.

    Raises ValueError as soon as a value reaches an element in pair block
    MAX_FILL_PAIRS or later, before evaluating any further value: the
    default pool's big-interval value at index i has about 8 i**2 bits."""
    top = 0
    read = {}
    for position, numbering in enumerate(pool):
        for i in range(position, index_bound + 1):
            value = numbering.value(i)
            if (s := pair(position, i)) < stages:
                read[s] = value
            if not value.is_empty:
                top = max(top, value.max_value())
                if top // 2 >= MAX_FILL_PAIRS:
                    raise ValueError(
                        f"--index-bound {index_bound}: numbering {numbering.id} reaches element {top} at index {i},"
                        f" past the {MAX_FILL_PAIRS} pair blocks a fill may cover"
                    )
    return top // 2 + 2, read


def _spoiling_run(
    name: str, pool: Sequence[Numbering], stages: int, index_bound: int, size_bound, spoils: int, case2
) -> ConstructionTrace:
    """The stages s = pair(e, i) of a one-per-pair construction.

    Stage s acts only when i >= e and the e-th pool value at i has more
    than size_bound(i) elements: it spoils that value by taking the
    `spoils` least pair blocks the value meets that no earlier stage took,
    and records case2 with e, i, those blocks and case2 of the value's
    least element in each.  Every other stage records case1.  The fill
    covers the pair blocks of every pool value up to the index bound, and a
    stage that would spoil a block at or past it raises ValueError; that
    needs i > index_bound, so stages <= pair(0, index_bound + 1) never do.
    A stage with i <= index_bound takes the value the fill scan read, so
    each value is evaluated once.
    """
    if stages < 1:
        raise ValueError("stage horizon must be positive")
    fill_pairs, read = _fill_pairs(pool, index_bound, stages)
    used_pairs: set[int] = set()
    trace = ConstructionTrace(
        name, meta={"stages": stages, "pool_ids": [n.id for n in pool], "fill_pairs": fill_pairs}
    )
    for s in range(stages):
        e, i = unpair(s)
        if e >= len(pool) or i < e or len(value := read.pop(s) if i <= index_bound else pool[e].value(i)) <= size_bound(i):
            trace.add(s, "case1", e, i)
            continue
        blocks = tuple(itertools.islice(_free_pairs(value, used_pairs), spoils))
        if blocks[-1] >= fill_pairs:
            raise ValueError(f"stage {s} spoils pair block {blocks[-1]}, outside the {fill_pairs} pair blocks of the fill")
        used_pairs.update(blocks)
        trace.add(s, "case2", e, i, *blocks, *case2(*(_least_in_pair(value, p) for p in blocks)))
    return trace


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


def _filled(trace: ConstructionTrace, used: set[int], *masks: int) -> tuple[SetPrefix, ...]:
    """The masks as prefixes of the trace's fill, the k-th also holding
    element 2p + k of every unused pair block p."""
    fill_pairs = trace.meta["fill_pairs"]
    fill = _unused_pair_evens(fill_pairs, used)
    return tuple(SetPrefix(mask | fill << k, 2 * fill_pairs) for k, mask in enumerate(masks))


# ---------------------------------------------------------------------------
# Two-sided construction


def bci_run(pool: Sequence[Numbering], stages: int, index_bound: int) -> tuple[SetPrefix, SetPrefix, ConstructionTrace]:
    """Two disjoint sets, each dodging every oversized pool value.

    Stage s = pair(e, i) acts only when i >= e and the e-th pool value at i
    has more than 4 f(i) + 3 elements; it then spoils that value for both
    sides by splitting two fresh pair blocks between them.  Unused pair
    blocks are finally split evens-to-R, odds-to-Q up to the fill horizon,
    which covers every pool value up to the index bound.  A stage that
    would spoil a block at or past the fill horizon raises ValueError.
    """
    trace = _spoiling_run(
        "bci", pool, stages, index_bound, lambda i: 4 * pair(i, i) + 3, 2,
        lambda x, z: (x, _partner(x), z, _partner(z)),
    )
    return (*replay_bci(trace), trace)


def replay_bci(trace: ConstructionTrace) -> tuple[SetPrefix, SetPrefix]:
    r_mask = q_mask = 0
    used: set[int] = set()
    for rec in trace.records:
        if rec.rule == "case2":
            _, _, p_s, q_s, x, y, z, w = rec.fields
            r_mask |= (1 << y) | (1 << z)
            q_mask |= (1 << x) | (1 << w)
            used.update((p_s, q_s))
    return _filled(trace, used, r_mask, q_mask)


# ---------------------------------------------------------------------------
# Coding an arbitrary prefix into an immune-against-the-pool set


def choose_cofinal_positions(pool: Sequence[Numbering], count: int) -> list[int]:
    """Increasing p_n with both 2 p_n and 2 p_n + 1 avoiding the oversized
    pool values with indices up to n."""
    positions = []
    p = 0
    for mask in itertools.islice(_oversized_unions(pool), count):
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
    previous = -1
    for s, mask in zip(range(stages), _oversized_unions(pool)):
        bound = eval_total(fns[s], (s,)) if s < len(fns) else 0
        x = free_position(mask, max(previous, bound) + 1)
        trace.add(s, "pick", x, bound)
        previous = x
    return replay_ci_hi(trace), trace


def replay_ci_hi(trace: ConstructionTrace) -> SetPrefix:
    members = [rec.fields[0] for rec in trace.records if rec.rule == "pick"]
    return SetPrefix.from_members(members)


# ---------------------------------------------------------------------------
# Canonically immune but dominated on both sides


def ci_not_hi_run(pool: Sequence[Numbering], stages: int, index_bound: int) -> tuple[SetPrefix, ConstructionTrace]:
    """One element from every pair block I_p, spoiling oversized values.

    Stage s = pair(e, i) with i >= e and the e-th value at i larger than
    2 f(i) withholds one element of that value from the set and inserts its
    pair partner; unused blocks up to the fill horizon, which covers every
    pool value up to the index bound, contribute their even element, so
    both the set and its complement meet every block exactly once.  A stage
    that would spoil a block at or past the fill horizon raises ValueError.
    """
    trace = _spoiling_run("ci-not-hi", pool, stages, index_bound, lambda i: 2 * pair(i, i), 1, lambda x: (x,))
    return replay_ci_not_hi(trace), trace


def replay_ci_not_hi(trace: ConstructionTrace) -> SetPrefix:
    r_mask = 0
    used: set[int] = set()
    for rec in trace.records:
        if rec.rule == "case2":
            _, _, p_s, x = rec.fields
            r_mask |= 1 << _partner(x)
            used.add(p_s)
    return _filled(trace, used, r_mask)[0]
