"""The block family: the union of blocks chosen to outrun listed functions
(hi-not-ci), with the numbering built from the same blocks that refutes its
target function as a modulus of immunity.  Conventions: `constructions`.
"""

from __future__ import annotations

from typing import Sequence

from . import programs as pg
from .finitesets import FiniteSet, SetPrefix
from .machine import PrimRec, decode, eval_total, unpair
from .numberings import even_odd_rule_code
from .records import ConstructionTrace


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


def hi_not_ci_run(fns: Sequence[int], pair_count: int) -> tuple[SetPrefix, ConstructionTrace]:
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
        meta={"pair_count": pair_count, "functions": list(fns), "target_index": 0},
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
        if fi == 0:
            chosen[n] = block_n.code
        trace.add(p, "select", fi, k, n, placed, bound, block_n.code)
        placed += len(block_n)

    trace.meta["witness_rule"] = even_odd_rule_code(h_even_rule_tree(fns[0]))
    trace.meta["witness_positions"] = [2 * n for n in sorted(chosen)]
    return replay_hi_not_ci(trace), trace


def replay_hi_not_ci(trace: ConstructionTrace) -> SetPrefix:
    mask = 0
    for rec in trace.records:
        if rec.rule == "select":
            mask |= rec.fields[5]
    return SetPrefix(mask, mask.bit_length())
