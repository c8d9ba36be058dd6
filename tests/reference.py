"""References and fixtures the tests compare the library against.

No verb runs any of these, so they live beside the tests rather than in
`canimm`: a brute-force count of the truncated Schnorr measures, a run
against a finite oracle string, the both-parities cofinal carrier, and
three named programs (addition, a fixed oracle query, and the program that
diverges everywhere).
"""

from __future__ import annotations

from typing import Sequence

from canimm.avoiding import choose_cofinal_positions
from canimm.finitesets import SetPrefix
from canimm.machine import ALWAYS_DIVERGE_CODE, Outcome, PrimRec, Query, _run, encode
from canimm.numberings import Numbering
from canimm.programs import P0, P1, c_, succ_
from canimm.schnorr import DyadicRational, block, block_span


def brute_force_measure(n: int, m: int) -> DyadicRational:
    """Independent oracle: count all prefixes over the blocks up to m.

    Enumerates every assignment of the block_span(m) covered bits and counts
    those with an empty block in (n, m].  Exponential; meant for small m.
    """
    if m <= n:
        raise ValueError("need m > n")
    span = block_span(m)
    masks = [block(i).code for i in range(n + 1, m + 1)]
    hits = 0
    for assignment in range(1 << span):
        for bm in masks:
            if assignment & bm == 0:
                hits += 1
                break
    return DyadicRational.make(hits, span)


def eval_oracle_bounded(e: int, oracle: str, n: int, budget: int) -> Outcome:
    """Run oracle program e on input n against a finite 0/1 oracle string.

    Any query at a position >= len(oracle) diverges the whole run.
    """
    if any(c not in "01" for c in oracle):
        raise ValueError("oracle strings are over {0,1}")
    return _run(e, (n,), budget, oracle)


def cofinal_carrier(pool: Sequence[Numbering], count: int) -> SetPrefix:
    """Both parities over the avoided positions (immune with modulus 2i+1)."""
    positions = choose_cofinal_positions(pool, count)
    members = [2 * p for p in positions] + [2 * p + 1 for p in positions]
    members.sort()
    return SetPrefix.from_members(members)


def add_code() -> int:
    """add(n, y) = n + y by primitive recursion on the first argument."""
    return encode(PrimRec(P0, succ_(P1)))


def diverge_code() -> int:
    return ALWAYS_DIVERGE_CODE


def query_at_code(position: int) -> int:
    """Returns the oracle bit at a fixed position (diverges past the oracle)."""
    return encode(Query(c_(position)))
