"""Tree builders and a small library of named programs.

Helpers return syntax trees; the `*_code()` functions at the bottom return
encoded programs ready for the evaluator.  Branching is arithmetic (both
branches of a select are evaluated), which keeps everything built here in
the total tier unless a Mu or Query is introduced explicitly.
"""

from __future__ import annotations

from typing import Sequence

from .machine import (
    ALWAYS_DIVERGE_CODE,
    Add,
    Comp,
    Const,
    Div,
    Monus,
    Mu,
    Mul,
    Node,
    PairOp,
    Pow2,
    Proj,
    Query,
    Succ,
    encode,
)

P0 = Proj(0)
P1 = Proj(1)
P2 = Proj(2)


def c_(v: int) -> Node:
    return Const(v)


def comp(f: Node, *gs: Node) -> Node:
    return Comp(f, tuple(gs))


def succ_(a: Node) -> Node:
    return comp(Succ(), a)


def add_(a: Node, b: Node) -> Node:
    return comp(Add(), a, b)


def monus_(a: Node, b: Node) -> Node:
    return comp(Monus(), a, b)


def mul_(a: Node, b: Node) -> Node:
    return comp(Mul(), a, b)


def div_(a: Node, b: Node) -> Node:
    return comp(Div(), a, b)


def pow2_(a: Node) -> Node:
    return comp(Pow2(), a)


def pair_(a: Node, b: Node) -> Node:
    return comp(PairOp(), a, b)


def iszero_(a: Node) -> Node:
    # 1 if a == 0 else 0
    return monus_(c_(1), a)


def le_(a: Node, b: Node) -> Node:
    return iszero_(monus_(a, b))


def eq_(a: Node, b: Node) -> Node:
    return iszero_(add_(monus_(a, b), monus_(b, a)))


def max_(a: Node, b: Node) -> Node:
    return add_(a, monus_(b, a))


def if_zero_(cond: Node, then: Node, other: Node) -> Node:
    """then if cond == 0 else other; both branches are evaluated."""
    z = iszero_(cond)
    return add_(mul_(z, then), mul_(monus_(c_(1), z), other))


def mod_(a: Node, m: Node) -> Node:
    return monus_(a, mul_(m, div_(a, m)))


def parity_(a: Node) -> Node:
    return mod_(a, c_(2))


def half_(a: Node) -> Node:
    return div_(a, c_(2))


def interval_code_(lo: Node, hi: Node) -> Node:
    """Canonical code of the interval [lo, hi) (empty when hi <= lo)."""
    return monus_(pow2_(hi), pow2_(lo))


def balanced_sum(terms: Sequence[Node]) -> Node:
    """Sum of terms as a balanced tree, keeping the code size near-linear."""
    items = list(terms)
    if not items:
        return c_(0)
    while len(items) > 1:
        nxt = [add_(items[k], items[k + 1]) for k in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def packed_select_(values: Sequence[int], key: Node) -> Node:
    """Table lookup: values[key] for key < len(values), else 0.

    The table is packed into one constant at a fixed bit stride and indexed
    by shift-and-mask arithmetic, so lookups cost a handful of steps.
    """
    if not values:
        return c_(0)
    if any(v < 0 for v in values):
        raise ValueError("packed tables hold nonnegative values")
    stride = max(v.bit_length() for v in values) + 1
    packed = 0
    for k, v in enumerate(values):
        packed |= v << (k * stride)
    shifted = div_(c_(packed), pow2_(mul_(key, c_(stride))))
    return mod_(shifted, c_(1 << stride))


# ---------------------------------------------------------------------------
# Named programs


def identity_code() -> int:
    return encode(P0)


def succ_code() -> int:
    return encode(Succ())


def zero_code() -> int:
    return encode(Const(0))


def double_code() -> int:
    return encode(mul_(c_(2), P0))


def enumerate_oracle_ones_code() -> int:
    """Converges on input n exactly when the oracle bit at n is one."""
    # inside Mu the argument vector is (y, n)
    return encode(Mu(monus_(c_(1), Query(P1))))


def domain_program(elements: Sequence[int]) -> int:
    """A program whose bounded domain is exactly the given finite set."""
    members = sorted(set(elements))
    if not members:
        return ALWAYS_DIVERGE_CODE
    hit = balanced_sum([eq_(P1, c_(x)) for x in members])
    return encode(Mu(monus_(c_(1), hit)))
