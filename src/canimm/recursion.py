"""s-m-n and the Kleene recursion theorem over the machine's codes.

No verb runs these: only `mathias.meet_D_eh` imports this module, when it
runs, so the run path of every `canimm` verb compiles none of it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .machine import Add, Apply, Comp, Const, Log2, Monus, Mul, Node, Pow2, Proj, Succ
from .machine import arity_bound, decode, encode, eval_total_steps, header_bits, require_total_tier


def smn(e: int, fixed_args: Sequence[int]) -> int:
    """Specialize the first arguments of e syntactically, without running e.

    The result e' satisfies, for every remaining argument tuple y and every
    budget s: eval(e', y, s + smn_overhead(e, len(fixed))) converges exactly
    when eval(e, fixed + y, s) does, with the same value.
    """
    tree = decode(e)
    extra = max(0, arity_bound(tree) - len(fixed_args))
    suppliers: list[Node] = [Const(a) for a in fixed_args]
    suppliers += [Proj(i) for i in range(extra)]
    return encode(Comp(tree, tuple(suppliers)))


def smn_overhead(e: int, n_fixed: int) -> int:
    """Exact step overhead of the smn wrapper around e."""
    extra = max(0, arity_bound(decode(e)) - n_fixed)
    return 1 + n_fixed + extra


class FixedPoint(NamedTuple):
    """Kleene fixed point j of a transformer g, with its budget correspondence.

    `code` is j, `applied` is the value g(j), and `prefix_cost` is the exact
    number of steps j spends before handing control to the program g(j):
    eval(j, [y], s) converges to v iff eval(applied, [y], s - prefix_cost)
    does.  Hence we_bounded(applied, s) equals we_bounded(j, s + prefix_cost)
    restricted below s.
    """

    code: int
    applied: int
    prefix_cost: int


def _cat(*parts: tuple[int, int]) -> tuple[int, int]:
    v, n = 0, 0
    for pv, pn in parts:
        v = (v << pn) | pv
        n += pn
    return v, n


# bit layout of the diagonal Apply(Apply(Const(u), [Const(u)]), [Proj(0)]):
#   PRE  = tag(Apply) gamma(1) tag(Apply) gamma(1) tag(Const)
#   MID  = tag(Const)                      (between the two gamma(u) payloads)
#   SUF  = tag(Proj) gamma(0)
_DIAG_PRE = _cat(header_bits(Apply, 1), header_bits(Apply, 1), header_bits(Const))
_DIAG_MID = header_bits(Const)
_DIAG_SUF = header_bits(Proj, 0)


def _diagonal_code(u: int) -> int:
    return encode(Apply(Apply(Const(u), (Const(u),)), (Proj(0),)))


def _diagonal_builder_tree() -> Node:
    """Total-tier program computing u -> code of the diagonal program for u."""
    u = Proj(0)
    m = Comp(Succ(), (u,))
    length = Comp(Succ(), (Comp(Log2(), (m,)),))
    two_len = Comp(Add(), (length, length))
    glen = Comp(Monus(), (two_len, Const(1)))
    shift = Comp(Pow2(), (glen,))

    def pack(acc: Node, piece: Node, piece_shift: Node) -> Node:
        return Comp(Add(), (Comp(Mul(), (acc, piece_shift)), piece))

    acc: Node = Const((1 << _DIAG_PRE[1]) | _DIAG_PRE[0])
    acc = pack(acc, m, shift)
    acc = pack(acc, Const(_DIAG_MID[0]), Const(1 << _DIAG_MID[1]))
    acc = pack(acc, m, shift)
    acc = pack(acc, Const(_DIAG_SUF[0]), Const(1 << _DIAG_SUF[1]))
    return acc


def fixed_point(g: int) -> FixedPoint:
    """Kleene recursion theorem for a total-tier code transformer g.

    Standard diagonal construction: d(u) is the code of the program that
    applies the value of u at u to the real input, v computes g(d(u)) in
    the machine, and j = d(v).  Running j first computes g(j) and then
    behaves exactly like the program g(j), so the two bounded domains
    agree under the recorded budget offset.
    """
    require_total_tier(g)
    g_tree = decode(g)

    d_tree = _diagonal_builder_tree()
    v = encode(Comp(g_tree, (d_tree,)))
    j = _diagonal_code(v)
    built, s_d = eval_total_steps(encode(d_tree), [v])
    assert built == j
    applied, s_g = eval_total_steps(g, [j])
    # outer Apply + inner Apply + two Const(v) + Comp + Proj(0)
    prefix = 6 + s_d + s_g
    return FixedPoint(code=j, applied=applied, prefix_cost=prefix)

