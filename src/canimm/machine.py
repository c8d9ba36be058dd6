"""Step-counted two-tier program model with numbered syntax trees.

Programs are finite syntax trees.  The total tier (constants, projections,
successor, word arithmetic, Cantor pairing, composition, primitive
recursion) always halts; the partial tier adds unbounded search (Mu),
oracle queries, and universal application (Apply), any of which can
diverge.  Every nonnegative integer is a program code: well-formed trees
round-trip through encode/decode, and every other integer decodes to the
canonical always-diverging program.

Evaluation is fuel-bounded and deterministic.  One fuel unit is one
interpreter step; an arithmetic step additionally charges one unit per
64-bit word of its operands, so value sizes stay proportional to the
budget and the step count of a converging run is a pure function of
(code, arguments, oracle).  Consequences used throughout the package:

* budget monotonicity: converging at budget s means converging, with the
  same value and the same step count, at every budget >= s;
* oracle persistence: a converging oracle run only reads positions below
  the oracle's length, so extending the oracle never changes it;
* an oracle query at a position >= the oracle length (or with no oracle
  at all) makes the whole run diverge.

A search on a nonzero constant, such as the canonical diverger, is answered
as diverged without spending fuel: it would test that constant forever, and
a diverged run reports no step count, so no outcome changes.

Codes serialize as decimal integers; `disassemble` renders one
instruction per line for traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Sequence

WORD_BITS = 64

# ---------------------------------------------------------------------------
# Cantor pairing


def pair(x: int, y: int) -> int:
    """Cantor pairing (x+y)(x+y+1)/2 + y."""
    if x < 0 or y < 0:
        raise ValueError("pair is defined on nonnegative integers")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(p: int) -> tuple[int, int]:
    """Inverse of `pair`."""
    if p < 0:
        raise ValueError("unpair is defined on nonnegative integers")
    w = (math.isqrt(8 * p + 1) - 1) // 2
    t = w * (w + 1) // 2
    y = p - t
    return w - y, y


def pair_bound(i: int) -> int:
    """max over e <= i of pair(e, i); equals pair(i, i) since pair grows in e."""
    return pair(i, i)


# ---------------------------------------------------------------------------
# Syntax trees


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Proj:
    index: int


@dataclass(frozen=True)
class Succ:
    pass


@dataclass(frozen=True)
class Add:
    pass


@dataclass(frozen=True)
class Monus:
    pass


@dataclass(frozen=True)
class Mul:
    pass


@dataclass(frozen=True)
class Div:
    pass


@dataclass(frozen=True)
class Pow2:
    pass


@dataclass(frozen=True)
class Log2:
    pass


@dataclass(frozen=True)
class PairOp:
    pass


@dataclass(frozen=True)
class UnpairL:
    pass


@dataclass(frozen=True)
class UnpairR:
    pass


@dataclass(frozen=True)
class Comp:
    func: "Node"
    args: tuple["Node", ...]


@dataclass(frozen=True)
class PrimRec:
    base: "Node"
    step: "Node"


@dataclass(frozen=True)
class Mu:
    pred: "Node"


@dataclass(frozen=True)
class Query:
    pos: "Node"


@dataclass(frozen=True)
class Apply:
    func: "Node"
    args: tuple["Node", ...]


Node = (
    Const | Proj | Succ | Add | Monus | Mul | Div | Pow2 | Log2
    | PairOp | UnpairL | UnpairR | Comp | PrimRec | Mu | Query | Apply
)

_TAG_CONST = 0
_TAG_PROJ = 1
_TAG_SUCC = 2
_TAG_ADD = 3
_TAG_MONUS = 4
_TAG_MUL = 5
_TAG_DIV = 6
_TAG_POW2 = 7
_TAG_LOG2 = 8
_TAG_PAIR = 9
_TAG_UNPAIRL = 10
_TAG_UNPAIRR = 11
_TAG_COMP = 12
_TAG_PRIMREC = 13
_TAG_MU = 14
_TAG_QUERY = 15
_TAG_APPLY = 16
_NUM_TAGS = 17

_NULLARY = {
    _TAG_SUCC: Succ(), _TAG_ADD: Add(), _TAG_MONUS: Monus(), _TAG_MUL: Mul(),
    _TAG_DIV: Div(), _TAG_POW2: Pow2(), _TAG_LOG2: Log2(), _TAG_PAIR: PairOp(),
    _TAG_UNPAIRL: UnpairL(), _TAG_UNPAIRR: UnpairR(),
}

ALWAYS_DIVERGE = Mu(Const(1))

TOTAL_TIER_KINDS = (
    Const, Proj, Succ, Add, Monus, Mul, Div, Pow2, Log2,
    PairOp, UnpairL, UnpairR, Comp, PrimRec,
)


# ---------------------------------------------------------------------------
# Numbering of trees
#
# Codes are self-delimiting bit strings packed into an integer below a
# sentinel top bit, so code sizes grow linearly with tree size (nesting
# Cantor pairs instead would square the code at every level).  The empty
# string (code 0) and every unparseable string decode to the always-
# diverging program, which keeps decoding total on all of omega.
#
# node      bits
# Const v   tag(5) gamma(v)
# Proj i    tag(5) gamma(i)
# nullary   tag(5)
# Comp      tag(5) gamma(#args) enc(func) enc(arg)...
# PrimRec   tag(5) enc(base) enc(step)
# Mu/Query  tag(5) enc(child)
# Apply     tag(5) gamma(#args) enc(func) enc(arg)...
#
# gamma(n) is Elias gamma of n+1: for m = n+1 with L bits, L-1 zeros then m.

_TAG_WIDTH = 5

_Bits = tuple[int, int]  # (value, bit count)


def _cat(*parts: _Bits) -> _Bits:
    v, n = 0, 0
    for pv, pn in parts:
        v = (v << pn) | pv
        n += pn
    return v, n


def _gamma(n: int) -> _Bits:
    m = n + 1
    length = m.bit_length()
    return m, 2 * length - 1


def _enc(tree: Node) -> _Bits:
    if isinstance(tree, Const):
        return _cat((_TAG_CONST, _TAG_WIDTH), _gamma(tree.value))
    if isinstance(tree, Proj):
        return _cat((_TAG_PROJ, _TAG_WIDTH), _gamma(tree.index))
    for tag, proto in _NULLARY.items():
        if isinstance(tree, type(proto)):
            return tag, _TAG_WIDTH
    if isinstance(tree, (Comp, Apply)):
        tag = _TAG_COMP if isinstance(tree, Comp) else _TAG_APPLY
        parts = [(tag, _TAG_WIDTH), _gamma(len(tree.args)), _enc(tree.func)]
        parts += [_enc(a) for a in tree.args]
        return _cat(*parts)
    if isinstance(tree, PrimRec):
        return _cat((_TAG_PRIMREC, _TAG_WIDTH), _enc(tree.base), _enc(tree.step))
    if isinstance(tree, Mu):
        return _cat((_TAG_MU, _TAG_WIDTH), _enc(tree.pred))
    if isinstance(tree, Query):
        return _cat((_TAG_QUERY, _TAG_WIDTH), _enc(tree.pos))
    raise TypeError(f"not a program node: {tree!r}")


def encode(tree: Node) -> int:
    """Injective numbering of syntax trees (inverse of `decode` on its image)."""
    v, n = _enc(tree)
    return (1 << n) | v


class _ParseError(Exception):
    pass


class _Reader:
    __slots__ = ("value", "size", "pos")

    def __init__(self, value: int, size: int):
        self.value = value
        self.size = size
        self.pos = 0

    def take(self, k: int) -> int:
        if self.pos + k > self.size:
            raise _ParseError
        self.pos += k
        return (self.value >> (self.size - self.pos)) & ((1 << k) - 1)

    def gamma(self) -> int:
        zeros = 0
        while self.take(1) == 0:
            zeros += 1
        m = (1 << zeros) | self.take(zeros)
        return m - 1


def _parse(r: _Reader) -> Node:
    tag = r.take(_TAG_WIDTH)
    if tag == _TAG_CONST:
        return Const(r.gamma())
    if tag == _TAG_PROJ:
        return Proj(r.gamma())
    if tag in _NULLARY:
        return _NULLARY[tag]
    if tag in (_TAG_COMP, _TAG_APPLY):
        count = r.gamma()
        func = _parse(r)
        args = tuple(_parse(r) for _ in range(count))
        return Comp(func, args) if tag == _TAG_COMP else Apply(func, args)
    if tag == _TAG_PRIMREC:
        base = _parse(r)
        return PrimRec(base, _parse(r))
    if tag == _TAG_MU:
        return Mu(_parse(r))
    if tag == _TAG_QUERY:
        return Query(_parse(r))
    raise _ParseError


CACHE_ENTRIES = 4096
_CACHE_BIT_LIMIT = 1 << 20


def memo(fn):
    """lru_cache of the CACHE_ENTRIES latest calls (see ``cache_info()``); a
    call whose leading program code has _CACHE_BIT_LIMIT bits or more skips
    it, so oversized input cannot pin memory.  Errors are not cached."""
    cached = lru_cache(maxsize=CACHE_ENTRIES)(fn)

    @wraps(fn)
    def call(code, *args):
        if code.bit_length() < _CACHE_BIT_LIMIT:
            return cached(code, *args)
        return fn(code, *args)

    call.cache_info = cached.cache_info
    return call


@memo
def decode(code: int) -> Node:
    """Total decoding: ill-formed numbers yield the always-diverging program."""
    if code < 0:
        raise ValueError("program codes are nonnegative")
    if code == 0:
        return ALWAYS_DIVERGE
    size = code.bit_length() - 1
    reader = _Reader(code & ((1 << size) - 1), size)
    try:
        tree = _parse(reader)
    except _ParseError:
        return ALWAYS_DIVERGE
    return tree if reader.pos == size else ALWAYS_DIVERGE


ALWAYS_DIVERGE_CODE = encode(ALWAYS_DIVERGE)


def is_total_tier(program: int | Node) -> bool:
    """Syntactic check: no Mu, Query, or Apply anywhere in the tree."""
    tree = decode(program) if isinstance(program, int) else program
    if isinstance(tree, (Mu, Query, Apply)):
        return False
    if isinstance(tree, Comp):
        return is_total_tier(tree.func) and all(is_total_tier(a) for a in tree.args)
    if isinstance(tree, PrimRec):
        return is_total_tier(tree.base) and is_total_tier(tree.step)
    return True


def arity_bound(program: int | Node) -> int:
    """How many argument positions the program can possibly read."""
    t = decode(program) if isinstance(program, int) else program
    if isinstance(t, Const):
        return 0
    if isinstance(t, Proj):
        return t.index + 1
    if isinstance(t, (Succ, Pow2, Log2, UnpairL, UnpairR)):
        return 1
    if isinstance(t, (Add, Monus, Mul, Div, PairOp)):
        return 2
    if isinstance(t, Comp):
        return max((arity_bound(a) for a in t.args), default=0)
    if isinstance(t, PrimRec):
        return max(1, 1 + arity_bound(t.base), arity_bound(t.step) - 1)
    if isinstance(t, Mu):
        return max(0, arity_bound(t.pred) - 1)
    if isinstance(t, Query):
        return arity_bound(t.pos)
    if isinstance(t, Apply):
        return max(arity_bound(t.func), max((arity_bound(a) for a in t.args), default=0))
    raise TypeError(f"not a program node: {t!r}")


# ---------------------------------------------------------------------------
# Evaluation


class _Diverge(Exception):
    pass


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def tick(self, cost: int = 1):
        self.left -= cost
        if self.left < 0:
            raise _Diverge


def _words(n: int) -> int:
    return n.bit_length() // WORD_BITS


_Runner = Callable[[tuple[int, ...], "str | None", _Fuel], int]


def _arg(args: tuple[int, ...], i: int) -> int:
    # absent argument positions read as zero
    return args[i] if i < len(args) else 0


def _never(args, oracle, fuel):
    raise _Diverge


def _compile(tree: Node) -> _Runner:
    if isinstance(tree, Const):
        v = tree.value

        def run(args, oracle, fuel):
            fuel.tick()
            return v
    elif isinstance(tree, Proj):
        i = tree.index

        def run(args, oracle, fuel):
            fuel.tick()
            return args[i] if i < len(args) else 0
    elif isinstance(tree, Succ):

        def run(args, oracle, fuel):
            a = _arg(args, 0)
            fuel.tick(1 + _words(a))
            return a + 1
    elif isinstance(tree, Add):

        def run(args, oracle, fuel):
            a, b = _arg(args, 0), _arg(args, 1)
            fuel.tick(1 + _words(a) + _words(b))
            return a + b
    elif isinstance(tree, Monus):

        def run(args, oracle, fuel):
            a, b = _arg(args, 0), _arg(args, 1)
            fuel.tick(1 + _words(a) + _words(b))
            return a - b if a > b else 0
    elif isinstance(tree, Mul):

        def run(args, oracle, fuel):
            a, b = _arg(args, 0), _arg(args, 1)
            fuel.tick(1 + _words(a) + _words(b))
            return a * b
    elif isinstance(tree, Div):

        def run(args, oracle, fuel):
            a, b = _arg(args, 0), _arg(args, 1)
            fuel.tick(1 + _words(a) + _words(b))
            return a // b if b else 0
    elif isinstance(tree, Pow2):

        def run(args, oracle, fuel):
            n = _arg(args, 0)
            # charge before allocating, one step per word of the result
            fuel.tick(1 + n // WORD_BITS)
            return 1 << n
    elif isinstance(tree, Log2):

        def run(args, oracle, fuel):
            a = _arg(args, 0)
            fuel.tick(1 + _words(a))
            return a.bit_length() - 1 if a else 0
    elif isinstance(tree, PairOp):

        def run(args, oracle, fuel):
            a, b = _arg(args, 0), _arg(args, 1)
            fuel.tick(1 + _words(a) + _words(b))
            return pair(a, b)
    elif isinstance(tree, UnpairL):

        def run(args, oracle, fuel):
            a = _arg(args, 0)
            fuel.tick(1 + _words(a))
            return unpair(a)[0]
    elif isinstance(tree, UnpairR):

        def run(args, oracle, fuel):
            a = _arg(args, 0)
            fuel.tick(1 + _words(a))
            return unpair(a)[1]
    elif isinstance(tree, Comp):
        f = _compile(tree.func)
        gs = tuple(_compile(a) for a in tree.args)

        def run(args, oracle, fuel):
            fuel.tick()
            vals = tuple(g(args, oracle, fuel) for g in gs)
            return f(vals, oracle, fuel)
    elif isinstance(tree, PrimRec):
        base = _compile(tree.base)
        step = _compile(tree.step)

        def run(args, oracle, fuel):
            fuel.tick()
            n = _arg(args, 0)
            rest = args[1:]
            acc = base(rest, oracle, fuel)
            for k in range(n):
                acc = step((k, acc) + rest, oracle, fuel)
            return acc
    elif isinstance(tree, Mu):
        if isinstance(tree.pred, Const) and tree.pred.value:
            return _never
        p = _compile(tree.pred)

        def run(args, oracle, fuel):
            fuel.tick()
            y = 0
            while True:
                if p((y,) + args, oracle, fuel) == 0:
                    return y
                y += 1
    elif isinstance(tree, Query):
        pos = _compile(tree.pos)

        def run(args, oracle, fuel):
            fuel.tick()
            q = pos(args, oracle, fuel)
            if oracle is None or q >= len(oracle):
                raise _Diverge
            return 1 if oracle[q] == "1" else 0
    elif isinstance(tree, Apply):
        f = _compile(tree.func)
        gs = tuple(_compile(a) for a in tree.args)

        def run(args, oracle, fuel):
            fuel.tick()
            target = f(args, oracle, fuel)
            vals = tuple(g(args, oracle, fuel) for g in gs)
            return _compiled(target)(vals, oracle, fuel)
    else:
        raise TypeError(f"not a program node: {tree!r}")
    return run


@memo
def _compiled(code: int) -> _Runner:
    return _compile(decode(code))


@dataclass(frozen=True)
class Outcome:
    """Result of a fuel-bounded run: Converged(value, steps) or Diverged."""

    value: int | None
    steps: int | None = None

    @property
    def converged(self) -> bool:
        return self.value is not None


DIVERGED = Outcome(None, None)


def _run(code: int, args: Sequence[int], budget: int, oracle: str | None) -> Outcome:
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    fuel = _Fuel(budget)
    try:
        v = _compiled(code)(tuple(args), oracle, fuel)
    except _Diverge:
        return DIVERGED
    return Outcome(v, budget - fuel.left)


def eval_bounded(e: int, args: Sequence[int], budget: int) -> Outcome:
    """Run program e on args for at most `budget` steps."""
    return _run(e, args, budget, None)


def eval_oracle_bounded(e: int, oracle: str, n: int, budget: int) -> Outcome:
    """Run oracle program e on input n against a finite 0/1 oracle string.

    Any query at a position >= len(oracle) diverges the whole run.
    """
    if any(c not in "01" for c in oracle):
        raise ValueError("oracle strings are over {0,1}")
    return _run(e, (n,), budget, oracle)


def we_bounded(e: int, budget: int, oracle: str | None = None):
    """Bounded domain: the set of n < budget where e converges in `budget` steps.

    Returns a FiniteSet; monotone nondecreasing in the budget.
    """
    from .finitesets import FiniteSet

    if _compiled(e) is _never:
        return FiniteSet(0)
    mask = 0
    for n in range(budget):
        if _run(e, (n,), budget, oracle).converged:
            mask |= 1 << n
    return FiniteSet(mask)


def we_enumeration(e: int, budget: int, oracle: str | None = None) -> list[tuple[int, int]]:
    """Bounded domain in enumeration order: (steps, n) pairs, sorted."""
    out = []
    for n in range(budget):
        r = _run(e, (n,), budget, oracle)
        if r.converged:
            out.append((r.steps, n))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Total-tier evaluation: one run at the budget cap, exact by budget
# monotonicity (see the module docstring)


class NotTotalTierError(ValueError):
    """Raised when an operation requires a guaranteed-halting program."""


class TotalBudgetExceededError(RuntimeError):
    """Total-tier evaluation would need more fuel than the safety cap."""


_TOTAL_CAP = 1 << 32
_total_verdict = memo(is_total_tier)


def require_total_tier(code: int) -> None:
    if not _total_verdict(code):
        raise NotTotalTierError(f"code {code} is not in the total tier")


def eval_total_steps(e: int, args: Sequence[int], max_budget: int = _TOTAL_CAP) -> tuple[int, int]:
    """Evaluate a total-tier program, returning (value, steps used).

    The program runs once, at the smallest budget 64 * 2**k >= max_budget.
    Budget monotonicity (see the module docstring) makes that one run
    exact: a program converging within it has the same value and step
    count at every larger budget.  A program that does not converge there
    raises TotalBudgetExceededError.
    """
    require_total_tier(e)
    budget = max(64, 1 << (max_budget - 1).bit_length())
    r = _run(e, args, budget, None)
    if not r.converged:
        raise TotalBudgetExceededError(f"code {e} needs more than {max_budget} steps")
    return r.value, r.steps


def eval_total(e: int, args: Sequence[int], max_budget: int = _TOTAL_CAP) -> int:
    return eval_total_steps(e, args, max_budget)[0]


# ---------------------------------------------------------------------------
# s-m-n and the recursion theorem


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


@dataclass(frozen=True)
class FixedPoint:
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


# bit layout of the diagonal Apply(Apply(Const(u), [Const(u)]), [Proj(0)]):
#   PRE  = tag(Apply) gamma(1) tag(Apply) gamma(1) tag(Const)
#   MID  = tag(Const)                      (between the two gamma(u) payloads)
#   SUF  = tag(Proj) gamma(0)
_DIAG_PRE = _cat((_TAG_APPLY, _TAG_WIDTH), _gamma(1), (_TAG_APPLY, _TAG_WIDTH), _gamma(1), (_TAG_CONST, _TAG_WIDTH))
_DIAG_MID = (_TAG_CONST, _TAG_WIDTH)
_DIAG_SUF = _cat((_TAG_PROJ, _TAG_WIDTH), _gamma(0))


def _diagonal_code(u: int) -> int:
    m = u + 1
    glen = 2 * m.bit_length() - 1
    acc = (1 << _DIAG_PRE[1]) | _DIAG_PRE[0]
    acc = (acc << glen) | m
    acc = (acc << _DIAG_MID[1]) | _DIAG_MID[0]
    acc = (acc << glen) | m
    return (acc << _DIAG_SUF[1]) | _DIAG_SUF[0]


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


# ---------------------------------------------------------------------------
# Disassembly


def disassemble(program: int | Node, indent: int = 0) -> str:
    """Human-readable listing, one instruction per line."""
    t = decode(program) if isinstance(program, int) else program
    pad = "  " * indent
    if isinstance(t, Const):
        return f"{pad}const {t.value}"
    if isinstance(t, Proj):
        return f"{pad}proj {t.index}"
    simple = {
        Succ: "succ", Add: "add", Monus: "monus", Mul: "mul", Div: "div",
        Pow2: "pow2", Log2: "log2", PairOp: "pair", UnpairL: "unpair-left",
        UnpairR: "unpair-right",
    }
    for kind, name in simple.items():
        if isinstance(t, kind):
            return f"{pad}{name}"
    if isinstance(t, Comp):
        lines = [f"{pad}comp", disassemble(t.func, indent + 1)]
        lines += [disassemble(a, indent + 1) for a in t.args]
        return "\n".join(lines)
    if isinstance(t, PrimRec):
        return "\n".join([f"{pad}primrec", disassemble(t.base, indent + 1), disassemble(t.step, indent + 1)])
    if isinstance(t, Mu):
        return "\n".join([f"{pad}mu", disassemble(t.pred, indent + 1)])
    if isinstance(t, Query):
        return "\n".join([f"{pad}query", disassemble(t.pos, indent + 1)])
    if isinstance(t, Apply):
        lines = [f"{pad}apply", disassemble(t.func, indent + 1)]
        lines += [disassemble(a, indent + 1) for a in t.args]
        return "\n".join(lines)
    raise TypeError(f"not a program node: {t!r}")
