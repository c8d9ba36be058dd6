"""Step-counted two-tier program model with numbered syntax trees.

Programs are finite syntax trees.  The total tier (constants, projections,
successor, word arithmetic, Cantor pairing, composition, primitive
recursion) always halts; the partial tier adds unbounded search (Mu),
oracle queries, and universal application (Apply), any of which can
diverge.  Every nonnegative integer is a program code: well-formed trees
round-trip through encode/decode, and every other integer decodes to the
canonical always-diverging program.

One table, `_KINDS`, describes the 17 node kinds.  The node classes,
encoding, decoding, the totality and arity checks, compilation, disassembly
and node equality, hashing and repr are all
driven by it, and each of these walks keeps its own stack, so no tree is
too deep for them.

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

Each node compiles to a closure, its runner, which charges its own node's
step rule inline.

A search on a nonzero constant, such as the canonical diverger, is answered
as diverged without spending fuel: it would test that constant forever, and
a diverged run reports no step count, so no outcome changes.

A PrimRec whose subtree is total-tier keeps one resume point: the trailing
arguments, count, accumulator and fuel spent (entry step, base and steps)
of its last converged run.  A run with the same trailing arguments and a
count at least as large charges that spend as one step and continues the
loop from there; every other run starts from 0 and replaces the point, and
an accumulator of _CACHE_BIT_LIMIT bits or more is not kept.  No outcome
changes: the subtree reads no oracle and runs no other program, so its
loop repeats the stored run exactly, and fuel only falls within a run, so
that prefix diverges exactly when the stored spend exceeds the fuel left.
So a scan over i = 0, 1, 2, ... of a rule recursing on i // 2 is linear.

A run nests one runner per level of its program's tree, and each Apply
adds the height of the program it runs.  A run that would nest past
MAX_NESTING levels raises ProgramDepthError, at every caller stack depth
alike.

Every run goes through one run loop, `_runs`, which runs a compiled
program on a sequence of argument tuples and re-arms one _Fuel per input.
A single run, bounded or total-tier, is its one-input case and the bounded
scans loop through it; only `we_bounded` answers the `_never` runner
without entering it.

Codes serialize as decimal integers.  s-m-n and the recursion theorem
live in `canimm.recursion`, outside the run path; `header_bits` gives it
the bits `encode` writes for a node.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

WORD_BITS = 64

# A runner level takes one Python frame, or two for a Comp or an Apply:
# its runner and its argument gather.  So a run at this limit stays inside
# Python's default recursion limit of 1000 frames even when its caller is
# 300 frames deep.
MAX_NESTING = 250

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
# Runners: a compiled node is a closure run(args, oracle, fuel)


class _Diverge(Exception):
    pass


class ProgramDepthError(ValueError):
    """A run would nest more than MAX_NESTING runner levels."""


class _Fuel:
    """The steps left to one run, and the runner nesting it has entered.

    A runner charges its own steps: it computes ``left = fuel.left - cost``,
    raises _Diverge if that is negative and otherwise stores it."""

    __slots__ = ("left", "nesting")

    def __init__(self, budget: int):
        self.left = budget
        self.nesting = 0

    def nest(self, depth: int) -> int:
        """Enter a program whose runners nest `depth` levels; returns the
        nesting to restore when it returns."""
        outer = self.nesting
        if outer + depth > MAX_NESTING:
            raise ProgramDepthError(f"a run would nest {outer + depth} runner levels, past the limit {MAX_NESTING}")
        self.nesting = outer + depth
        return outer


_Runner = Callable[[tuple[int, ...], "str | None", _Fuel], int]


def _never(args, oracle, fuel):
    raise _Diverge


def _leaf(t, kids, total):
    # a constant reads past every argument tuple; an absent argument
    # position reads as zero
    i, c = (t._number, 0) if type(t) is Proj else (sys.maxsize, t._number)

    def run(args, oracle, fuel):
        if (left := fuel.left - 1) < 0:
            raise _Diverge
        fuel.left = left
        return args[i] if i < len(args) else c

    return run


# A word kind's row gives its value function and its charge rule: the
# operation takes one step plus rule(x) // WORD_BITS for each operand x.
# _BY_SIZE charges by the operand's bit length; _BY_VALUE charges by its
# value, so Pow2 pays for the words of 1 << x before allocating it.
_BY_SIZE = int.bit_length
_BY_VALUE = operator.index


def _word(t, kids, total):
    # a word operation reads its operands from argument positions 0 and 1
    value, rule = t._kind.op
    if t._kind.arity(None, ()) == 1:

        def run(args, oracle, fuel):
            x = args[0] if args else 0
            if (left := fuel.left - 1 - rule(x) // WORD_BITS) < 0:
                raise _Diverge
            fuel.left = left
            return value(x)

    else:

        def run(args, oracle, fuel):
            n = len(args)
            x = args[0] if n else 0
            y = args[1] if n > 1 else 0
            if (left := fuel.left - 1 - rule(x) // WORD_BITS - rule(y) // WORD_BITS) < 0:
                raise _Diverge
            fuel.left = left
            return value(x, y)

    return run


def _gather(gs: tuple[_Runner, ...]):
    """A closure (args, oracle, fuel) -> the tuple of what the runners gs
    compute, in order."""
    if len(gs) == 1:
        (g,) = gs
        return lambda args, oracle, fuel: (g(args, oracle, fuel),)
    if len(gs) == 2:
        g, h = gs
        return lambda args, oracle, fuel: (g(args, oracle, fuel), h(args, oracle, fuel))
    return lambda args, oracle, fuel: tuple([g(args, oracle, fuel) for g in gs])


def _comp(t, kids, total):
    f, gather = kids[0], _gather(kids[1:])

    def run(args, oracle, fuel):
        if (left := fuel.left - 1) < 0:
            raise _Diverge
        fuel.left = left
        return f(gather(args, oracle, fuel), oracle, fuel)

    return run


def _primrec(t, kids, total):
    base, step = kids
    # A total-tier subtree's last run that converged: (rest, count,
    # accumulator, fuel spent from entry to the end of its loop).
    point = None

    def run(args, oracle, fuel):
        nonlocal point
        start = fuel.left
        rest, count = args[1:], args[0] if args else 0
        if point is not None and point[1] <= count and point[0] == rest:
            _, k, acc, spent = point
            if (left := start - spent) < 0:
                raise _Diverge
            fuel.left = left
        else:
            if (left := start - 1) < 0:
                raise _Diverge
            fuel.left = left
            k, acc = 0, base(rest, oracle, fuel)
        for k in range(k, count):
            acc = step((k, acc) + rest, oracle, fuel)
        if total and acc.bit_length() < _CACHE_BIT_LIMIT:
            point = rest, count, acc, start - fuel.left
        return acc

    return run


def _mu(t, kids, total):
    if type(t.pred) is Const and t.pred.value:
        return _never
    (p,) = kids

    def run(args, oracle, fuel):
        if (left := fuel.left - 1) < 0:
            raise _Diverge
        fuel.left = left
        y = 0
        while p((y,) + args, oracle, fuel) != 0:
            y += 1
        return y

    return run


def _query(t, kids, total):
    (pos,) = kids

    def run(args, oracle, fuel):
        if (left := fuel.left - 1) < 0:
            raise _Diverge
        fuel.left = left
        q = pos(args, oracle, fuel)
        if oracle is None or q >= len(oracle):
            raise _Diverge
        return 1 if oracle[q] == "1" else 0

    return run


def _apply(t, kids, total):
    f, gather = kids[0], _gather(kids[1:])

    def run(args, oracle, fuel):
        if (left := fuel.left - 1) < 0:
            raise _Diverge
        fuel.left = left
        target = f(args, oracle, fuel)
        vals = gather(args, oracle, fuel)
        inner, depth, _ = _compiled(target)
        outer = fuel.nest(depth)
        value = inner(vals, oracle, fuel)
        fuel.nesting = outer
        return value

    return run


# ---------------------------------------------------------------------------
# The node table
#
# One row per node kind; a row's position is its tag in the code format.
# Shapes: _INT holds one int payload, _TREE holds only children (none, one
# or two), _CALL holds a function child and an argument tuple.  The int
# payload or the argument count is the node's header number (None for
# _TREE).  The arity rule maps it and the children's arity bounds to the
# node's; the runner factory maps the node, its children's runners and
# whether its subtree is total-tier to its own runner.  Children are always
# taken in code order.  The ten word kinds also give (value function,
# charge rule); the others give None.

_INT, _TREE, _CALL = "int", "tree", "call"


_Kind = namedtuple("_Kind", "name shape fields arity total listing runner op", defaults=(None,))


def _reads(k: int):
    return lambda number, kids: k


# (1).__add__ and (1).__lshift__ are a + 1 and 1 << a without a Python frame
_KINDS = (
    _Kind("Const", _INT, ("value",), _reads(0), True, "const", _leaf),
    _Kind("Proj", _INT, ("index",), lambda n, a: n + 1, True, "proj", _leaf),
    _Kind("Succ", _TREE, (), _reads(1), True, "succ", _word, ((1).__add__, _BY_SIZE)),
    _Kind("Add", _TREE, (), _reads(2), True, "add", _word, (operator.add, _BY_SIZE)),
    _Kind("Monus", _TREE, (), _reads(2), True, "monus", _word, (lambda a, b: a - b if a > b else 0, _BY_SIZE)),
    _Kind("Mul", _TREE, (), _reads(2), True, "mul", _word, (operator.mul, _BY_SIZE)),
    _Kind("Div", _TREE, (), _reads(2), True, "div", _word, (lambda a, b: a // b if b else 0, _BY_SIZE)),
    _Kind("Pow2", _TREE, (), _reads(1), True, "pow2", _word, ((1).__lshift__, _BY_VALUE)),
    _Kind("Log2", _TREE, (), _reads(1), True, "log2", _word, (lambda a: a.bit_length() - 1 if a else 0, _BY_SIZE)),
    _Kind("PairOp", _TREE, (), _reads(2), True, "pair", _word, (pair, _BY_SIZE)),
    _Kind("UnpairL", _TREE, (), _reads(1), True, "unpair-left", _word, (lambda a: unpair(a)[0], _BY_SIZE)),
    _Kind("UnpairR", _TREE, (), _reads(1), True, "unpair-right", _word, (lambda a: unpair(a)[1], _BY_SIZE)),
    _Kind("Comp", _CALL, ("func", "args"), lambda n, a: max(a[1:], default=0), True, "comp", _comp),
    _Kind("PrimRec", _TREE, ("base", "step"), lambda n, a: max(1, 1 + a[0], a[1] - 1), True, "primrec", _primrec),
    _Kind("Mu", _TREE, ("pred",), lambda n, a: max(0, a[0] - 1), False, "mu", _mu),
    _Kind("Query", _TREE, ("pos",), lambda n, a: a[0], False, "query", _query),
    _Kind("Apply", _CALL, ("func", "args"), lambda n, a: max(a), False, "apply", _apply),
)


def _set(node: Node, number: int | None, kids: tuple[Node, ...]) -> Node:
    object.__setattr__(node, "_number", number)
    object.__setattr__(node, "_kids", kids)
    return node


class Node:
    """A syntax tree node; each kind is a subclass generated from its row.

    Nodes are immutable and take their fields as constructor arguments.  A
    node stores its header number and its children in code order, which is
    all that the walks below read; the fields are views of these.
    """

    __slots__ = ("_number", "_kids")
    _tag: int
    _kind: _Kind

    def __init__(self, *values, **named):
        fields = self._kind.fields
        values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
        if self._kind.shape == _INT:
            _set(self, values[0], ())
        elif self._kind.shape == _CALL:
            _set(self, len(values[1]), (values[0], *values[1]))
        else:
            _set(self, None, values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # the kinds and header numbers in code order fix the whole tree
        pairs = zip(_preorder(self), _preorder(other))
        return all(type(a) is type(b) and a._number == b._number for (a, _), (b, _) in pairs)

    def __hash__(self):
        return hash(tuple((type(t), t._number) for t, _ in _preorder(self)))

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, Node):
                parts = [f"{type(item).__name__}("]
                for i, name in enumerate(item._kind.fields):
                    parts += [", " * (i > 0) + name + "=", getattr(item, name)]
                todo += reversed(parts + [")"])
            elif isinstance(item, tuple):
                parts = ["("]
                for i, value in enumerate(item):
                    parts += [", " * (i > 0), value]
                todo += reversed(parts + [",)" if len(item) == 1 else ")"])
            else:
                out.append(item if isinstance(item, str) else repr(item))
        return "".join(out)


def _node_class(tag: int, kind: _Kind) -> type:
    if kind.shape == _INT:
        getters = [lambda t: t._number]
    elif kind.shape == _CALL:
        getters = [lambda t: t._kids[0], lambda t: t._kids[1:]]
    else:
        getters = [lambda t, i=i: t._kids[i] for i in range(len(kind.fields))]
    fields = {name: property(get) for name, get in zip(kind.fields, getters)}
    return type(kind.name, (Node,), {"__slots__": (), "__module__": __name__, "_tag": tag, "_kind": kind, **fields})


_CLASSES = tuple(_node_class(tag, kind) for tag, kind in enumerate(_KINDS))
(
    Const, Proj, Succ, Add, Monus, Mul, Div, Pow2, Log2,
    PairOp, UnpairL, UnpairR, Comp, PrimRec, Mu, Query, Apply,
) = _CLASSES

ALWAYS_DIVERGE = Mu(Const(1))


def _preorder(tree: Node):
    """(node, depth) pairs in code order, the order `encode` writes nodes."""
    todo = [(tree, 0)]
    while todo:
        t, depth = todo.pop()
        if not isinstance(t, Node):
            raise TypeError(f"not a program node: {t!r}")
        yield t, depth
        todo += [(kid, depth + 1) for kid in reversed(t._kids)]


def _fold(tree: Node, combine):
    """combine(node, its children's values in code order), children first."""
    values = []
    for t, _ in reversed(list(_preorder(tree))):
        kids = [values.pop() for _ in t._kids]
        values.append(combine(t, kids))
    return values[0]


# ---------------------------------------------------------------------------
# Numbering of trees
#
# Codes are self-delimiting bit strings packed into an integer below a
# sentinel top bit, so code sizes grow linearly with tree size (nesting
# Cantor pairs instead would square the code at every level).  The empty
# string (code 0) and every unparseable string decode to the always-
# diverging program, which keeps decoding total on all of omega.
#
# A node writes its tag in 5 bits, then gamma(header number) if it has one
# (Const v: gamma(v); Comp f args: gamma(#args)), then its children in code
# order.  gamma(n) is Elias gamma of n+1: for m = n+1 with L bits, L-1
# zeros then m.

_TAG_WIDTH = 5

_Bits = tuple[int, int]  # (value, bit count)


def _gamma(n: int) -> _Bits:
    m = n + 1
    length = m.bit_length()
    return m, 2 * length - 1


def header_bits(kind: type, number: int | None = None) -> _Bits:
    """The bits `encode` writes for a node of class `kind` before its
    children: its tag, then gamma(number) when the node has a header number."""
    if number is None:
        return kind._tag, _TAG_WIDTH
    m, width = _gamma(number)
    return (kind._tag << width) | m, _TAG_WIDTH + width


class Splice:
    """A leaf that only `encode` takes: an existing code, written as it is.

    `encode` copies the bits of `code` below its sentinel where the leaf
    stands, so a tree built around a code encodes without decoding it.
    The code must be one `encode` returns, the code of exactly one tree;
    the result is then `encode` of the tree with that tree in the leaf's
    place.  No other walk takes a Splice: it is not a Node."""

    __slots__ = ("code",)

    def __init__(self, code: int):
        self.code = code


def encode(tree: Node) -> int:
    """Injective numbering of syntax trees (inverse of `decode` on its image).

    A `Splice` leaf anywhere in the tree writes its code's bits unchanged."""
    v, n, todo = 0, 0, [tree]
    while todo:
        t = todo.pop()
        if type(t) is Splice:
            width = t.code.bit_length() - 1
            v, n = (v << width) | (t.code ^ (1 << width)), n + width
            continue
        if not isinstance(t, Node):
            raise TypeError(f"not a program node: {t!r}")
        v, n = (v << _TAG_WIDTH) | t._tag, n + _TAG_WIDTH
        if t._number is not None:
            m, width = _gamma(t._number)
            v, n = (v << width) | m, n + width
        todo += t._kids[::-1]
    return (1 << n) | v


def _parse(bits: str) -> Node | None:
    """The tree whose code has these binary digits below its sentinel bit,
    or None if they are not exactly one tree.  Nodes are read in code
    order, and each is built once its children are."""
    pos, reading = 0, []  # reading: (class, header number, children needed, children read)
    while pos + _TAG_WIDTH <= len(bits):
        tag, pos = int(bits[pos:pos + _TAG_WIDTH], 2), pos + _TAG_WIDTH
        if tag >= len(_CLASSES):
            return None
        cls, number = _CLASSES[tag], None
        shape = cls._kind.shape
        if shape != _TREE:  # gamma: k zeros, then the k+1 bits of number+1
            one = bits.find("1", pos)
            end = 2 * one - pos + 1
            if one < 0 or end > len(bits):
                return None
            number, pos = int(bits[one:end], 2) - 1, end
        need = 0 if shape == _INT else number + 1 if shape == _CALL else len(cls._kind.fields)
        if need:
            reading.append((cls, number, need, []))
            continue
        node = _set(object.__new__(cls), number, ())
        while reading:
            cls, number, need, kids = reading[-1]
            kids.append(node)
            if len(kids) < need:
                break
            reading.pop()
            node = _set(object.__new__(cls), number, tuple(kids))
        if not reading:
            return node if pos == len(bits) else None
    return None


CACHE_ENTRIES = 4096
_CACHE_BIT_LIMIT = 1 << 20


def decode(code: int) -> Node:
    """Total decoding: ill-formed numbers yield the always-diverging program."""
    if code < 0:
        raise ValueError("program codes are nonnegative")
    tree = _parse(bin(code)[3:])  # bin(code) is "0b1..." for code >= 1
    return ALWAYS_DIVERGE if tree is None else tree


ALWAYS_DIVERGE_CODE = encode(ALWAYS_DIVERGE)


def is_total_tier(program: int | Node) -> bool:
    """Syntactic check: no Mu, Query, or Apply anywhere in the tree.  A code
    is answered by its compiled entry."""
    if isinstance(program, int):
        return _compiled(program)[2]
    return all(t._kind.total for t, _ in _preorder(program))


def arity_bound(program: int | Node) -> int:
    """How many argument positions the program can possibly read."""
    tree = decode(program) if isinstance(program, int) else program
    return _fold(tree, lambda t, kids: t._kind.arity(t._number, kids))


def disassemble(program: int | Node) -> str:
    """Human-readable listing, one instruction per line."""
    tree = decode(program) if isinstance(program, int) else program
    lines = []
    for t, depth in _preorder(tree):
        line = "  " * depth + t._kind.listing
        lines.append(line if t._kind.shape != _INT else f"{line} {t._number}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Evaluation


def _compile(tree: Node) -> tuple[_Runner, int, bool]:
    """The tree's runner, its runner nesting (the height of the tree) and
    whether it is total-tier, in one fold."""

    def combine(t, kids):
        total = t._kind.total and all(total for _, _, total in kids)
        run = t._kind.runner(t, [run for run, _, _ in kids], total)
        return run, 1 + max((depth for _, depth, _ in kids), default=0), total

    return _fold(tree, combine)


@lru_cache(maxsize=CACHE_ENTRIES)
def _compiled_kept(code: int) -> tuple[_Runner, int, bool]:
    return _compile(decode(code))


def _compiled(code: int) -> tuple[_Runner, int, bool]:
    """The code's runner, nesting and totality in one entry.  The
    CACHE_ENTRIES latest codes are kept (see ``_compiled.cache_info()``),
    except a code of _CACHE_BIT_LIMIT bits or more, so oversized input
    cannot pin memory.  Errors are not kept."""
    if code.bit_length() < _CACHE_BIT_LIMIT:
        return _compiled_kept(code)
    return _compile(decode(code))


_compiled.cache_info = _compiled_kept.cache_info


class Outcome(NamedTuple):
    """Result of a fuel-bounded run: Converged(value, steps) or Diverged."""

    value: int | None
    steps: int | None = None

    @property
    def converged(self) -> bool:
        return self.value is not None


DIVERGED = Outcome(None, None)


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError("budget must be nonnegative")


def _runs(
    compiled: tuple[_Runner, int, bool],
    inputs: Iterable[tuple[int, ...]],
    budget: int,
    oracle: str | None,
) -> Iterator[tuple[int | None, int | None]]:
    """The run loop: one run of a compiled program per argument tuple of
    `inputs`, in order, each at the full budget (already checked).  Yields
    (value, steps) for a run that converges and (None, None) for one that
    diverges.

    One _Fuel serves every run and is re-armed before each: its steps left,
    and its nesting too, since a run that diverges inside an Apply leaves
    that Apply's nesting behind.  Whatever a run raises, such as
    ProgramDepthError, the loop raises at that run's input, after yielding
    the values of the inputs before it.  Every other run path is a case of
    this loop, except that `we_bounded` answers the `_never` runner without
    entering it."""
    run, depth, _ = compiled
    fuel = _Fuel(budget)
    for args in inputs:
        fuel.left = budget
        if fuel.nesting != depth:  # the first run, or one after an Apply diverged
            fuel.nesting = 0
            fuel.nest(depth)
        try:
            value = run(args, oracle, fuel)
        except _Diverge:
            yield None, None
        else:
            yield value, budget - fuel.left


def _exec(compiled: tuple[_Runner, int, bool], args: tuple[int, ...], budget: int, oracle: str | None) -> Outcome:
    """One run of a compiled program, the budget already checked: the run
    loop's one-input case."""
    value, steps = next(_runs(compiled, (args,), budget, oracle))
    return DIVERGED if value is None else Outcome(value, steps)


def _run(code: int, args: Sequence[int], budget: int, oracle: str | None) -> Outcome:
    _check_budget(budget)
    return _exec(_compiled(code), tuple(args), budget, oracle)


def eval_bounded(e: int, args: Sequence[int], budget: int) -> Outcome:
    """Run program e on args for at most `budget` steps."""
    return _run(e, args, budget, None)


def we_bounded(e: int, budget: int, oracle: str | None = None):
    """Bounded domain: the set of n < budget where e converges in `budget` steps.

    Returns a FiniteSet; monotone nondecreasing in the budget.
    """
    from .finitesets import FiniteSet

    _check_budget(budget)
    compiled = _compiled(e)
    if compiled[0] is _never:
        return FiniteSet(0)
    mask = 0
    for n, (value, _) in enumerate(_runs(compiled, zip(range(budget)), budget, oracle)):
        if value is not None:
            mask |= 1 << n
    return FiniteSet(mask)


def we_enumeration(e: int, budget: int, oracle: str | None = None) -> list[tuple[int, int]]:
    """Bounded domain in enumeration order: (steps, n) pairs, sorted."""
    _check_budget(budget)
    runs = _runs(_compiled(e), zip(range(budget)), budget, oracle)
    return sorted((steps, n) for n, (value, steps) in enumerate(runs) if value is not None)


# ---------------------------------------------------------------------------
# Total-tier evaluation: one run at the budget cap, exact by budget
# monotonicity (see the module docstring)


class NotTotalTierError(ValueError):
    """Raised when an operation requires a guaranteed-halting program."""


class TotalBudgetExceededError(ValueError):
    """Total-tier evaluation would need more fuel than the safety cap."""


_TOTAL_CAP = 1 << 32


def require_total_tier(code: int) -> tuple[_Runner, int, bool]:
    """The compiled entry of a total-tier code; raises NotTotalTierError
    for any other code."""
    compiled = _compiled(code)
    if not compiled[2]:
        raise NotTotalTierError(f"code {code} is not in the total tier")
    return compiled


def eval_total_steps(e: int, args: Sequence[int], max_budget: int = _TOTAL_CAP) -> tuple[int, int]:
    """Evaluate a total-tier program, returning (value, steps used): the
    total tier's one entry point, the run loop's one-input case.

    The run is made at the smallest 64 * 2**k >= max_budget.  Budget
    monotonicity (see the module docstring) makes that one run exact: a
    program converging within it has the same value and step count at every
    larger budget.  A run that does not converge there raises
    TotalBudgetExceededError."""
    compiled = require_total_tier(e)
    budget = max(64, 1 << (max_budget - 1).bit_length())
    value, steps = next(_runs(compiled, (tuple(args),), budget, None))
    if value is None:
        raise TotalBudgetExceededError(f"code {e} needs more than {max_budget} steps")
    return value, steps


def eval_total(e: int, args: Sequence[int], max_budget: int = _TOTAL_CAP) -> int:
    return eval_total_steps(e, args, max_budget)[0]
