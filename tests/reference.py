"""References and fixtures the tests compare the library against.

No verb runs any of these, so they live beside the tests rather than in
`canimm`: a brute-force count of the truncated Schnorr measures and the
normalizing constructor of a dyadic rational, the Schnorr blocks as finite
sets, single runs through the machine's run loop and a run against a
finite oracle string, the both-parities cofinal carrier, named programs
(addition, a fixed oracle query, the program that diverges everywhere, and
one whose bounded domain is a given finite set), a program listing, the
least element and the characteristic string of a finite set, the test
whether a string holds a finite set and the witness search against a
numbering that uses it, the evens and odds reservoirs, the arity bound of
a program from one arity rule per node kind that is not a word operation
and each word row's operand count, and s-m-n, the Kleene
recursion theorem and the effective-immunity dichotomy D_(e,h) for a
Mathias condition, which the acceptance test meets once.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from canimm.avoiding import choose_cofinal_positions
from canimm.finitesets import FiniteSet, Record, SetPrefix, code_of
from canimm.machine import ALWAYS_DIVERGE, DIVERGED, Add, Apply, Comp, Const, Log2, Monus, Mu, Mul, Node, Outcome
from canimm.machine import Pow2, PrimRec, Proj, Query, Succ, _INT, _TAG_WIDTH, _check_budget, _compiled, _fold
from canimm.machine import _gamma, _preorder, _runs, decode, encode, eval_total, eval_total_steps, require_total_tier
from canimm.machine import we_bounded, we_enumeration
from canimm.mathias import ComputableSet, Condition
from canimm.numberings import Numbering
from canimm.programs import P0, P1, add_, c_, identity_code, iszero_, monus_, mul_, succ_
from canimm.schnorr import DyadicRational, block_span

ALWAYS_DIVERGE_CODE = encode(ALWAYS_DIVERGE)


def block(i: int) -> FiniteSet:
    """The i-th block F_i = [i(i-1)/2, i(i-1)/2 + i); defined for i >= 1."""
    if i < 1:
        raise ValueError("blocks are indexed from 1")
    start = i * (i - 1) // 2
    return FiniteSet(((1 << i) - 1) << start)


def dyadic(numerator: int, exponent: int) -> DyadicRational:
    """numerator / 2^exponent, brought to lowest terms."""
    if numerator == 0:
        return DyadicRational(0, 0)
    while exponent > 0 and numerator % 2 == 0:
        numerator //= 2
        exponent -= 1
    return DyadicRational(numerator, exponent)


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
    return dyadic(hits, span)


def run_compiled(compiled, args: tuple[int, ...], budget: int, oracle: str | None) -> Outcome:
    """One run of a compiled program, the budget already checked: the run
    loop's one-input case."""
    value, steps = next(_runs(compiled, (args,), budget, oracle))
    return DIVERGED if value is None else Outcome(value, steps)


def run_code(code: int, args: Sequence[int], budget: int, oracle: str | None) -> Outcome:
    """One run of program `code` on args against an oracle string or None."""
    _check_budget(budget)
    return run_compiled(_compiled(code), tuple(args), budget, oracle)


def eval_oracle_bounded(e: int, oracle: str, n: int, budget: int) -> Outcome:
    """Run oracle program e on input n against a finite 0/1 oracle string.

    Any query at a position >= len(oracle) diverges the whole run.
    """
    if any(c not in "01" for c in oracle):
        raise ValueError("oracle strings are over {0,1}")
    return run_code(e, (n,), budget, oracle)


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


def eq_(a: Node, b: Node) -> Node:
    return iszero_(add_(monus_(a, b), monus_(b, a)))


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


def domain_program(elements: Sequence[int]) -> int:
    """A program whose bounded domain is exactly the given finite set."""
    members = sorted(set(elements))
    if not members:
        return ALWAYS_DIVERGE_CODE
    hit = balanced_sum([eq_(P1, c_(x)) for x in members])
    return encode(Mu(monus_(c_(1), hit)))


def min_value(fs: FiniteSet) -> int:
    if fs.code == 0:
        raise ValueError("min of the empty set is undefined")
    low = fs.code & -fs.code
    return low.bit_length() - 1


def subset_of_string(fs: FiniteSet, sigma: str) -> bool:
    """Whether every element n of fs has sigma[n] == '1'.

    Elements at or beyond len(sigma) make the answer False.
    """
    if fs.code == 0:
        return True
    if fs.max_value() >= len(sigma):
        return False
    return all(sigma[n] == "1" for n in fs.elements)


def x_n_membership(sigma: str, numbering: Numbering, f: int, n: int, index_bound: int) -> bool:
    """Does some index i in [n, index_bound] witness the numbering against f
    inside sigma, i.e. D(i) inside the string and |D(i)| > f(i)?"""
    for i in range(n, index_bound + 1):
        value = numbering.value(i)
        if subset_of_string(value, sigma) and len(value) > eval_total(f, (i,)):
            return True
    return False


def evens() -> ComputableSet:
    return ComputableSet._progression(encode(mul_(c_(2), P0)), 2, 0)


def odds() -> ComputableSet:
    return ComputableSet._progression(encode(succ_(mul_(c_(2), P0))), 2, 1)


def characteristic_string(fs: FiniteSet) -> str:
    """Binary string of length max+1 with ones exactly on the set.

    The empty set yields the empty string.
    """
    return format(fs.code, "b")[::-1] if fs.code else ""


# the arity rule of each node kind that is not a word operation, by name:
# its header number and its children's arity bounds -> its own; a word
# operation reads as many positions as its row's operand count
_ARITY = {
    "Const": lambda n, a: 0,
    "Proj": lambda n, a: n + 1,
    "Comp": lambda n, a: max(a[1:], default=0),
    "PrimRec": lambda n, a: max(1, 1 + a[0], a[1] - 1),
    "Mu": lambda n, a: max(0, a[0] - 1),
    "Query": lambda n, a: a[0],
    "Apply": lambda n, a: max(a),
}


def _arity(t: Node, kids: list[int]) -> int:
    return t._kind.op[2] if t._kind.op else _ARITY[t._kind.name](t._number, kids)


def arity_bound(program: int | Node) -> int:
    """How many argument positions the program can possibly read."""
    tree = decode(program) if isinstance(program, int) else program
    return _fold(tree, _arity)


# the listing name of each node kind, by tag
_LISTING = (
    "const", "proj", "succ", "add", "monus", "mul", "div", "pow2", "log2",
    "pair", "unpair-left", "unpair-right", "comp", "primrec", "mu", "query", "apply",
)


def disassemble(program: int | Node) -> str:
    """Human-readable listing, one instruction per line."""
    tree = decode(program) if isinstance(program, int) else program
    lines, depths = [], [0]  # depths mirrors the walk's stack: all kids of a node share a depth
    for t in _preorder(tree):
        depth = depths.pop()
        depths += [depth + 1] * len(t._kids)
        line = "  " * depth + _LISTING[t._tag]
        lines.append(line if t._kind.shape != _INT else f"{line} {t._number}")
    return "\n".join(lines)


def header_bits(kind: type, number: int | None = None) -> tuple[int, int]:
    """The bits `encode` writes for a node of class `kind` before its
    children: its tag, then gamma(number) when the node has a header number."""
    if number is None:
        return kind._tag, _TAG_WIDTH
    m, width = _gamma(number)
    return (kind._tag << width) | m, _TAG_WIDTH + width


# ---------------------------------------------------------------------------
# s-m-n and the Kleene recursion theorem over the machine's codes


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


# ---------------------------------------------------------------------------
# The effective-immunity dichotomy family D_(e,h)


class MeetOutcome(Record):
    """Met(condition, clause) or an honest Unresolved with the evidence."""

    __slots__ = ("condition", "clause", "evidence")

    def __init__(self, condition: Condition | None, clause: str | None, evidence: dict):
        self._fill(condition, clause, evidence)


def meet_D_eh(cond: Condition, e: int, h: int, budget: int, max_prefix: int = 16, max_rounds: int = 4) -> MeetOutcome:
    """Decide the effective-immunity dichotomy family for (e, h) at desk scale.

    Searches finite extensions b of the stem inside the reservoir for growth
    of the bounded oracle domain of e under the string of b.  Once the
    domain can be pumped past the needed size, a constant transformer built
    with smn freezes its first elements as a plain domain, the recursion
    theorem provides the self-referential index j, and the output condition
    commits to b with the reservoir moved above it; both halves of the
    first clause (the j-th domain sits inside the oracle domain and beats
    h(j)) are then re-verified by enumeration.  If no growth shows up
    within the budget, the largest domain size seen is returned as evidence
    toward the bounded clause.

    No verb runs it: the first clause is met at desk scale only for an h as
    slow as zero, since h(j) at the fixed-point code j is astronomically
    large.
    """
    stem_elements = list(cond.stem.elements)

    def oracle_domain(b_elements) -> FiniteSet:
        chi = characteristic_string(FiniteSet(code_of(b_elements)))
        return we_bounded(e, budget, chi)

    def enumerated(b_elements):
        chi = characteristic_string(FiniteSet(code_of(b_elements)))
        return [n for _, n in we_enumeration(e, budget, chi)]

    prefix_sizes = []
    for t in range(max_prefix + 1):
        b = stem_elements + cond.reservoir.values(t)
        size = len(oracle_domain(b))
        prefix_sizes.append(size)

    need = 1
    for _ in range(max_rounds):
        target_t = next((t for t, s in enumerate(prefix_sizes) if s >= need), None)
        if target_t is None:
            break
        used = cond.reservoir.values(target_t)
        b_elements = stem_elements + used
        first = enumerated(b_elements)[:need]
        rho_set = code_of(used)
        g = smn(identity_code(), [domain_program(first)])
        rho = smn(identity_code(), [rho_set])
        fp = fixed_point(g)
        h_at_j = eval_total(h, (fp.code,))
        if need <= h_at_j:
            need = h_at_j + 1
            continue
        inner = 64 * (max(first, default=0) + len(first) + 2)
        w_j = we_bounded(fp.code, fp.prefix_cost + inner)
        if w_j.elements != tuple(sorted(first)):
            break
        if not w_j.issubset_mask(oracle_domain(b_elements).code):
            break
        # values strictly increase, so index target_t is the first above `used`
        met = Condition(FiniteSet(code_of(b_elements)), cond.reservoir.shifted(target_t))
        return MeetOutcome(
            met,
            "clause1",
            {
                "j": fp.code,
                "g": g,
                "rho": rho,
                "witness_domain": w_j.code,
                "h_at_j": h_at_j,
                "oracle_budget": budget,
                "inner_budget": fp.prefix_cost + inner,
            },
        )
    return MeetOutcome(None, None, {"best_size": max(prefix_sizes), "prefix_sizes": prefix_sizes})
