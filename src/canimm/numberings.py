"""Canonical numberings: registry, stage approximations, special builders.

A numbering here is a registered total-tier program mapping an index i to
the canonical code of a finite set.  A finite registry stands in for "all
canonical numberings"; the universal stage approximation D_{e,s} over raw
program codes covers the rest, exactly as the limit-computable marker
construction uses it.  Surjectivity is tracked as an evidence flag: the
builders that interleave the standard numbering on a residue class set it,
arbitrary registered rules do not.
"""

from __future__ import annotations

from . import programs as pg
from .finitesets import FiniteSet, Record, decode_finite_set, encode_finite_set
from .machine import (
    Node,
    PrimRec,
    decode,
    encode,
    eval_bounded,
    eval_total,
    is_total_tier,
    memo,
    NotTotalTierError,
)

__all__ = [
    "FiniteSet",
    "encode_finite_set",
    "decode_finite_set",
    "Numbering",
    "Registry",
    "standard_numbering",
    "stage_approx",
    "standard_rule_code",
    "singleton_rule_code",
    "interval_rule_code",
    "big_interval_rule_code",
    "adversarial_rule_code",
    "even_odd_rule_code",
    "witness_rule_from_table",
    "default_pool",
]

@memo
def _rule_value(rule: int, i: int) -> FiniteSet:
    return FiniteSet(eval_total(rule, (i,)))


class Numbering(Record):
    """A registered total rule i -> finite-set code."""

    __slots__ = ("id", "rule", "surjective", "label")

    def __init__(self, id: int, rule: int, surjective: bool = False, label: str = ""):
        self._fill(id, rule, surjective, label)

    def value(self, i: int) -> FiniteSet:
        return _rule_value(self.rule, i)

    def member(self, x: int, i: int) -> bool:
        return x in self.value(i)

    def membership_program(self) -> int:
        """Total program deciding (x, i) -> whether x is in the i-th set."""
        return encode(pg.bit_(pg.P0, pg.comp(decode(self.rule), pg.P1)))

    def max_program(self) -> int:
        """Total program for i -> max of the i-th set (0 on the empty set)."""
        return encode(pg.log2_(pg.comp(decode(self.rule), pg.P0)))


class Registry:
    """Ordered, append-only pool of numberings; immutable once populated."""

    def __init__(self):
        self.entries: list[Numbering] = []

    def register(self, rule: int, *, surjective: bool = False, label: str = "") -> Numbering:
        if not is_total_tier(rule):
            raise NotTotalTierError(f"numbering rule {rule} is not total-tier")
        numbering = Numbering(id=len(self.entries), rule=rule, surjective=surjective, label=label)
        self.entries.append(numbering)
        return numbering

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i: int) -> Numbering:
        return self.entries[i]

    def codes(self) -> list[int]:
        return [n.rule for n in self.entries]

    def serialize(self) -> str:
        lines = [f"{n.id}\t{n.rule}\t{int(n.surjective)}\t{n.label}" for n in self.entries]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def deserialize(cls, text: str) -> "Registry":
        reg = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            parts = line.split("\t")
            _, rule, flag = parts[0], int(parts[1]), bool(int(parts[2]))
            label = parts[3] if len(parts) > 3 else ""
            reg.register(rule, surjective=flag, label=label)
        return reg


def standard_numbering(i: int) -> FiniteSet:
    """The standard surjective numbering: the set canonically coded by i."""
    return decode_finite_set(i)


def stage_approx(e: int, i: int, budget: int) -> FiniteSet:
    """Stage approximation over a raw code: the coded set if e converges on i
    within `budget` steps, else the empty set.  Pointwise eventually constant
    whenever e is total."""
    r = eval_bounded(e, (i,), budget)
    if r.converged:
        return FiniteSet(r.value)
    return FiniteSet(0)


def stage_settling(e: int, i: int, horizon: int) -> tuple[int, FiniteSet] | None:
    """(first convergence budget, value) within the horizon, or None."""
    r = eval_bounded(e, (i,), horizon)
    if not r.converged:
        return None
    return r.steps, FiniteSet(r.value)


# ---------------------------------------------------------------------------
# Rule builders


def standard_rule_code() -> int:
    return pg.identity_code()


def singleton_rule_code() -> int:
    """i -> {i}."""
    return encode(pg.pow2_(pg.P0))


def interval_rule_code() -> int:
    """i -> the interval [i+1, 2i+2), which has i+1 elements and min > i."""
    lo = pg.succ_(pg.P0)
    hi = pg.add_(pg.mul_(pg.c_(2), pg.P0), pg.c_(2))
    return encode(pg.interval_code_(lo, hi))


def big_interval_rule_code() -> int:
    """i -> [0, 4*pair(i,i) + 4), wide enough to trip every pair-threshold."""
    width = pg.add_(pg.mul_(pg.c_(4), pg.pair_(pg.P0, pg.P0)), pg.c_(4))
    return encode(pg.monus_(pg.pow2_(width), pg.c_(1)))


def _odd_block_end_tree(f_tree: Node) -> Node:
    """PrimRec program: m -> end of the m-th odd-index block (index 2m+1).

    Blocks for the designated odd indices sit consecutively, each starting
    above both the previous block and index+1, with f(index)+1 elements.
    """

    def f_at(t: Node) -> Node:
        return pg.comp(f_tree, t)

    # base: block for index 1 starts at max(0, 3) = 3
    base = pg.add_(pg.c_(3), pg.succ_(f_at(pg.c_(1))))
    # step: given (m, prev_end), next index is 2m+3
    idx = pg.add_(pg.mul_(pg.c_(2), pg.P0), pg.c_(3))
    start = pg.max_(pg.P1, pg.add_(idx, pg.c_(2)))
    step = pg.add_(start, pg.succ_(f_at(idx)))
    return PrimRec(base, step)


def adversarial_rule_code(f_code: int) -> int:
    """Surjective rule that defeats the modulus f on every odd index.

    Odd i carries a block of f(i)+1 consecutive integers with min > i; even
    2m carries the standard numbering's m-th set, forcing surjectivity.
    """
    if not is_total_tier(f_code):
        raise NotTotalTierError("adversarial numbering needs a total-tier modulus")
    f_tree = decode(f_code)
    m = pg.half_(pg.P0)
    end = pg.comp(_odd_block_end_tree(f_tree), m)
    width = pg.succ_(pg.comp(f_tree, pg.P0))
    block = pg.interval_code_(pg.monus_(end, width), end)
    rule = pg.if_zero_(pg.parity_(pg.P0), m, block)
    return encode(rule)


def even_odd_rule_code(even_tree: Node) -> int:
    """D(2m) = even_tree(m); D(2m+1) = the standard numbering's m-th set."""
    m = pg.half_(pg.P0)
    rule = pg.if_zero_(pg.parity_(pg.P0), pg.comp(even_tree, m), m)
    return encode(rule)


def witness_rule_from_table(table: dict[int, int]) -> int:
    """Rule with D(2m) = coded set table[m] (empty beyond the table) and the
    standard numbering on odd indices."""
    if not table:
        return even_odd_rule_code(pg.c_(0))
    size = max(table) + 1
    values = [table.get(k, 0) for k in range(size)]
    return even_odd_rule_code(pg.packed_select_(values, pg.P0))


def adversarial_numbering(registry: Registry, f_code: int, label: str = "adversarial") -> Numbering:
    """Register the adversarial rule for modulus f; see adversarial_rule_code."""
    return registry.register(adversarial_rule_code(f_code), surjective=True, label=label)


def witness_numbering(registry: Registry, table: dict[int, int], label: str = "witness") -> Numbering:
    """Register a numbering with D(2*pair(i,n)) = H(i,n) from a finite table
    keyed by pair(i,n); odd indices carry the standard numbering."""
    return registry.register(witness_rule_from_table(table), surjective=True, label=label)


def default_pool() -> Registry:
    """The pool shipped with the CLI: standard, singleton, interval, a wide
    interval that trips every pair-based threshold, and one adversarial rule."""
    reg = Registry()
    reg.register(standard_rule_code(), surjective=True, label="standard")
    reg.register(singleton_rule_code(), label="singleton")
    reg.register(interval_rule_code(), label="interval")
    reg.register(big_interval_rule_code(), label="big-interval")
    adversarial_numbering(reg, pg.identity_code(), label="adversarial-id")
    return reg
