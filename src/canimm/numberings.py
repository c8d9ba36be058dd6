"""Canonical numberings: the registry and the rule builders.

A numbering here is a registered total-tier program mapping an index i to
the canonical code of a finite set.  A finite registry stands in for "all
canonical numberings"; the universal stage approximation D_{e,s} over raw
program codes covers the rest: the limit-computable marker construction
reads it as `machine.eval_bounded(e, (i,), s)`, the empty set where that
run does not converge.  Surjectivity is tracked as an evidence flag: the
builders that interleave the standard numbering on a residue class set it,
arbitrary registered rules do not.

`Numbering.value` runs the rule on every call and keeps nothing; a scan
that needs a value twice keeps it itself, as the one-per-pair
constructions keep the values their fill scan read.
"""

from __future__ import annotations

from . import programs as pg
from .finitesets import FiniteSet, Record
from .machine import Node, PrimRec, decode, encode, eval_total, is_total_tier, NotTotalTierError
from .records import render_atom, short_repr


class Numbering(Record):
    """A registered total rule i -> finite-set code."""

    __slots__ = ("id", "rule", "surjective", "label")

    def __init__(self, id: int, rule: int, surjective: bool = False, label: str = ""):
        self._fill(id, rule, surjective, label)

    def value(self, i: int) -> FiniteSet:
        return FiniteSet(eval_total(self.rule, (i,)))


class Registry:
    """Ordered, append-only pool of numberings; immutable once populated."""

    def __init__(self):
        self.entries: list[Numbering] = []

    def register(self, rule: int, *, surjective: bool = False, label: str = "") -> Numbering:
        """Append the numbering of `rule`.  Its label goes into a pool line as
        it is, so it may hold no tab and nothing `str.splitlines` breaks on."""
        if "\t" in label or len(f"{label}.".splitlines()) > 1:
            raise ValueError(f"label {short_repr(label)} holds a tab or a line break, which no pool line can hold")
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
        lines = [f"{n.id}\t{render_atom(n.rule)}\t{int(n.surjective)}\t{n.label}" for n in self.entries]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def deserialize(cls, text: str) -> "Registry":
        """The pool `serialize` writes.  Blank lines aside, the k-th line is
        numbering k and carries the id k: verdicts and thinning certificates
        name a numbering by its position.  Every error names its line."""
        reg = cls()
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise ValueError(f"line {number} has too few fields: a pool line needs an id, a rule and a surjective flag")
            if len(parts) > 4:
                raise ValueError(f"line {number} has {len(parts)} fields: a pool line has at most an id, a rule, a flag and a label")
            if parts[0] != str(len(reg)):
                raise ValueError(f"line {number} has id {short_repr(parts[0])}, not its position {len(reg)} among the pool lines")
            try:
                if parts[2] not in ("0", "1"):  # the surjective flag as serialize writes it
                    raise ValueError(f"surjective flag {short_repr(parts[2])} is neither 0 nor 1")
                label = parts[3] if len(parts) > 3 else ""
                reg.register(_parse_rule(parts[1]), surjective=parts[2] == "1", label=label)
            except ValueError as err:
                raise ValueError(f"line {number}: {err}") from err
        return reg


def _parse_rule(field: str) -> int:
    """A pool rule: decimal digits or `0x` hex, after an optional `-`.  A pool
    file may be written by hand, so any such integer reads, not only the form
    `render_atom` writes (the byte-exact trace reader is `records.parse_value`)."""
    digits = field.removeprefix("-")
    if digits.isdigit() and digits.isascii():
        return int(field)  # ValueError past the runtime digit limit
    if digits[:2] == "0x":
        return int(field, 16)
    raise ValueError(f"numbering rule {short_repr(field)} is not an integer")


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


def default_pool() -> Registry:
    """The pool shipped with the CLI: standard, singleton, interval, a wide
    interval that trips every pair-based threshold, and one adversarial rule."""
    reg = Registry()
    reg.register(standard_rule_code(), surjective=True, label="standard")
    reg.register(singleton_rule_code(), label="singleton")
    reg.register(interval_rule_code(), label="interval")
    reg.register(big_interval_rule_code(), label="big-interval")
    reg.register(adversarial_rule_code(pg.identity_code()), surjective=True, label="adversarial-id")
    return reg
