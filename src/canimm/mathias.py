"""Computable Mathias conditions, dense-family transformers, generic builder.

A condition is a finite stem plus an infinite reservoir.  Reservoirs are
represented by total-tier programs enumerating them in strictly increasing
order, which makes infinitude structural (a characteristic-function coding
would leave it a two-quantifier question).  The program is the
reservoir's representation in traces; its values are read natively, from
explicit head values followed by a leaf's values, so a derived reservoir
never runs its nested program in the interpreter.  A derived reservoir's
program is spliced around its parent's code (`machine.Splice`) and never
decoded, so a chain of n conditions costs time linear in n.  Every read of
a reservoir is a walk over its values in order that keeps none
(`ComputableSet._walk`), and a transformer takes the index where its
output's tail resumes from its own walk.  Each dense family of conditions
is realized as a deterministic condition-transformer: meeting the family
means applying its transformer, and every transformer's output extends its
input under the three-clause extension order, verified on enumerations
truncated at a horizon.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from . import programs as pg
from . import schnorr
from .finitesets import FiniteSet, Record, SetPrefix, code_of
from .machine import (
    Splice,
    encode,
    eval_total,
    is_total_tier,
    NotTotalTierError,
)
from .numberings import Numbering
from .records import ConstructionTrace


class ExtensionOrderError(RuntimeError):
    """A schedule step produced a condition that does not extend its input."""


class ComputableSet(Record, hidden=("head", "leaf", "offset", "progression")):
    """Infinite computable set given by a strictly increasing enumerator.

    `enumerator` is the set's program, the form traces record.  Values are
    read natively from a normal form instead: the explicit `head` values,
    then the values of the `leaf` code from index `offset` on.  A set built
    from a code is its own leaf; a set built by `_progression`, such as
    `naturals`, also sets the `progression` (a, b) of its leaf, its value
    a·i + b at index i, which is never inferred from a code.  `shifted`
    and `with_table_prefix` derive the child's normal form from the
    parent's (`_derived`), so only leaf codes run in the interpreter,
    whatever the nesting of the derived program, and none runs below a
    progression.  Callers pass only `enumerator`, whose totality is
    checked; the derivations fill in the other fields, which `==`, `hash`
    and `repr` leave out.
    """

    __slots__ = ("enumerator", "head", "leaf", "offset", "progression")

    def __init__(self, enumerator: int):
        if not is_total_tier(enumerator):
            raise NotTotalTierError("reservoir enumerators must be total-tier")
        self._fill(enumerator, (), enumerator, 0, None)

    def _walk(self, n: int = 0) -> Iterator[int]:
        """The values from index n on, in order and kept nowhere: every read is
        a walk.  Its leaf value at leaf index j is a·j + b on a progression,
        else `eval_total` of the leaf at j, run only when the walk reaches j."""
        i = self.offset + max(0, n - len(self.head))
        if self.progression:
            a, b = self.progression
            tail = itertools.count(a * i + b, a)
        else:
            tail = (eval_total(self.leaf, (j,)) for j in itertools.count(i))
        return itertools.chain(self.head[n:], tail)

    def values(self, count: int) -> list[int]:
        return list(itertools.islice(self._walk(), count))

    def value(self, n: int) -> int:
        return next(self._walk(n))

    @classmethod
    def naturals(cls) -> "ComputableSet":
        return cls._progression(pg.identity_code(), 1, 0)

    @classmethod
    def _progression(cls, enumerator: int, a: int, b: int) -> "ComputableSet":
        cs = object.__new__(cls)  # the library's own total-tier code for a·i + b
        cs._fill(enumerator, (), enumerator, 0, (a, b))
        return cs

    def _derived(self, wrap: Callable, head: tuple[int, ...], skip: int) -> "ComputableSet":
        """The set with program wrap(this set's program) that reads `head`,
        then this set's values from index len(self.head) + skip on.  This
        set's code is spliced in, never decoded.  This set is total-tier, so
        the child is when the wrapper around a total stand-in is, and the
        child's code is never parsed for `is_total_tier` either."""
        if not is_total_tier(wrap(pg.P0)):
            raise NotTotalTierError("reservoir wrappers must be total-tier")
        child = object.__new__(ComputableSet)
        child._fill(encode(wrap(Splice(self.enumerator))), head, self.leaf, self.offset + skip, self.progression)
        return child

    def shifted(self, k: int) -> "ComputableSet":
        if k == 0:
            return self
        at = pg.add_(pg.P0, pg.c_(k))
        return self._derived(lambda parent: pg.comp(parent, at), self.head[k:], max(0, k - len(self.head)))

    def with_table_prefix(self, values: Sequence[int], tail_index: int) -> "ComputableSet":
        """Enumerator taking the given values first, then this enumerator
        from tail_index on.  The caller guarantees strict increase across
        the seam."""
        count = len(values)
        table = pg.packed_select_(list(values), pg.P0)
        past = pg.le_(pg.c_(count), pg.P0)
        tail_at = pg.add_(pg.monus_(pg.P0, pg.c_(count)), pg.c_(tail_index))
        before = pg.mul_(pg.monus_(pg.c_(1), past), table)

        def wrap(parent):
            return pg.add_(before, pg.mul_(past, pg.comp(parent, tail_at)))

        head = (*values, *self.head[tail_index:])
        return self._derived(wrap, head, max(0, tail_index - len(self.head)))


class Condition(Record):
    """Mathias condition [a, A]: finite stem below an infinite reservoir."""

    __slots__ = ("stem", "reservoir")

    def __init__(self, stem: FiniteSet, reservoir: ComputableSet):
        if not stem.is_empty and stem.max_value() >= reservoir.value(0):
            raise ValueError("stem must lie strictly below the reservoir")
        self._fill(stem, reservoir)

    @classmethod
    def empty(cls) -> "Condition":
        return cls(FiniteSet(0), ComputableSet.naturals())

    def stem_size(self) -> int:
        return len(self.stem)

    def prefix(self) -> SetPrefix:
        return SetPrefix(self.stem.code, self.stem.code.bit_length())


def extends(child: Condition, parent: Condition, horizon: int = 1000) -> bool:
    """Three-clause extension order, reservoir clauses verified to horizon.

    Checks stem containment, that the new stem material comes from the
    parent reservoir, and that the first `horizon` child reservoir values
    all lie in the parent reservoir.
    """
    if parent.stem.code & ~child.stem.code:
        return False
    fresh = child.stem.code & ~parent.stem.code
    if fresh and not _values_inside(FiniteSet(fresh).elements, parent.reservoir):
        return False
    return _values_inside(child.reservoir.values(horizon), parent.reservoir)


def _values_inside(values, reservoir: ComputableSet) -> bool:
    x, walk = -1, reservoir._walk()
    for v in values:
        while x < v:
            x = next(walk)
        if x != v:
            return False
    return True


# ---------------------------------------------------------------------------
# Dense-family transformers


def meet_size(cond: Condition, n: int) -> Condition:
    """Grow the stem to at least n elements by promoting least reservoir
    elements; a no-op when the stem is already big enough."""
    need = n - cond.stem_size()
    if need <= 0:
        return cond
    promoted = cond.reservoir.values(need)
    stem = FiniteSet(cond.stem.code | code_of(promoted))
    return Condition(stem, cond.reservoir.shifted(need))


class ThinCertificate(Record):
    """Finite-scale record that a thinning output realizes the size-bounding
    family for its numbering on [start, bound]: any value of the numbering
    there that fits inside visible_mask has at most its index many elements."""

    __slots__ = ("numbering_id", "start", "bound", "visible_mask", "ceiling")

    def __init__(self, numbering_id: int, start: int, bound: int, visible_mask: int, ceiling: int):
        self._fill(numbering_id, start, bound, visible_mask, ceiling)

    def holds_for(self, numbering: Numbering) -> bool:
        for i in range(self.start, self.bound + 1):
            value = numbering.value(i)
            if value.issubset_mask(self.visible_mask) and len(value) > i:
                return False
        return True


_WINDOW = 1 << 12
_WINDOW_MASK = (1 << _WINDOW) - 1


def thin_for_numbering(cond: Condition, numbering: Numbering, count: int) -> tuple[Condition, ThinCertificate]:
    """Thin the reservoir so the numbering cannot fit oversized values.

    Walking the reservoir enumeration, the i-th kept element avoids every
    numbering value with index from the stem size up to i, so a value with
    index in [stem size, stem size + count] contained in the output can
    only use the stem and earlier kept elements: at most index many points.
    The unmaterialized tail is pushed above everything those values mention.
    """
    base = cond.stem_size()
    bound = base + count
    kept: list[int] = []
    walk = enumerate(cond.reservoir._walk())  # (index, value)
    union = numbering.value(base).code
    # Membership in union is read from `window`, its bits [low, low + _WINDOW),
    # so a test costs O(1) instead of a shift of the whole union.  The walk
    # only rises, so the window moves up to the value that leaves it, and an
    # OR rebuilds it where it stands.
    low, window = 0, union & _WINDOW_MASK
    for i in range(base + 1, bound + 1):
        for _, x in walk:
            if x - low >= _WINDOW:
                low, window = x, (union >> x) & _WINDOW_MASK
            if not (window >> (x - low)) & 1:
                break
        kept.append(x)
        union |= numbering.value(i).code
        window = (union >> low) & _WINDOW_MASK
    # the largest element any value with index in [base, bound] mentions
    ceiling = max(0, union.bit_length() - 1)
    # the tail resumes at the first value above the ceiling and the kept values
    top = max(ceiling, kept[-1] if kept else 0)
    for tail_index, x in walk:
        if x > top:
            break
    thinned = cond.reservoir.with_table_prefix(kept, tail_index)
    cert = ThinCertificate(
        numbering_id=numbering.id,
        start=base,
        bound=bound,
        visible_mask=cond.stem.code | code_of(kept),
        ceiling=ceiling,
    )
    return Condition(cond.stem, thinned), cert


class AvoidanceRecord(Record):
    __slots__ = ("missed_blocks", "kept_values")

    def __init__(self, missed_blocks: tuple[int, ...], kept_values: tuple[int, ...]):
        self._fill(missed_blocks, kept_values)


def meet_avoidance(cond: Condition, count: int) -> tuple[Condition, AvoidanceRecord]:
    """Thin the reservoir to dodge `count` of the consecutive blocks.

    Greedy: the next kept element is the least reservoir element above the
    current missed block, and the next missed block is the least one lying
    entirely above that element, so kept elements and missed blocks
    interleave.  The unmaterialized tail continues above the last kept
    element, hence above every missed block.
    """
    if count == 0:
        return cond, AvoidanceRecord((), ())
    top = cond.stem.max_value() if not cond.stem.is_empty else -1
    block_index = 1
    while schnorr.block_span(block_index - 1) <= top:
        block_index += 1
    missed: list[int] = []
    kept: list[int] = []
    walk = enumerate(cond.reservoir._walk(), start=1)  # (values read, value)
    for _ in range(count):
        missed.append(block_index)
        block_top = schnorr.block_span(block_index) - 1
        for read, x in walk:
            if x > block_top:
                break
        kept.append(x)
        while schnorr.block_span(block_index - 1) <= x:
            block_index += 1
    thinned = cond.reservoir.with_table_prefix(kept, read)
    return Condition(cond.stem, thinned), AvoidanceRecord(tuple(missed), tuple(kept))


# ---------------------------------------------------------------------------
# Generic builder


class ScheduleStep(Record):
    __slots__ = ("name", "apply")

    def __init__(self, name: str, apply: Callable[[Condition], tuple[Condition, object]]):
        self._fill(name, apply)


def size_step(n: int) -> ScheduleStep:
    return ScheduleStep(f"size-{n}", lambda c: (meet_size(c, n), None))


def thin_step(numbering: Numbering, count: int) -> ScheduleStep:
    return ScheduleStep(f"thin-D{numbering.id}", lambda c: thin_for_numbering(c, numbering, count))


def avoidance_step(count: int) -> ScheduleStep:
    return ScheduleStep(f"avoid-{count}", lambda c: meet_avoidance(c, count))


class GenericRun(Record):
    __slots__ = ("chain", "prefix", "thin_certificates", "avoidance", "trace")

    def __init__(
        self,
        chain: list[tuple[str, Condition]],
        prefix: SetPrefix,
        thin_certificates: list[ThinCertificate],
        avoidance: AvoidanceRecord | None,
        trace: ConstructionTrace,
    ):
        self._fill(chain, prefix, thin_certificates, avoidance, trace)


def build_generic(
    start: Condition,
    schedule: Sequence[ScheduleStep],
    *,
    horizon: int = 1000,
) -> GenericRun:
    """Fold the schedule into a condition chain and emit the stem reached.

    After each scheduled step the stem is grown to at least the number of
    steps taken so far (the size families make generics infinite; here they
    keep the stem moving).  Every link of the chain is checked against the
    extension order at the horizon and a violation aborts with the step
    named.  The final stem is the generic's finite approximation.  The
    trace's meta carries the stem, the blocks the avoidance step missed
    (missed_blocks) and each thinning certificate's (numbering id, start,
    bound) (thin_certs).
    """
    chain: list[tuple[str, Condition]] = [("start", start)]
    certificates: list[ThinCertificate] = []
    avoidance: AvoidanceRecord | None = None
    trace = ConstructionTrace("generic", meta={"horizon": horizon, "steps": [s.name for s in schedule]})
    current = start
    for number, step in enumerate(schedule, start=1):
        result, info = step.apply(current)
        if not extends(result, current, horizon):
            raise ExtensionOrderError(f"step {step.name} violated the extension order")
        chain.append((step.name, result))
        trace.add(number, "condition", step.name, result.stem.code, result.reservoir.enumerator)
        current = result
        if isinstance(info, ThinCertificate):
            certificates.append(info)
        elif isinstance(info, AvoidanceRecord):
            avoidance = info
        grown = meet_size(current, number)
        if grown is not current:
            if not extends(grown, current, horizon):
                raise ExtensionOrderError(f"growth after {step.name} violated the extension order")
            chain.append((f"grow-{number}", grown))
            trace.add(number, "condition", f"grow-{number}", grown.stem.code, grown.reservoir.enumerator)
            current = grown
    prefix = current.prefix()
    trace.meta["stem"] = current.stem.code
    trace.meta["missed_blocks"] = list(avoidance.missed_blocks) if avoidance else []
    trace.meta["thin_certs"] = [(c.numbering_id, c.start, c.bound) for c in certificates]
    return GenericRun(chain, prefix, certificates, avoidance, trace)


def default_schedule(pool: Sequence[Numbering], thin_count: int, avoid_count: int, stem_target: int) -> list[ScheduleStep]:
    """Thin every pool numbering, dodge blocks, then grow the stem."""
    steps: list[ScheduleStep] = [thin_step(n, thin_count) for n in pool]
    if avoid_count:
        steps.append(avoidance_step(avoid_count))
    steps.append(size_step(stem_target))
    return steps
