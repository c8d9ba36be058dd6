"""Finite-horizon verdicts for the immunity notions.

Every verdict is three-valued and horizon-stamped: a Pass never claims an
infinite-horizon property, a Fail carries concrete violation tuples that
re-check under direct evaluation, and Inconclusive marks horizons the
inputs cannot support.  Index ranges follow the proofs' "for i >= e"
pattern: by default the pool entry with registry index e is scanned from e.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .finitesets import Record, SetPrefix
from .machine import eval_total, we_bounded
from .numberings import Numbering
from .records import render_atom

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Verdict(Record):
    __slots__ = ("status", "violations", "horizon")

    def __init__(
        self, status: str, violations: tuple[tuple, ...] = (), horizon: tuple[tuple[str, object], ...] = ()
    ):
        if status == FAIL and not violations:
            raise ValueError("a Fail verdict needs at least one violation")
        self._fill(status, violations, horizon)

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def horizon_dict(self) -> dict:
        return dict(self.horizon)


def _horizon(**kv) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(kv.items()))


def check_canonical_immunity(
    prefix: SetPrefix,
    h: int,
    pool: Sequence[Numbering],
    index_bound: int,
    k_map: Mapping[int, int] | None = None,
) -> Verdict:
    """Scan the pool for witnesses against h as a modulus of immunity.

    Fails iff some pool numbering D and index i in [k(D), index_bound] has
    D(i) inside the prefix and |D(i)| > h(i).  Indices whose set reaches at
    or past the prefix length cannot be judged and are skipped on record.
    """
    violations = []
    skipped = []
    for pos, numbering in enumerate(pool):
        start = k_map.get(numbering.id, pos) if k_map is not None else pos
        for i in range(start, index_bound + 1):
            value = numbering.value(i)
            if not value.is_empty and value.max_value() >= prefix.length:
                skipped.append((numbering.id, i))
                continue
            if value.issubset_mask(prefix.mask) and len(value) > (bound := eval_total(h, (i,))):
                violations.append((numbering.id, i, value.code, bound))
    status = FAIL if violations else PASS
    return Verdict(
        status,
        tuple(violations),
        _horizon(
            index_bound=index_bound,
            pool_ids=tuple(n.id for n in pool),
            skipped=tuple(skipped),
            prefix_length=prefix.length,
        ),
    )


def refute_domination(principal: Sequence[int], f: int, positions: range, rank_base: int = 1) -> Verdict:
    """Does f dominate the principal function on the given positions?

    The value at position n is the n-th member counting from rank_base, so
    with the default rank_base of 1 the comparison is "the n-th element
    against f(n)" in the usual 1-indexed reading, while rank_base 0 compares
    the list entry at n directly (the shape of per-stage growth claims).

    Fail means refuted: some position has its member above f there, which
    is hyperimmunity evidence against f at this horizon.  Pass means f
    bounds the principal function on the whole range.  Positions reaching
    past the available members make the verdict Inconclusive.
    """
    stamp = _horizon(positions=(positions.start, positions.stop), members=len(principal), rank_base=rank_base)
    if positions and (positions[0] < rank_base or positions[-1] - rank_base >= len(principal)):
        return Verdict(INCONCLUSIVE, (), stamp)
    exceedances = []
    for n in positions:
        bound = eval_total(f, (n,))
        member = principal[n - rank_base]
        if member > bound:
            exceedances.append((n, member, bound))
    status = FAIL if exceedances else PASS
    return Verdict(status, tuple(exceedances), stamp)


def check_effective_immunity(prefix: SetPrefix, h: int, e_range: range, budget: int) -> Verdict:
    """Scan raw codes e for bounded domains that land inside the prefix.

    Fails iff some e has its bounded domain contained in the prefix members,
    entirely below the prefix length, with more than h(e) elements.  A Pass
    is explicitly only a pass at this horizon.
    """
    violations = []
    for e in e_range:
        w = we_bounded(e, budget)
        if w.is_empty:
            continue
        if w.max_value() >= prefix.length:
            continue
        if w.issubset_mask(prefix.mask) and len(w) > (bound := eval_total(h, (e,))):
            violations.append((e, w.code, bound))
    status = FAIL if violations else PASS
    return Verdict(
        status,
        tuple(violations),
        _horizon(e_range=(e_range.start, e_range.stop), budget=budget, prefix_length=prefix.length),
    )


def reverify_immunity_violation(prefix: SetPrefix, violation: tuple, pool: Sequence[Numbering], h: int) -> bool:
    """Re-check a reported immunity violation by direct evaluation."""
    numbering_id, i, value_code, h_value = violation
    numbering = next((n for n in pool if n.id == numbering_id), None)
    if numbering is None:
        return False
    value = numbering.value(i)
    return (
        value.code == value_code
        and value.issubset_mask(prefix.mask)
        and (value.is_empty or value.max_value() < prefix.length)
        and len(value) > h_value == eval_total(h, (i,))
    )


def serialize_verdict(v: Verdict) -> str:
    lines = [f"verdict\t{v.status}"]
    for key, val in v.horizon:
        lines.append(f"horizon\t{key}\t{val}")
    for viol in v.violations:
        lines.append("violation\t" + "\t".join(render_atom(x) for x in viol))
    return "\n".join(lines) + "\n"
