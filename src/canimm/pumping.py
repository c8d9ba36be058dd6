"""The pumping family: oracle domains pumped along string extensions, and
the Cohen 2-generic witness numbering built from the pumped domains.
Conventions: `constructions`.
"""

from __future__ import annotations

import itertools

from .finitesets import FiniteSet, Record
from .machine import eval_total, pair, we_bounded, we_enumeration
from .numberings import Numbering, Registry, witness_rule_from_table
from .records import ConstructionTrace

PUMP_FUEL_PER_BIT = 16
# The extensions one pump tries before it reports itself unresolved
MAX_PUMP_CANDIDATES = 4096


class PumpResult(Record):
    """Either the first witness extension in length-lex order, or an honest
    record that the bounded search ran out."""

    __slots__ = ("rho", "candidates_tried", "best_size")

    def __init__(self, rho: str | None, candidates_tried: int, best_size: int):
        self._fill(rho, candidates_tried, best_size)

    @property
    def resolved(self) -> bool:
        return self.rho is not None


def pump_enumeration(sigma: str, e: int, target: int) -> PumpResult:
    """First extension rho of sigma (length-lex order) whose bounded oracle
    domain exceeds the target size, with per-candidate fuel
    PUMP_FUEL_PER_BIT * len(rho)."""
    tried = 0
    best = 0
    for extra in itertools.count(0):
        for suffix in itertools.product("01", repeat=extra):
            if tried >= MAX_PUMP_CANDIDATES:
                return PumpResult(None, tried, best)
            rho = sigma + "".join(suffix)
            tried += 1
            size = len(we_bounded(e, PUMP_FUEL_PER_BIT * len(rho), rho))
            best = max(best, size)
            if size > target:
                return PumpResult(rho, tried, best)


def alpha_string(i: int) -> str:
    """The i-th binary string in length-lex order (empty string first)."""
    return bin(i + 1)[3:]


class WitnessEntry(Record):
    __slots__ = ("i", "n", "key", "target", "beta", "witness")

    def __init__(self, i: int, n: int, key: int, target: int, beta: str | None, witness: FiniteSet | None):
        self._fill(i, n, key, target, beta, witness)


def build_2generic_witness(
    sigma: str, e: int, f: int, i_max: int, n_max: int
) -> tuple[list[WitnessEntry], Numbering, ConstructionTrace]:
    """Pump the oracle domain along each branch sigma + alpha_i and collect
    witness sets H(i, n): the first f(2 pair(i,n)) + 1 elements enumerated
    into the pumped domain.  Unresolved pumps stay unresolved; their table
    entries are simply absent (never fabricated).  The resulting numbering
    has D(2 pair(i,n)) = H(i,n) and the standard numbering on odd indices;
    its rule is the trace's meta witness_rule.
    """
    entries = []
    trace = ConstructionTrace(
        "2generic-witness",
        meta={"sigma": sigma, "e": e, "f": f, "i_max": i_max, "n_max": n_max},
    )
    for i in range(i_max + 1):
        tau = sigma + alpha_string(i)
        for n in range(n_max + 1):
            key = pair(i, n)
            target = eval_total(f, (2 * key,))
            pump = pump_enumeration(tau, e, target)
            if not pump.resolved:
                entries.append(WitnessEntry(i, n, key, target, None, None))
                trace.add(key, "unresolved", i, n, target)
                continue
            rho = pump.rho
            order = we_enumeration(e, PUMP_FUEL_PER_BIT * len(rho), rho)
            first = [pos for _, pos in order[: target + 1]]
            witness = FiniteSet.from_elements(first)
            beta = rho[len(tau):]
            entries.append(WitnessEntry(i, n, key, target, beta, witness))
            trace.add(key, "entry", i, n, target, witness.code)
    trace.meta["witness_rule"] = witness_rule_from_table(replay_2generic(trace))
    numbering = Registry().register(trace.meta["witness_rule"], surjective=True, label="2generic-witness")
    return entries, numbering, trace


def replay_2generic(trace: ConstructionTrace) -> dict[int, int]:
    return {rec.stage: rec.fields[3] for rec in trace.records if rec.rule == "entry"}
