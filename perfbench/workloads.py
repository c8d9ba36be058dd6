"""Seeded workloads: a pool file and a fixed op list per workload.

The seed draws the extra pool numberings and a small horizon jitter; the
pool size, the kinds of the extra numberings and the op list are fixed per
workload, so every seed exercises the same layers in the same order.  The
CLI only ever receives the generated pool file and flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from canimm import programs as pg
from canimm.machine import encode
from canimm.numberings import Registry, adversarial_rule_code, default_pool

DEFAULT_SEED = 0

# Horizons are sized so that every op takes at most about two seconds on a
# 2-vCPU host: a run then repeats its op list five or more times, and the
# median over those passes rides out the bursts of a shared machine.  The
# schedules, pools and op mix are the ones the workloads are meant to
# exercise; only the stage horizons are smaller than the full acceptance runs
# (generic extends horizon 100 instead of 500, bci and ci-not-hi 1500 stages
# instead of 3000).

# Largest relative change the seed makes to a jittered horizon.  Kept well
# under the 10% the workload mix allows, because the benchmark's spread is
# taken across seeds and must stay inside the end-to-end bounds.
JITTER = 0.02

# Moduli of the drawn adversarial numberings.  `identity` is left out: its
# adversarial numbering takes about 40% fewer total-tier steps in the scan
# checks than the other three, so drawing it would let the seed, not the
# code, move the workload's cost.
MODULI = {
    "zero": pg.zero_code,
    "succ": pg.succ_code,
    "double": pg.double_code,
}


@dataclass(frozen=True)
class Op:
    """One `canimm` invocation.

    `verb` is build, check or measure; `name` the construction or suite
    (empty for measure); `flags` the remaining arguments.  A check reads
    the trace written by the build op at index `source`.  Every op is
    expected to exit 0, also under --expect-fail.
    """

    verb: str
    name: str = ""
    flags: tuple[str, ...] = ()
    source: int | None = None

    @property
    def key(self) -> str:
        return f"{self.verb}.{self.name}" if self.name else self.verb


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: Registry
    ops: tuple[Op, ...]


def _jitter(rng: random.Random, value: int) -> str:
    return str(max(1, round(value * (1 + rng.uniform(-JITTER, JITTER)))))


def _singleton(rng: random.Random) -> tuple[int, bool, str]:
    a = rng.randint(1, 8)
    return encode(pg.pow2_(pg.add_(pg.P0, pg.c_(a)))), False, f"singleton+{a}"


def _interval(rng: random.Random) -> tuple[int, bool, str]:
    """i -> [i+a, c*i+a+1)."""
    a, c = rng.randint(1, 8), rng.randint(2, 3)
    lo = pg.add_(pg.P0, pg.c_(a))
    hi = pg.add_(pg.mul_(pg.c_(c), pg.P0), pg.c_(a + 1))
    return encode(pg.interval_code_(lo, hi)), False, f"interval-{c}i+{a}"


def _adversarial(rng: random.Random) -> tuple[int, bool, str]:
    f = rng.choice(sorted(MODULI))
    return adversarial_rule_code(MODULI[f]()), True, f"adversarial-{f}"


def _pool(rng: random.Random, kinds) -> Registry:
    pool = default_pool()
    for kind in kinds:
        rule, surjective, label = kind(rng)
        pool.register(rule, surjective=surjective, label=label)
    return pool


def forcing(seed: int) -> Workload:
    rng = random.Random(f"forcing:{seed}")
    pool = _pool(rng, [_singleton])
    ops = [
        Op("build", "generic", ("--index-bound", "12", "--blocks", "8", "--markers", "8", "--stages", _jitter(rng, 100))),
        Op("check", "schnorr", (), source=0),
        Op("build", "generic", ("--index-bound", "16", "--blocks", "10", "--markers", "12", "--stages", _jitter(rng, 100))),
        Op("check", "schnorr", (), source=2),
    ]
    # Each measure op is mostly interpreter start-up, so a longer sweep keeps
    # check_s from resting on a handful of sub-second processes.
    for _ in range(8):
        ops.append(Op("measure", flags=(str(rng.randint(0, 8)), str(rng.randint(100, 160)))))
    # Known failure, kept on purpose: the exact measure has more than 4300
    # decimal digits, past Python's int->str limit in DyadicRational.serialize.
    ops.append(Op("measure", flags=("1", "200")))
    return Workload(
        "forcing",
        "Mathias reservoir reads and deep total-tier runs under nested enumerators; "
        "bypasses constructions, checkers and partial-tier runs",
        pool,
        tuple(ops),
    )


def scan(seed: int) -> Workload:
    rng = random.Random(f"scan:{seed}")
    pool = _pool(rng, [_singleton, _interval, _adversarial])
    ops = [
        Op("build", "delta2", ("--stages", _jitter(rng, 5000), "--markers", "48")),
        Op("build", "effectivize", ("--stages", _jitter(rng, 2000), "--markers", "32", "--budget", "192")),
        Op("build", "ci-hi", ("--stages", "48")),
        Op("build", "ci-not-hi", ("--stages", _jitter(rng, 1000), "--index-bound", "32")),
        Op("check", "immunity", ("--index-bound", "64"), source=0),
        Op("check", "immunity", ("--index-bound", "64"), source=2),
        Op("check", "immunity", ("--modulus", "twof"), source=3),
        Op("check", "domination", ("--modulus", "double"), source=3),
        Op("check", "effective", ("--modulus", "double", "--index-bound", "64", "--budget", "192"), source=1),
        Op("check", "effective", ("--modulus", "double", "--index-bound", "64", "--budget", "256"), source=1),
    ]
    return Workload(
        "scan",
        "bounded-domain and pool scans in the checkers, mostly diverging partial-tier runs; "
        "many short ops, so process start-up weighs most here",
        pool,
        tuple(ops),
    )


def stages(seed: int) -> Workload:
    rng = random.Random(f"stages:{seed}")
    pool = _pool(rng, [_interval])
    ops = [
        Op("build", "delta2", ("--stages", "10000", "--markers", "64")),
        Op("build", "bci", ("--stages", _jitter(rng, 1500), "--index-bound", "64")),
        Op("build", "ci-not-hi", ("--stages", _jitter(rng, 1500), "--index-bound", "64")),
        Op("build", "cofinal"),
        Op("build", "hi-not-ci", ("--blocks", "6")),
        Op("check", "immunity", ("--expect-fail",), source=4),
        Op("build", "2generic-witness", ("--index-bound", "3")),
        Op("check", "immunity", ("--index-bound", "16"), source=0),
        # Known failure, kept on purpose: a block code passes Python's
        # 4300-digit int->str limit in records.render_trace.
        Op("build", "hi-not-ci", ("--blocks", "7")),
    ]
    return Workload(
        "stages",
        "construction stage loops, many shallow total-tier calls, stage approximations "
        "and trace rendering; no Mathias reservoirs",
        pool,
        tuple(ops),
    )


WORKLOADS = {"forcing": forcing, "scan": scan, "stages": stages}
