"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Horizons and tolerances are pinned here; the checks go
through independent paths (set-arithmetic oracles, brute-force counting,
replay) wherever a criterion names one.
"""

import random
import time

from canimm import checkers as ck
from canimm import constructions as C
from canimm import machine as M
from canimm import mathias as mt
from canimm import numberings as nb
from canimm import programs as pg
from canimm import schnorr
from canimm.finitesets import elements_of
from canimm.machine import encode

from reference import block, brute_force_measure, characteristic_string, cofinal_carrier, diverge_code, fixed_point
from reference import meet_D_eh, smn


def _report(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


def _linear_modulus():
    return encode(pg.succ_(pg.mul_(pg.c_(2), pg.P0)))  # 2i + 1


def _bci_modulus():
    return encode(pg.add_(pg.mul_(pg.c_(4), pg.pair_(pg.P0, pg.P0)), pg.c_(3)))  # 4 f(i) + 3


def _twof_modulus():
    return encode(pg.mul_(pg.c_(2), pg.pair_(pg.P0, pg.P0)))  # 2 f(i)


# ---------------------------------------------------------------- delta2


def test_delta2_criterion(pool):
    started = time.perf_counter()
    stages, markers, index_bound = 10_000, 64, 64
    prefix, trace = C.delta2_prefix(pool.codes(), stages, markers)

    members = prefix.members()
    assert len(members) == markers
    assert list(members) == sorted(set(members))  # strictly increasing
    assert trace.meta["unsettled"] == []  # every pool entry settled by the horizon

    verdict = ck.check_canonical_immunity(prefix, pg.identity_code(), list(pool), index_bound)
    assert verdict.status == ck.PASS, verdict.violations

    # independent oracle: exhaustive (D, i) scan with plain set arithmetic
    member_set = set(members)
    scanned = 0
    for position, numbering in enumerate(pool):
        for i in range(position, index_bound + 1):
            value = set(numbering.value(i).elements)
            if value and max(value) >= prefix.length:
                continue
            scanned += 1
            if value <= member_set:
                assert len(value) <= i, (numbering.label, i)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime target missed: {elapsed:.2f}s"
    _report("delta2", f"S={stages} N={markers} immune at h=identity, {scanned} pairs scanned, {elapsed:.2f}s")


# ---------------------------------------------------------------- bci


def test_bci_criterion(pool):
    stages, index_bound = 1000, 64
    r, q, trace = C.bci_run(list(pool), stages, index_bound)

    # per-stage invariants, recomputed from the trace records
    r_mask = q_mask = union = 0
    used = set()
    case2 = 0
    for rec in trace.records:
        if rec.rule == "case2":
            case2 += 1
            _, _, p_s, q_s, x, y, z, w = rec.fields
            assert {x, y} == {2 * p_s, 2 * p_s + 1} and {z, w} == {2 * q_s, 2 * q_s + 1}
            r_mask |= (1 << y) | (1 << z)
            q_mask |= (1 << x) | (1 << w)
            union |= (0b11 << (2 * p_s)) | (0b11 << (2 * q_s))
            used.update((p_s, q_s))
        assert len(used) <= 2 * (rec.stage + 1)
        assert r_mask & q_mask == 0
        assert r_mask | q_mask == union
    assert case2 >= 10  # the wide-interval rule keeps the real case busy

    modulus = _bci_modulus()
    for label, side in (("R", r), ("Q", q)):
        verdict = ck.check_canonical_immunity(side, modulus, list(pool), index_bound)
        assert verdict.status == ck.PASS, (label, verdict.violations)
        assert dict(verdict.horizon)["skipped"] == ()
    replay_r, replay_q = C.replay_bci(trace)
    assert (replay_r.mask, replay_q.mask) == (r.mask, q.mask)
    _report("bci", f"S={stages} invariants at every stage, {case2} split stages, R and Q immune at h=4f+3")


# ---------------------------------------------------------------- cofinal


def test_cofinal_criterion(pool):
    rng = random.Random(0xC0F1)
    for _ in range(100):
        bits = "".join(rng.choice("01") for _ in range(64))
        encoded, _ = C.cofinal_encode(list(pool), bits)
        assert C.cofinal_decode(encoded) == bits

    carrier = cofinal_carrier(list(pool), 66)
    verdict = ck.check_canonical_immunity(carrier, _linear_modulus(), list(pool), 64)
    assert verdict.status == ck.PASS, verdict.violations
    _report("cofinal", "100/100 random 64-bit roundtrips, carrier immune at h=2i+1")


# ---------------------------------------------------------------- ci-hi and ci-not-hi


def test_ci_hi_criterion(pool):
    fns = [pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code()]
    prefix, trace = C.ci_hi_run(list(pool), fns, 64)
    members = prefix.members()

    for j, f in enumerate(fns):
        assert members[j] > M.eval_total(f, (j,)), j  # member j exceeds f_j(j)

    verdict = ck.check_canonical_immunity(prefix, pg.identity_code(), list(pool), 64)
    assert verdict.status == ck.PASS, verdict.violations
    _report("ci-hi", f"evidence against {len(fns)} functions at their positions, immune at h=identity")


def test_ci_not_hi_criterion(pool):
    stages, index_bound = 1000, 64
    prefix, trace = C.ci_not_hi_run(list(pool), stages, index_bound)
    fill = trace.meta["fill_pairs"]

    for p in range(fill):
        assert (prefix.mask >> (2 * p)) & 0b11 in (0b01, 0b10), p  # exactly one per pair

    double = pg.double_code()
    members = prefix.members()
    complement = elements_of(((1 << prefix.length) - 1) ^ prefix.mask)
    assert ck.refute_domination(members, double, range(1, len(members) + 1)).status == ck.PASS
    assert ck.refute_domination(complement, double, range(1, len(complement) + 1)).status == ck.PASS

    verdict = ck.check_canonical_immunity(prefix, _twof_modulus(), list(pool), index_bound)
    assert verdict.status == ck.PASS, verdict.violations
    assert dict(verdict.horizon)["skipped"] == ()
    _report("ci-not-hi", f"{fill} pairs split one-per-block, both sides dominated by 2k, immune at h=2f")


# ---------------------------------------------------------------- hi-not-ci


def test_hi_not_ci_criterion():
    fns = [pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code()]
    prefix, trace = C.hi_not_ci_run(fns, 6)
    target = trace.meta["functions"][trace.meta["target_index"]]
    positions = trace.meta["witness_positions"]
    registry = nb.Registry()
    witness = registry.register(trace.meta["witness_rule"], surjective=True, label="witness")

    verdict = ck.check_canonical_immunity(
        prefix,
        target,
        [witness],
        index_bound=max(positions),
    )
    assert verdict.failed
    hit = [v for v in verdict.violations if v[1] in positions]
    assert len(hit) >= 3, verdict.violations
    for violation in verdict.violations:
        assert ck.reverify_immunity_violation(prefix, violation, [witness], target)
    _report("hi-not-ci", f"{len(hit)} recorded violations of the target modulus, each re-verified")


# ---------------------------------------------------------------- machine


def test_machine_criterion():
    rng = random.Random(0xACC3)
    for _ in range(200):
        code = rng.randrange(1 << rng.randrange(4, 22))
        args = [rng.randrange(10) for _ in range(rng.randrange(3))]
        small = rng.randrange(400)
        large = small + rng.randrange(1, 600)
        first = M.eval_bounded(code, args, small)
        if first.converged:
            assert M.eval_bounded(code, args, large) == first

    from test_machine import _random_total_tree

    rng = random.Random(0x600D)
    for _ in range(200):
        tree = _random_total_tree(rng, 3)
        code = M.encode(tree)
        fixed = [rng.randrange(7) for _ in range(rng.randrange(3))]
        rest = [rng.randrange(7) for _ in range(rng.randrange(3))]
        assert M.eval_total(smn(code, fixed), rest) == M.eval_total(code, fixed + rest)

    transformers = {
        "identity": pg.identity_code(),
        "constant": smn(pg.identity_code(), [pg.identity_code()]),
        "to-diverger": smn(pg.identity_code(), [diverge_code()]),
    }
    for name, g in transformers.items():
        fp = fixed_point(g)
        for s in (10, 100, 1000):
            left = {n for n in M.we_bounded(fp.code, s + fp.prefix_cost).elements if n < s}
            right = set(M.we_bounded(fp.applied, s).elements)
            assert left == right, (name, s)
    _report("machine", "200 monotonicity + 200 smn cases, 3 fixed points agree on {10,100,1000}")


# ---------------------------------------------------------------- mathias


def test_mathias_criterion(pool, generic_run):
    for (_, parent), (name, child) in zip(generic_run.chain, generic_run.chain[1:]):
        assert mt.extends(child, parent, 1000), name

    for cert in generic_run.thin_certificates:
        numbering = pool[cert.numbering_id]
        for i in range(cert.start, cert.bound + 1):
            value = numbering.value(i)
            if value.issubset_mask(cert.visible_mask):
                assert len(value) <= i, (numbering.label, i)

    ones = pg.enumerate_oracle_ones_code()
    outcome = meet_D_eh(mt.Condition.empty(), ones, pg.zero_code(), budget=256)
    assert outcome.condition is not None and outcome.clause == "clause1"
    j = outcome.evidence["j"]
    w_j = M.we_bounded(j, outcome.evidence["inner_budget"])
    chi = characteristic_string(outcome.condition.stem)
    oracle_domain = M.we_bounded(ones, 256, chi)
    assert w_j.issubset_mask(oracle_domain.code)  # first conjunct
    assert len(w_j) > M.eval_total(pg.zero_code(), (j,))  # second conjunct
    _report(
        "mathias",
        f"{len(generic_run.chain) - 1} chain links extend at horizon 1000, "
        f"{len(generic_run.thin_certificates)} thinning certificates, dichotomy family Met",
    )


# ---------------------------------------------------------------- schnorr


def test_schnorr_criterion(generic_run):
    started = time.perf_counter()
    for n in range(0, 6):
        for m in range(n + 1, 7):
            assert brute_force_measure(n, m) == schnorr.measure_U_trunc(n, m), (n, m)

    for n in range(0, 64):
        for m in range(n + 1, 65):
            assert schnorr.measure_U_trunc(n, m) <= schnorr.DyadicRational.power(n), (n, m)

    prefix = generic_run.prefix
    missed = list(generic_run.avoidance.missed_blocks)
    top = 0
    while schnorr.block_span(top + 1) <= prefix.length:
        top += 1
    covered = [i for i in missed if i <= top]
    assert covered, "no missed block is covered by the emitted prefix"
    for i in covered:
        assert prefix.mask & block(i).code == 0  # the record cross-checks
    horizon = max(covered)
    for n in range(len(missed)):
        member, witness = schnorr.in_U_n(prefix, n, horizon)
        assert member, n
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime target missed: {elapsed:.2f}s"
    _report(
        "schnorr",
        f"brute force agrees to M=6, bound exact to M=64, generic in U_n for n<{len(missed)}, {elapsed:.2f}s",
    )
