import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canimm import avoiding, blocks, markers
from canimm import checkers as ck
from canimm import constructions as C
from canimm import numberings as nb
from canimm import programs as pg
from canimm.finitesets import FiniteSet, SetPrefix, elements_of, free_position
from canimm.machine import encode, eval_bounded, pair_bound, unpair, we_bounded
from canimm.records import ConstructionTrace

from reference import cofinal_carrier, diverge_code


def _rule(tree):
    return encode(tree)


# ---------------------------------------------------------------- delta2


def test_delta2_empty_pool_markers_are_initial_segment():
    prefix, _ = C.delta2_prefix([], 100, 6)
    assert prefix.members() == (0, 1, 2, 3, 4, 5)


def test_delta2_hand_simulated_pool():
    # one rule: D(0) = {0,1} (oversized at 0), everything else empty
    rule = _rule(pg.mul_(pg.c_(3), pg.iszero_(pg.P0)))
    prefix, _ = C.delta2_prefix([rule], 2000, 2)
    assert prefix.members() == (2, 3)
    # adding D(1) = {5} must not move anything: one element is within bound 1
    rule2 = _rule(pg.add_(pg.mul_(pg.c_(3), pg.iszero_(pg.P0)), pg.mul_(pg.c_(32), pg.eq_(pg.P0, pg.c_(1)))))
    prefix2, _ = C.delta2_prefix([rule2], 2000, 2)
    assert prefix2.members() == (2, 3)


def test_delta2_markers_move_when_slow_code_settles():
    # a partial-tier rule that burns ~200 steps searching before it reveals
    # the constant value {0, 1} at every index
    from canimm.machine import Mu

    slow = _rule(pg.comp(pg.c_(3), Mu(pg.monus_(pg.c_(60), pg.P0))))
    fast_prefix, _ = C.delta2_prefix([slow], 10, 2)
    assert fast_prefix.members() == (0, 1)  # not settled yet at 10 stages
    settled_prefix, trace = C.delta2_prefix([slow], 5000, 2)
    assert settled_prefix.members() == (2, 3)
    moved = [rec for rec in trace.records if rec.rule == "set"]
    assert len(moved) >= 4  # both markers recorded before and after the event
    assert trace.meta["unsettled"] == []


def test_delta2_trace_replays_bitwise(pool):
    prefix, trace = C.delta2_prefix(pool.codes(), 3000, 24)
    assert C.replay_delta2(trace).mask == prefix.mask
    again, _ = C.delta2_prefix(pool.codes(), 3000, 24)
    assert again.mask == prefix.mask


def test_delta2_unsettled_entries_are_reported():
    prefix, trace = C.delta2_prefix([diverge_code()], 50, 3)
    assert trace.meta["unsettled"] == [(0, 0), (0, 1), (0, 2)]
    assert prefix.members() == (0, 1, 2)


def _pairs_at_level(n, pool_size):
    """The pairs (e, i) with max(e, i) = n and pool position e."""
    for e in range(min(n + 1, pool_size)):
        yield e, n
    if n < pool_size:
        for i in range(n):
            yield n, i


def _delta2_reference(pool, stages, markers):
    """delta2_prefix with every marker rebuilt from all settled pairs at
    each event stage, the construction's definition read literally."""
    settled, unsettled = {}, []
    for e, code in enumerate(pool[:markers]):
        for i in range(markers):
            r = eval_bounded(code, (i,), stages)
            if r.converged:
                settled[(e, i)] = (r.steps, r.value)
            else:
                unsettled.append((e, i))
    events = [s for s in sorted({0} | {steps for steps, _ in settled.values()}) if s <= stages]
    trace = ConstructionTrace(
        "delta2",
        meta={
            "stages": stages,
            "markers": markers,
            "pool": list(pool),
            "settled": len(settled),
            "unsettled": sorted(unsettled),
        },
    )
    current = []
    for s in events:
        mask, previous, stage_markers = 0, -1, []
        for n in range(markers):
            for e, i in _pairs_at_level(n, len(pool)):
                hit = settled.get((e, i))
                if hit is not None and hit[0] <= s and hit[1].bit_count() > i:
                    mask |= hit[1]
            previous = free_position(mask, previous + 1)
            stage_markers.append(previous)
        for n, x in enumerate(stage_markers):
            if n >= len(current) or current[n] != x:
                trace.add(s, "set", n, x)
        current = stage_markers
    return SetPrefix.from_members(current, current[-1] + 1), trace


def _slow_rule(delay, value):
    """A rule that searches delay * i steps before returning value(i)."""
    from canimm.machine import Mu

    search = Mu(pg.monus_(pg.mul_(pg.c_(delay), pg.P1), pg.P0))
    return _rule(pg.add_(pg.mul_(pg.c_(0), search), value))


_DELTA2_CODES = [
    *nb.default_pool().codes(),
    diverge_code(),
    _rule(pg.mul_(pg.c_(3), pg.iszero_(pg.P0))),
    *[_slow_rule(d, pg.interval_code_(pg.c_(a), pg.add_(pg.P0, pg.c_(a + 2)))) for d, a in ((1, 0), (3, 2), (7, 1))],
    *[_slow_rule(d, pg.c_(c)) for d, c in ((2, 7), (5, 0b111000), (11, 0b1011))],
]


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.sampled_from(_DELTA2_CODES), max_size=6),
    st.one_of(st.integers(1, 60), st.integers(1, 3000)),
    st.integers(1, 9),
)
def test_delta2_matches_the_full_rebuild(pool, stages, markers):
    prefix, trace = C.delta2_prefix(pool, stages, markers)
    assert (prefix, trace) == _delta2_reference(pool, stages, markers)


# ---------------------------------------------------------------- bci


@pytest.fixture(scope="module")
def bci_big_pool():
    reg = nb.Registry()
    reg.register(_rule(pg.c_(255)), label="const-0..7")
    return reg


def test_bci_case2_hand_simulation(bci_big_pool):
    r, q, trace = C.bci_run(list(bci_big_pool), 1, 0)
    rec = next(rec for rec in trace.records if rec.rule == "case2")
    # least fresh pair, then least elements: p=0, q=1, x=0, y=1, z=2, w=3
    assert rec.fields == (0, 0, 0, 1, 0, 1, 2, 3)
    # element 7 lies in pair block 3, and the fill takes two blocks more: 2, 3 and 4 split evens-to-R
    assert trace.meta["fill_pairs"] == 5
    assert set(r.members()) == {1, 2, 4, 6, 8}
    assert set(q.members()) == {0, 3, 5, 7, 9}


def test_bci_stage_with_i_below_e_is_case1(pool):
    _, _, trace = C.bci_run(list(pool), 2, 0)
    stage1 = next(rec for rec in trace.records if rec.stage == 1)
    e, i = unpair(1)
    assert (e, i) == (1, 0)
    assert stage1.rule == "case1"


def _bci_invariants(trace):
    r_mask = q_mask = union = 0
    pairs = set()
    for rec in trace.records:
        if rec.rule == "case2":
            _, _, p_s, q_s, x, y, z, w = rec.fields
            assert {x, y} == {2 * p_s, 2 * p_s + 1}
            assert {z, w} == {2 * q_s, 2 * q_s + 1}
            r_mask |= (1 << y) | (1 << z)
            q_mask |= (1 << x) | (1 << w)
            pairs.update((p_s, q_s))
            union |= (0b11 << (2 * p_s)) | (0b11 << (2 * q_s))
        s = rec.stage
        assert len(pairs) <= 2 * (s + 1)
        assert r_mask & q_mask == 0
        assert r_mask | q_mask == union


def test_bci_per_stage_invariants(pool):
    # the 400 stages read no index past 26, so this fill covers every spoiled block
    _, _, trace = C.bci_run(list(pool), 400, 28)
    _bci_invariants(trace)


def test_bci_replay_and_partition(pool):
    # the 300 stages read no index past 23, whose values reach pair block 2209
    r, q, trace = C.bci_run(list(pool), 300, 23)
    r2, q2 = C.replay_bci(trace)
    assert (r2.mask, q2.mask) == (r.mask, q.mask)
    assert r.mask & q.mask == 0
    assert r.length == q.length == 2 * 2211
    assert r.mask | q.mask == (1 << 4422) - 1  # R and Q partition the horizon


@given(st.integers(0, 200), st.sets(st.integers(-3, 250)))
def test_fill_mask_has_the_even_bit_of_every_unused_pair(fill_pairs, used):
    expected = sum(1 << (2 * p) for p in range(fill_pairs) if p not in used)
    assert avoiding._unused_pair_evens(fill_pairs, used) == expected


# ---------------------------------------------------------------- cofinal


def test_cofinal_empty_pool_parity_coding():
    prefix, _ = C.cofinal_encode([], "1010")
    assert prefix.members() == (0, 3, 4, 7)
    assert C.cofinal_decode(prefix) == "1010"


def test_cofinal_roundtrip_against_pool(pool):
    import random

    rng = random.Random(7)
    for _ in range(20):
        bits = "".join(rng.choice("01") for _ in range(48))
        encoded, trace = C.cofinal_encode(list(pool), bits)
        assert C.cofinal_decode(encoded) == bits
        assert C.replay_cofinal(trace).mask == encoded.mask


def test_cofinal_positions_avoid_oversized_values(pool):
    positions = C.choose_cofinal_positions(list(pool), 32)
    assert positions == sorted(set(positions))
    forbidden = 0
    for n, p in enumerate(positions):
        for e in range(min(n + 1, len(pool))):
            for i in range(n + 1):
                value = pool[e].value(i)
                if len(value) > i:
                    forbidden |= value.code
        assert not (forbidden >> (2 * p)) & 3


def test_cofinal_decode_truncation_signal():
    # a prefix cut before a coded member decodes to fewer bits, never to wrong ones
    prefix, _ = C.cofinal_encode([], "101")
    assert C.cofinal_decode(prefix) == "101"
    last = prefix.members()[-1]
    cut = SetPrefix(prefix.mask & ((1 << last) - 1), last)
    assert C.cofinal_decode(cut) == "10"


def test_cofinal_carrier_immune_with_linear_modulus(pool):
    carrier = cofinal_carrier(list(pool), 40)
    h = encode(pg.succ_(pg.mul_(pg.c_(2), pg.P0)))  # 2i + 1
    verdict = ck.check_canonical_immunity(carrier, h, list(pool), 24)
    assert verdict.status == ck.PASS


# ---------------------------------------------------------------- ci-hi


def test_ci_hi_first_pick_clears_pool_and_bound():
    reg = nb.Registry()
    reg.register(_rule(pg.c_(3)), label="d0")  # D(0) = {0, 1}
    prefix, _ = C.ci_hi_run(list(reg), [pg.identity_code()], 1)
    assert prefix.members() == (2,)


def test_ci_hi_zero_functions_shift_by_one():
    prefix, _ = C.ci_hi_run([], [pg.zero_code()] * 4, 6)
    assert prefix.members() == (1, 2, 3, 4, 5, 6)


def test_ci_hi_outgrows_each_function_at_its_stage(pool):
    fns = [pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code()]
    prefix, trace = C.ci_hi_run(list(pool), fns, 24)
    members = prefix.members()
    for rec in trace.records:
        x, bound = rec.fields
        assert members[rec.stage] == x > bound
    assert C.replay_ci_hi(trace).mask == prefix.mask


# ---------------------------------------------------------------- ci-not-hi


def test_ci_not_hi_one_per_pair_and_bounded(pool):
    prefix, trace = C.ci_not_hi_run(list(pool), 400, 28)
    fill = trace.meta["fill_pairs"]
    assert prefix.length == 2 * fill
    for p in range(fill):
        assert (prefix.mask >> (2 * p)) & 0b11 in (0b01, 0b10)
    members = prefix.members()
    complement = elements_of(((1 << prefix.length) - 1) ^ prefix.mask)
    for k in range(1, len(members) + 1):
        assert members[k - 1] <= 2 * k
    for k in range(1, len(complement) + 1):
        assert complement[k - 1] <= 2 * k
    assert C.replay_ci_not_hi(trace).mask == prefix.mask


def _pairs_hit_reference(value, used):
    """Every pair block the value meets, read off its sorted elements, minus
    the used ones."""
    hit = []
    for x in value.elements:
        if not hit or hit[-1] != x // 2:
            hit.append(x // 2)
    return [p for p in hit if p not in used]


def _interval(start, length):
    return ((1 << length) - 1) << start


value_codes = st.one_of(
    st.integers(0, (1 << 3000) - 1),
    st.builds(_interval, st.integers(0, 2000), st.integers(0, 2000)),
)


@settings(max_examples=200, deadline=None)
@given(value_codes, st.sets(st.integers(0, 1600), max_size=400))
def test_free_pairs_match_whole_set_scan(code, used):
    value = FiniteSet(code)
    reference = _pairs_hit_reference(value, used)
    for k in (1, 2, None):
        assert list(itertools.islice(avoiding._free_pairs(value, used), k)) == reference[:k]


def test_ci_not_hi_case2_withholds_an_element(pool):
    _, trace = C.ci_not_hi_run(list(pool), 400, 28)
    case2 = [rec for rec in trace.records if rec.rule == "case2"]
    assert case2  # the wide-interval rule trips the threshold
    for rec in case2:
        e, i, p_s, x = rec.fields
        value = pool[e].value(i)
        assert x in value and x // 2 == p_s
        assert len(value) > 2 * pair_bound(i)


def test_ci_not_hi_refuses_a_spoiled_block_outside_the_fill(pool):
    # index bound 1 fills 2 pair blocks, and stage 41 = pair(3, 5) reads index 5
    with pytest.raises(ValueError, match="stage 41 spoils pair block 2, outside the 2 pair blocks of the fill"):
        C.ci_not_hi_run(list(pool), 42, 1)


def test_bci_refuses_a_spoiled_block_outside_the_fill(pool):
    # index bound 1 fills the same 2 pair blocks, and stage 32 = pair(3, 4) reads index 4
    with pytest.raises(ValueError, match="stage 32 spoils pair block 3, outside the 2 pair blocks of the fill"):
        C.bci_run(list(pool), 42, 1)


@pytest.mark.parametrize("run", [C.bci_run, C.ci_not_hi_run], ids=["bci", "ci-not-hi"])
def test_one_per_pair_runs_read_each_pool_value_once_fill_scan_first(run, pool, monkeypatch):
    # a rule's PrimRec resume point carries from one value to the next, so the
    # read order is part of the step counts: the fill scan reads every value
    # up to the index bound, then the stages read only the indices past it
    reads = []
    value = nb.Numbering.value
    monkeypatch.setattr(nb.Numbering, "value", lambda self, i: reads.append((self.id, i)) or value(self, i))
    stages, index_bound = 200, 10
    run(list(pool), stages, index_bound)
    fill = [(e, i) for e in range(len(pool)) for i in range(e, index_bound + 1)]
    late = [(e, i) for e, i in map(unpair, range(stages)) if e < len(pool) and max(e, index_bound) < i]
    assert late and reads == fill + late


# ---------------------------------------------------------------- hi-not-ci


@pytest.fixture(scope="module")
def hinotci():
    fns = [pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code()]
    return C.hi_not_ci_run(fns, 6, target_index=0)


def test_hi_not_ci_block_properties():
    f = pg.identity_code()
    blocks = C.h_blocks(f, 12)
    union = 0
    for n, block in enumerate(blocks):
        assert len(block) == 2 * n + 1  # exceeds f(2n) = 2n
        assert block.min_value() >= n
        assert union & block.code == 0
        union |= block.code


def test_hi_not_ci_rule_matches_python_blocks():
    f = pg.succ_code()
    rule = nb.even_odd_rule_code(C.h_even_rule_tree(f))
    reg = nb.Registry()
    numbering = reg.register(rule, surjective=True)
    for n in range(10):
        assert numbering.value(2 * n).code == C.h_block_at(f, n).code
        assert numbering.value(2 * n + 1).code == n


DEFAULT_FNS = (pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.double_code())


# With all four functions the from-scratch reference for the 8th selection
# (block 2167 of succ) holds 400 MB of block codes, and the 9th selection
# steps past 4.7 million blocks, so those runs stop at 7 selections.  The
# short list falls back to the zero function for indices 2 and 3.
@pytest.mark.parametrize(
    "fns,max_pairs,target_index",
    [(DEFAULT_FNS, 7, 0), (DEFAULT_FNS, 7, 2), (DEFAULT_FNS[:2], 10, 0)],
    ids=["four-fns-target0", "four-fns-target2", "two-fns-zero-fallback"],
)
def test_hi_not_ci_selects_least_block_clearing_the_mask(fns, max_pairs, target_index):
    for pair_count in range(1, max_pairs + 1):
        prefix, trace = C.hi_not_ci_run(list(fns), pair_count, target_index=target_index)
        assert len(trace.records) == pair_count
        mask = 0
        for rec in trace.records:
            fi, _, n, _, bound, block_code = rec.fields
            f = fns[fi] if fi < len(fns) else pg.zero_code()
            blocks = C.h_blocks(f, n + 1)  # blocks[n] is h_block_at(f, n)
            top = mask.bit_length()
            assert block_code == blocks[n].code
            assert n > bound and blocks[n].min_value() >= top
            assert all(blocks[m].min_value() < top for m in range(bound + 1, n))
            mask |= block_code
        assert mask == prefix.mask


def test_hi_not_ci_eight_selections_fit_the_size_guard():
    prefix, trace = C.hi_not_ci_run(list(DEFAULT_FNS), 8, target_index=0)
    assert len(trace.records) == 8
    assert prefix.length == 4_702_392 <= C.MAX_BLOCK_END


DOUBLE_SECOND = (pg.identity_code(), pg.double_code(), pg.succ_code(), pg.zero_code())
_FAST = encode(pg.pow2_(pg.mul_(pg.c_(5), pg.P0)))  # block 33 of f(n) = 2^(5n) has 2^330 + 1 members


@pytest.mark.parametrize(
    "fns,pair_count,refusal",
    [
        (DEFAULT_FNS, 9, "selection 9 would walk more than 16384 blocks"),
        (DOUBLE_SECOND, 10, "selection 7 would walk more than"),
        ((_FAST,), 1, "selection 1 would take a block ending at bit"),
    ],
    ids=["four-fns-9", "double-second-10", "fast-growing-1"],
)
def test_hi_not_ci_refuses_selections_past_the_size_guard(monkeypatch, fns, pair_count, refusal):
    built = []

    def block_set(start, end):
        built.append(end)
        return FiniteSet(((1 << (end - start)) - 1) << start)

    monkeypatch.setattr(blocks, "_block_set", block_set)
    with pytest.raises(ValueError, match=refusal):
        C.hi_not_ci_run(list(fns), pair_count, target_index=0)
    assert max(built, default=0) <= C.MAX_BLOCK_END


def test_hi_not_ci_selections_outrun_target(hinotci):
    prefix, trace = hinotci
    members = prefix.members()
    for rec in trace.records:
        fi, k, n, placed, bound, block_code = rec.fields
        block = FiniteSet(block_code)
        assert members[placed] == block.min_value()
        assert members[placed] >= n > bound
    assert C.replay_hi_not_ci(trace).mask == prefix.mask


def test_hi_not_ci_witness_numbering_refutes_target(hinotci):
    prefix, trace = hinotci
    positions = trace.meta["witness_positions"]
    reg = nb.Registry()
    witness = reg.register(trace.meta["witness_rule"], surjective=True)
    verdict = ck.check_canonical_immunity(
        prefix,
        trace.meta["functions"][trace.meta["target_index"]],
        [witness],
        index_bound=max(positions),
    )
    assert verdict.failed
    hit = {i for (_, i, _, _) in verdict.violations}
    assert set(positions) <= hit
    assert len(positions) >= 3


# ---------------------------------------------------------------- pumping


def test_pump_finds_first_length_lex_witness():
    ones = pg.enumerate_oracle_ones_code()
    assert C.pump_enumeration("", ones, 2).rho == "111"
    assert C.pump_enumeration("1", ones, 0).rho == "1"


def test_pump_unresolved_is_a_value():
    result = C.pump_enumeration("0", diverge_code(), 0, max_candidates=50)
    assert not result.resolved
    assert result.candidates_tried == 50
    assert result.best_size == 0


def test_alpha_enumeration_is_length_lex():
    strings = [C.alpha_string(i) for i in range(7)]
    assert strings == ["", "0", "1", "00", "01", "10", "11"]


def test_2generic_witness_postconditions():
    ones = pg.enumerate_oracle_ones_code()
    entries, numbering, trace = C.build_2generic_witness("", ones, pg.zero_code(), 2, 2)
    assert len(entries) == 9 and all(e.beta is not None for e in entries)
    for entry in entries:
        assert len(entry.witness) == entry.target + 1  # strictly beats the target
        rho = C.alpha_string(entry.i) + entry.beta
        domain = we_bounded(ones, C.PUMP_FUEL_PER_BIT * len(rho), rho)
        assert entry.witness.issubset_mask(domain.code)
        assert numbering.value(2 * entry.key).code == entry.witness.code
    assert C.replay_2generic(trace) == {e.key: e.witness.code for e in entries}


def test_2generic_witness_propagates_unresolved():
    entries, numbering, _ = C.build_2generic_witness("", diverge_code(), pg.zero_code(), 1, 1, max_candidates=20)
    assert all(e.beta is None for e in entries)
    assert all(numbering.value(2 * e.key).is_empty for e in entries)


# ---------------------------------------------------------------- X_n membership


def test_x_n_membership_examples(pool):
    adv = pool[4]
    identity = pg.identity_code()
    assert not C.x_n_membership("0" * 64, adv, identity, 0, 12)
    block = adv.value(7)
    sigma = "".join("1" if i in block else "0" for i in range(block.max_value() + 1))
    assert C.x_n_membership(sigma, adv, identity, 0, 12)
    assert C.x_n_membership(sigma, adv, identity, 7, 7)
    assert not C.x_n_membership(sigma, adv, identity, 8, 12)
    assert not C.x_n_membership(sigma, adv, identity, 5, 3)  # empty index range


# ---------------------------------------------------------------- effectivize


def test_effectivize_no_removals_when_domains_are_empty():
    base = SetPrefix.from_members(range(40), 40)
    q, _ = C.effectivize_inside(base, 8, 16)  # tiny budget: raw codes never settle
    assert q.mask == base.mask


def test_effectivize_removes_minimum_of_crafted_domain():
    # explicit code pool: index 0 diverges everywhere, index 1 has domain {5}
    codes = [diverge_code(), pg.domain_program([5])]
    base = SetPrefix.from_members(range(12), 12)
    q, trace = C.effectivize_inside(base, 6, 600, codes=codes)
    acts = {rec.fields[0]: rec.fields[1] for rec in trace.records if rec.rule == "act"}
    assert acts == {1: 5}
    assert 5 not in q.members()
    assert C.replay_effectivize(trace).mask == q.mask


def test_effectivize_density_and_one_act_per_index():
    base = SetPrefix.from_members(range(160), 160)
    q, trace = C.effectivize_inside(base, 80, 256)
    acted = [rec.fields[0] for rec in trace.records if rec.rule == "act"]
    assert len(acted) == len(set(acted))
    members = base.members()
    kept = set(q.members())
    for n in range(len(members)):
        assert 2 * sum(1 for m in members[: n + 1] if m in kept) >= n


def _effectivize_reference(prefix, stages, budget, codes=None):
    """effectivize_inside rescanning every index at every stage, each
    domain and tail mask computed once and kept."""
    members = prefix.members()
    if codes is None:
        codes = range(stages)
    member_mask = prefix.mask
    tail_masks = {}
    acted = set()
    removed = 0
    trace = ConstructionTrace(
        "effectivize",
        meta={"stages": stages, "budget": budget, "base_mask": prefix.mask, "base_length": prefix.length},
    )
    domains = {}
    for s in range(stages):
        for e in range(min(s + 1, len(codes))):
            if e in acted:
                continue
            if e not in domains:
                domains[e] = markers.we_bounded(codes[e], budget).code
            if 2 * e not in tail_masks:
                tail_masks[2 * e] = member_mask & ~((1 << members[2 * e]) - 1)
            hit = domains[e] & tail_masks[2 * e]
            if hit:
                y = (hit & -hit).bit_length() - 1
                removed |= 1 << y
                acted.add(e)
                trace.add(s, "act", e, y)
                break
    return SetPrefix(prefix.mask & ~removed, prefix.length), trace


_EFFECTIVIZE_CODES = [
    diverge_code(),
    pg.identity_code(),
    *[pg.domain_program(d) for d in ([5], [0, 1], [3, 9, 30], [12, 13, 14, 15], [40, 61])],
    *range(40),  # raw codes, as the default listing uses
]


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.integers(0, 70), min_size=2),
    st.integers(0, 8),
    st.integers(0, 64),
    st.one_of(st.none(), st.lists(st.sampled_from(_EFFECTIVIZE_CODES), max_size=12)),
    st.data(),
)
def test_effectivize_matches_the_rescanning_reference(members, extra, budget, codes, data):
    stages = data.draw(st.integers(1, len(members) // 2), label="stages")
    prefix = SetPrefix.from_members(members, max(members) + 1 + extra)
    scanned = {"construction": [], "reference": []}

    def run(side, construction):
        def counted(code, b):
            scanned[side].append(code)
            return we_bounded(code, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(markers, "we_bounded", counted)
            return construction(prefix, stages, budget, codes)

    assert run("construction", C.effectivize_inside) == run("reference", _effectivize_reference)
    assert scanned["construction"] == scanned["reference"]


def test_effectivize_requires_enough_members():
    with pytest.raises(ValueError):
        C.effectivize_inside(SetPrefix.from_members(range(9), 9), 5, 64)
