import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canimm import machine as M
from canimm import mathias as mt
from canimm import numberings as nb
from canimm import programs as pg
from canimm.finitesets import FiniteSet, code_of
from canimm.machine import decode, encode, eval_total, we_bounded

from reference import block, characteristic_string, diverge_code, evens, meet_D_eh, min_value, odds


def _set(*elements):
    return FiniteSet(code_of(elements))


def odds_above(k):
    # 2n + k for odd k
    return mt.ComputableSet(encode(pg.add_(pg.mul_(pg.c_(2), pg.P0), pg.c_(k))))


def _increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def test_reservoir_constructors_are_increasing():
    for cs in (mt.ComputableSet.naturals(), evens(), odds()):
        assert _increasing(cs.values(65))


_PROGRESSIONS = (mt.ComputableSet.naturals, evens, odds)


def test_progression_reservoirs_run_no_leaf_code(monkeypatch, pool):
    def refuse(code, args, *rest):
        raise AssertionError(f"leaf code {code} ran")

    monkeypatch.setattr(mt, "eval_total", refuse)
    schedule = mt.default_schedule(list(pool), thin_count=12, avoid_count=6, stem_target=8)
    for progression in _PROGRESSIONS:
        cs = progression()
        a, b = cs.progression
        assert cs.values(20) == [a * n + b for n in range(20)]
        assert cs.value(10**30) == a * 10**30 + b
        derived = cs.shifted(3).with_table_prefix([0], 5).shifted(1)
        assert derived.values(4) == [a * n + b for n in range(8, 12)]
        assert derived.progression == cs.progression and derived.leaf == cs.enumerator
        run = mt.build_generic(mt.Condition(FiniteSet(0), cs), schedule, horizon=200)
        assert all(cond.reservoir.progression == cs.progression for _, cond in run.chain)
        assert len(run.prefix.members()) >= 8


def test_reservoir_rejects_partial_enumerators():
    with pytest.raises(mt.NotTotalTierError):
        mt.ComputableSet(diverge_code())
    # a code spliced around a set's enumerator is checked in full from outside
    spliced = encode(pg.comp(M.Splice(evens().enumerator), M.Mu(pg.P0)))
    with pytest.raises(mt.NotTotalTierError):
        mt.ComputableSet(spliced)


def test_condition_requires_stem_below_reservoir():
    with pytest.raises(ValueError):
        mt.Condition(_set(4), evens())


def test_extends_examples():
    parent = mt.Condition(FiniteSet(0), evens())
    assert mt.extends(parent, parent, 100)
    child = mt.Condition(_set(0, 2), evens().shifted(2))
    assert mt.extends(child, parent, 100)
    stray = mt.Condition(_set(1), evens().shifted(2))
    assert not mt.extends(stray, parent, 100)
    widened = mt.Condition(_set(0), mt.ComputableSet.naturals().shifted(1))
    assert not mt.extends(widened, parent, 50)  # reservoir leaves the parent


def test_meet_size_examples():
    whole = mt.Condition.empty()
    grown = mt.meet_size(whole, 2)
    assert grown.stem.elements == (0, 1)
    assert grown.reservoir.values(3) == [2, 3, 4]
    assert mt.meet_size(grown, 1) is grown
    odd = mt.Condition(_set(5), odds_above(7))
    bigger = mt.meet_size(odd, 3)
    assert bigger.stem.elements == (5, 7, 9)
    assert bigger.reservoir.values(2) == [11, 13]
    assert mt.extends(bigger, odd, 100)


def test_thin_singleton_rule_drops_zero():
    reg = nb.Registry()
    singleton = reg.register(nb.singleton_rule_code(), label="singleton")
    cond, cert = mt.thin_for_numbering(mt.Condition.empty(), singleton, 10)
    assert cond.reservoir.values(10) == list(range(1, 11))
    assert mt.extends(cond, mt.Condition.empty(), 200)
    assert cert.start == 0 and cert.bound == 10
    assert cert.holds_for(singleton)


def test_thin_certificates_for_every_pool_numbering(pool):
    current = mt.Condition.empty()
    for numbering in pool:
        current, cert = mt.thin_for_numbering(current, numbering, 12)
        assert mt.extends(current, mt.Condition.empty(), 400)
        assert cert.holds_for(numbering)
        # the implication is not vacuous: indices whose value escapes the
        # visible mask exist, and indices fully inside obey the size bound
        for i in range(cert.start, cert.bound + 1):
            value = numbering.value(i)
            if value.issubset_mask(cert.visible_mask):
                assert len(value) <= i


def test_thin_tail_clears_checked_values(pool):
    big = pool[3]
    cond, cert = mt.thin_for_numbering(mt.Condition.empty(), big, 8)
    tail_values = cond.reservoir.values(9)
    assert tail_values[-1] > cert.ceiling


def test_thin_reads_each_numbering_value_once(monkeypatch, pool):
    read = []
    value = nb.Numbering.value

    def counting(self, i):
        read.append(i)
        return value(self, i)

    monkeypatch.setattr(nb.Numbering, "value", counting)
    cond = mt.Condition(_set(0, 1), mt.ComputableSet.naturals().shifted(2))
    mt.thin_for_numbering(cond, pool[2], 7)
    assert read == list(range(2, 10))  # the count + 1 indices from the stem size on


def test_avoidance_example_blocks():
    cond, record = mt.meet_avoidance(mt.Condition.empty(), 3)
    assert record.kept_values == (1, 6, 15)
    assert record.missed_blocks == (1, 3, 5)
    assert cond.reservoir.values(4) == [1, 6, 15, 16]
    unchanged, empty_record = mt.meet_avoidance(mt.Condition.empty(), 0)
    assert empty_record.missed_blocks == () and unchanged.stem.is_empty


def test_avoidance_respects_stem_and_interleaves():
    stem = _set(0, 4)
    cond = mt.Condition(stem, mt.ComputableSet.naturals().shifted(5))
    thinned, record = mt.meet_avoidance(cond, 4)
    assert list(record.missed_blocks) == sorted(set(record.missed_blocks))
    for index, kept in zip(record.missed_blocks, record.kept_values):
        span = block(index)
        assert min_value(span) > stem.max_value()
        assert kept > span.max_value()
    # every block on record is disjoint from stem and kept values alike
    visible = stem.code | code_of(record.kept_values)
    for index in record.missed_blocks:
        assert block(index).code & visible == 0


def test_meet_d_eh_met_on_oracle_ones():
    outcome = meet_D_eh(mt.Condition.empty(), pg.enumerate_oracle_ones_code(), pg.zero_code(), budget=256)
    assert outcome.condition is not None and outcome.clause == "clause1"
    witness = FiniteSet(outcome.evidence["witness_domain"])
    assert len(witness) == 1  # h == 0 needs a single element
    j = outcome.evidence["j"]
    assert witness.code == we_bounded(j, outcome.evidence["inner_budget"]).code
    chi = characteristic_string(outcome.condition.stem)
    oracle_domain = we_bounded(pg.enumerate_oracle_ones_code(), 256, chi)
    assert witness.issubset_mask(oracle_domain.code)
    assert len(witness) > outcome.evidence["h_at_j"]
    assert mt.extends(outcome.condition, mt.Condition.empty(), 100)


def test_meet_d_eh_unresolved_on_diverger():
    outcome = meet_D_eh(mt.Condition.empty(), diverge_code(), pg.zero_code(), budget=128)
    assert outcome.condition is None
    assert outcome.evidence["best_size"] == 0


def test_meet_d_eh_unresolved_when_modulus_outruns_desk_scale():
    # h = identity demands more domain elements than the self-referential
    # index is numerically large, which no desk horizon can materialize
    outcome = meet_D_eh(
        mt.Condition.empty(), pg.enumerate_oracle_ones_code(), pg.identity_code(), budget=128, max_rounds=2
    )
    assert outcome.condition is None
    assert outcome.evidence["best_size"] >= 1


def test_build_generic_trivial_schedules():
    start = mt.Condition.empty()
    run = mt.build_generic(start, [], horizon=50)
    assert [name for name, _ in run.chain] == ["start"]
    assert run.prefix.mask == 0
    run = mt.build_generic(start, [mt.size_step(1), mt.size_step(2)], horizon=50)
    assert run.prefix.members() == (0, 1)


def test_build_generic_rejects_violating_transformer():
    def escape(cond):
        return mt.Condition(_set(0), odds()), None

    with pytest.raises(mt.ExtensionOrderError) as err:
        mt.build_generic(mt.Condition(FiniteSet(0), evens()), [mt.ScheduleStep("rogue", escape)], horizon=40)
    assert "rogue" in str(err.value)


def test_generic_chain_extends_and_grows(generic_run):
    for (_, parent), (name, child) in zip(generic_run.chain, generic_run.chain[1:]):
        assert mt.extends(child, parent, 1000), name
    assert generic_run.prefix.mask == generic_run.chain[-1][1].stem.code
    assert len(generic_run.prefix.members()) >= 8


def test_generic_thin_certificates_cover_final_stem(generic_run, pool):
    assert len(generic_run.thin_certificates) == len(pool)
    for cert in generic_run.thin_certificates:
        assert cert.holds_for(pool[cert.numbering_id])


def test_generic_stem_persistence(generic_run):
    previous = 0
    for _, cond in generic_run.chain:
        assert previous & ~cond.stem.code == 0
        previous = cond.stem.code
    assert previous == generic_run.prefix.mask


# ---------------------------------------------------------------------------
# Native reservoir values against the programs that traces record


def _lowered_shift(code, k):
    """The enumerator of a k-shift, built as a nested program."""
    if k == 0:
        return code
    return encode(pg.comp(decode(code), pg.add_(pg.P0, pg.c_(k))))


def _lowered_table(code, values, tail_index):
    """The enumerator of a table prefix, built as a nested program."""
    count = len(values)
    table = pg.packed_select_(list(values), pg.P0)
    past = pg.le_(pg.c_(count), pg.P0)
    tail_at = pg.add_(pg.monus_(pg.P0, pg.c_(count)), pg.c_(tail_index))
    tail = pg.comp(decode(code), tail_at)
    return encode(pg.add_(pg.mul_(pg.monus_(pg.c_(1), past), table), pg.mul_(past, tail)))


_LEAVES = (
    mt.ComputableSet.naturals,
    evens,
    odds,
    # a leaf whose own program starts with a table: 1, 3, 5, then n from 6 on
    lambda: mt.ComputableSet(_lowered_table(pg.identity_code(), [1, 3, 5], 6)),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_LEAVES), st.data())
def test_native_values_match_the_lowered_program(leaf, data):
    cs = leaf()
    for _ in range(data.draw(st.integers(0, 6), label="steps")):
        if data.draw(st.booleans(), label="shift"):
            k = data.draw(st.integers(0, 5), label="k")
            expected = _lowered_shift(cs.enumerator, k)
            cs = cs.shifted(k)
        else:
            tail_index = data.draw(st.integers(0, 5), label="tail_index")
            below = cs.value(tail_index)
            values = sorted(data.draw(st.sets(st.integers(0, below - 1), max_size=3), label="values")) if below else []
            expected = _lowered_table(cs.enumerator, values, tail_index)
            cs = cs.with_table_prefix(values, tail_index)
        assert cs.enumerator == expected
    horizon = 14
    native = [cs.value(n) for n in range(horizon)]
    assert native == cs.values(horizon)
    assert native == [eval_total(cs.enumerator, (n,)) for n in range(horizon)]
    assert _increasing(native)


def test_build_generic_runs_only_leaf_codes(monkeypatch, pool):
    leaf = mt.ComputableSet(encode(pg.add_(pg.P0, pg.c_(5))))
    codes = set()

    run_total = M.eval_total_steps

    def counting(e, args, *rest):
        codes.add(e)
        return run_total(e, args, *rest)

    # reservoir leaf values and numbering values alike, one value a call
    monkeypatch.setattr(M, "eval_total_steps", counting)
    schedule = mt.default_schedule(list(pool), thin_count=12, avoid_count=6, stem_target=8)
    run = mt.build_generic(mt.Condition(FiniteSet(0), leaf), schedule, horizon=200)
    derived = {cond.reservoir.enumerator for _, cond in run.chain} - {leaf.enumerator}
    assert len(derived) == len(run.chain) - 1
    assert all(cond.reservoir.leaf == leaf.enumerator for _, cond in run.chain)
    assert leaf.enumerator in codes
    assert codes <= {leaf.enumerator, *pool.codes()}  # reservoir leaf and numbering rules only


def test_long_size_schedules_do_not_nest_the_interpreter():
    # 260 shifts nest the final enumerator past MAX_NESTING, so it cannot run;
    # the values are read natively, so the chain still builds
    run = mt.build_generic(mt.Condition.empty(), [mt.size_step(n) for n in range(1, 261)], horizon=5)
    assert run.prefix.members() == tuple(range(260))
    final = run.chain[-1][1].reservoir
    assert final.values(3) == [260, 261, 262]
    with pytest.raises(M.ProgramDepthError):
        eval_total(final.enumerator, (0,))


# ---------------------------------------------------------------------------
# Derived codes are spliced around the parent's code, never decoded

_total_trees = st.recursive(
    st.one_of(st.builds(M.Proj, st.integers(0, 2)), st.builds(M.Const, st.integers(0, 2**70))),
    lambda inner: st.one_of(
        st.builds(pg.comp, st.sampled_from([M.Add(), M.Mul(), M.Monus(), M.PairOp()]), inner, inner),
        st.builds(M.PrimRec, inner, inner),
        st.builds(M.Comp, inner, st.lists(inner, max_size=2).map(tuple)),
    ),
    max_leaves=8,
)
_any_trees = st.one_of(_total_trees, st.builds(M.Mu, _total_trees), st.builds(M.Query, _total_trees))


# wrap(parent) puts the parent at one place in a tree of either tier
_wrappers = st.recursive(
    st.just(lambda parent: parent),
    lambda inner: st.one_of(
        st.builds(
            lambda f, g, rest: lambda p: M.Comp(f, (g(p), *rest)), _any_trees, inner, st.lists(_any_trees, max_size=2)
        ),
        st.builds(lambda g, rest: lambda p: M.Comp(g(p), tuple(rest)), inner, st.lists(_any_trees, max_size=2)),
        st.builds(lambda g, step: lambda p: M.PrimRec(step, g(p)), inner, _any_trees),
        st.builds(lambda g: lambda p: M.Mu(g(p)), inner),
        st.builds(lambda g, f: lambda p: M.Apply(f, (g(p),)), inner, _any_trees),
    ),
    max_leaves=4,
)


@settings(max_examples=80, deadline=None)
@given(_total_trees, st.data())
def test_derivations_splice_the_parent_code(parent, data):
    cs = mt.ComputableSet(encode(parent))
    for _ in range(data.draw(st.integers(1, 4), label="steps")):
        if data.draw(st.booleans(), label="shift"):
            k = data.draw(st.integers(0, 6), label="k")
            expected = _lowered_shift(cs.enumerator, k)
            cs = cs.shifted(k)
        else:
            values = sorted(data.draw(st.sets(st.integers(0, 2**40), max_size=4), label="values"))
            tail_index = data.draw(st.integers(0, 6), label="tail_index")
            expected = _lowered_table(cs.enumerator, values, tail_index)
            cs = cs.with_table_prefix(values, tail_index)
        assert cs.enumerator == expected
        assert M.is_total_tier(decode(cs.enumerator))


@settings(max_examples=150, deadline=None)
@given(_total_trees, _wrappers)
def test_derived_totality_verdict_matches_the_decoded_code(parent, wrap):
    cs = mt.ComputableSet(encode(parent))
    expected = encode(wrap(parent))
    if M.is_total_tier(decode(expected)):
        assert cs._derived(wrap, (), 0).enumerator == expected
    else:
        with pytest.raises(mt.NotTotalTierError):
            cs._derived(wrap, (), 0)


def test_a_size_chain_parses_no_derived_enumerator(monkeypatch):
    # a leaf no other test decodes, so decode's cache holds none of the chain
    start = mt.Condition(FiniteSet(0), mt.ComputableSet(encode(pg.add_(pg.P0, pg.c_(4093)))))
    parsed = set()
    parse = M._parse

    def recording(bits):
        parsed.add(int("1" + bits, 2))
        return parse(bits)

    monkeypatch.setattr(M, "_parse", recording)
    run = mt.build_generic(start, [mt.size_step(n) for n in range(1, 401)], horizon=5)
    derived = {cond.reservoir.enumerator for _, cond in run.chain[1:]}
    assert len(derived) == 400
    assert not parsed & derived


# ---------------------------------------------------------------------------
# A walk runs its leaf on exactly the indices it reads, in order


def _value_elementwise(cs, n):
    """cs's value at index n, read alone: the leaf runs on n's leaf index only."""
    if n < len(cs.head):
        return cs.head[n]
    return mt.eval_total(cs.leaf, (cs.offset + n - len(cs.head),))


def _inside_elementwise(values, cs):
    x, idx = -1, 0
    for v in values:
        while x < v:
            x, idx = _value_elementwise(cs, idx), idx + 1
        if x != v:
            return False
    return True


def _thin_elementwise(cond, numbering, count):
    """(output enumerator, kept values, ceiling) of thin_for_numbering, one
    value read at a time: one walk keeps values and then finds the tail
    index, and the output condition reads its reservoir's first value to
    check that a stem lies below it."""
    base = cond.stem_size()
    values = [numbering.value(i) for i in range(base, base + count + 1)]
    ceiling = max((value.max_value() for value in values if not value.is_empty), default=0)
    kept, idx, union = [], 0, numbering.value(base).code
    for i in range(base + 1, base + count + 1):
        while (union >> (x := _value_elementwise(cond.reservoir, idx))) & 1:
            idx += 1
        kept.append(x)
        idx += 1
        union |= numbering.value(i).code
    while _value_elementwise(cond.reservoir, idx) <= max(ceiling, kept[-1] if kept else 0):
        idx += 1
    thinned = cond.reservoir.with_table_prefix(kept, idx)
    if not cond.stem.is_empty:
        _value_elementwise(thinned, 0)
    return thinned.enumerator, kept, ceiling


def _avoid_elementwise(cond, count):
    """(missed blocks, kept values, values read) of meet_avoidance, one value read at a time."""
    top = cond.stem.max_value() if not cond.stem.is_empty else -1
    block_index = 1
    while min_value(block(block_index)) <= top:
        block_index += 1
    missed, kept, idx = [], [], 0
    for _ in range(count):
        missed.append(block_index)
        while (x := _value_elementwise(cond.reservoir, idx)) <= block(block_index).max_value():
            idx += 1
        kept.append(x)
        idx += 1
        while min_value(block(block_index)) <= kept[-1]:
            block_index += 1
    return missed, kept, idx


_WALK_LEAVES = (
    pg.identity_code(),
    encode(pg.add_(pg.mul_(pg.c_(2), pg.P0), pg.c_(3))),
    encode(pg.add_(pg.P0, pg.c_(5))),
)
_WALK_POOL = list(nb.default_pool())
_walk_steps = st.lists(
    st.one_of(
        st.tuples(st.just("shift"), st.integers(0, 5)),
        st.tuples(st.just("table"), st.sets(st.integers(0, 40), max_size=3), st.integers(0, 5)),
    ),
    max_size=4,
)


def _derive(leaf, steps):
    """A set derived from the leaf's set by the steps."""
    cs = mt.ComputableSet(leaf)
    for step in steps:
        if step[0] == "shift":
            cs = cs.shifted(step[1])
        else:
            _, values, tail_index = step
            below = cs.value(tail_index)
            cs = cs.with_table_prefix(sorted(v for v in values if v < below), tail_index)
    return cs


def _with_stem(cs, size):
    """A condition on cs whose stem is the least `size` numbers below its values."""
    return mt.Condition(FiniteSet(code_of(range(min(size, cs.value(0))))), cs)


def _evaluated(call):
    """call()'s result and the leaf indices it evaluated, in order."""
    evaluated = []
    run = M.eval_total

    def record(code, args, *rest):
        evaluated.append(args[0])
        return run(code, args, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mt, "eval_total", record)
        return call(), evaluated


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_WALK_LEAVES),
    _walk_steps,
    st.integers(0, 3),
    st.sampled_from(["value", "values", "inside", "thin", "avoid"]),
    st.integers(0, 24),
    st.sets(st.integers(0, 40), max_size=6),
    st.sampled_from(_WALK_POOL),
    st.integers(0, 5),
)
# big-interval's ceiling (19) lies above the value kept (4), so the thinned
# tail resumes past the values the thinning walk kept
@example(pg.identity_code(), [], 0, "thin", 0, set(), _WALK_POOL[3], 1)
def test_walks_evaluate_exactly_the_elementwise_indices(leaf, steps, stem_size, kind, n, values, numbering, count):
    walked, reference = _derive(leaf, steps), _derive(leaf, steps)
    if kind == "value":
        got = _evaluated(lambda: walked.value(n))
        expected = _evaluated(lambda: _value_elementwise(reference, n))
    elif kind == "values":
        got = _evaluated(lambda: walked.values(n))
        expected = _evaluated(lambda: [_value_elementwise(reference, i) for i in range(n)])
    elif kind == "inside":
        got = _evaluated(lambda: mt._values_inside(sorted(values), walked))
        expected = _evaluated(lambda: _inside_elementwise(sorted(values), reference))
    else:
        # a condition reads its reservoir's first value
        walked, reference = _with_stem(walked, stem_size), _with_stem(reference, stem_size)
    if kind == "thin":
        (thinned, cert), evaluated = _evaluated(lambda: mt.thin_for_numbering(walked, numbering, count))
        got = (thinned.reservoir.enumerator, cert.visible_mask, cert.ceiling), evaluated
        (table, kept, ceiling), reference_evaluated = _evaluated(lambda: _thin_elementwise(reference, numbering, count))
        expected = (table, reference.stem.code | code_of(kept), ceiling), reference_evaluated
    elif kind == "avoid":
        (thinned, record), evaluated = _evaluated(lambda: mt.meet_avoidance(walked, count))
        got = (list(record.missed_blocks), list(record.kept_values), thinned.reservoir.enumerator), evaluated
        (missed, kept, read_count), reference_evaluated = _evaluated(lambda: _avoid_elementwise(reference, count))
        table = reference.reservoir.with_table_prefix(kept, read_count).enumerator if count else reference.reservoir.enumerator
        expected = (missed, kept, table), reference_evaluated
    assert got == expected


def test_interleaved_walks_each_run_their_own_indices():
    parent = odds_above(1)
    child = parent.shifted(2)  # reads the parent's leaf from index 2 on

    def interleaved():
        whole, tail = parent._walk(), child._walk()
        return [next(walk) for walk in (whole, whole, tail, whole, whole, tail, tail, whole, tail)]

    values, evaluated = _evaluated(interleaved)
    assert values == [1, 3, 5, 5, 7, 7, 9, 9, 11]
    # no value is shared: each walk runs the leaf on each index it reads
    assert evaluated == [0, 1, 2, 2, 3, 3, 4, 4, 5]


# ---------------------------------------------------------------------------
# Closed-form reads agree with interpreter reads of the same leaf code

_chain_steps = st.lists(
    st.one_of(
        st.tuples(st.just("shift"), st.integers(0, 5)),
        st.tuples(st.just("table"), st.sets(st.integers(0, 40), max_size=3), st.integers(0, 5)),
        st.tuples(st.just("thin"), st.integers(0, len(_WALK_POOL) - 1), st.integers(0, 6)),
        st.tuples(st.just("avoid"), st.integers(0, 3)),
        st.tuples(st.just("size"), st.integers(0, 4)),
    ),
    max_size=5,
)


def _chain_step(cond, step):
    """(condition, record) of one drawn step; shifts and table prefixes keep the stem."""
    kind, *args = step
    cs = cond.reservoir
    if kind == "shift":
        return mt.Condition(cond.stem, cs.shifted(args[0])), None
    if kind == "table":
        values, tail_index = args
        low, below = max(cond.stem.elements, default=-1), cs.value(tail_index)
        return mt.Condition(cond.stem, cs.with_table_prefix(sorted(v for v in values if low < v < below), tail_index)), None
    if kind == "thin":
        return mt.thin_for_numbering(cond, _WALK_POOL[args[0]], args[1])
    if kind == "avoid":
        return mt.meet_avoidance(cond, args[0])
    return mt.meet_size(cond, args[0]), None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_PROGRESSIONS), _chain_steps, st.integers(0, 30))
def test_closed_form_reads_match_interpreter_reads(progression, steps, n):
    closed = mt.Condition(FiniteSet(0), progression())
    run = mt.Condition(FiniteSet(0), mt.ComputableSet(closed.reservoir.enumerator))
    assert run.reservoir.progression is None
    for step in steps:
        (closed, closed_record), (run, run_record) = _chain_step(closed, step), _chain_step(run, step)
        # equal enumerators: the walks ended at the same indices
        assert (closed, closed_record) == (run, run_record)
        assert (closed.reservoir.head, closed.reservoir.offset) == (run.reservoir.head, run.reservoir.offset)
    assert closed.reservoir.progression is not None
    assert closed.reservoir.values(n) == run.reservoir.values(n)
    assert closed.reservoir.value(n) == run.reservoir.value(n)
