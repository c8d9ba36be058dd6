import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canimm import command
from canimm import machine as M
from canimm import programs as pg
from canimm import recursion as R
from canimm.numberings import adversarial_rule_code, default_pool

from reference import add_code, diverge_code, eval_oracle_bounded, query_at_code


def test_pairing_examples():
    assert M.pair(0, 0) == 0
    assert M.pair(1, 0) == 1
    assert M.pair(0, 1) == 2
    # direct evaluation of the formula: pair(2, 1) = 7, so unpair(7) = (2, 1)
    assert M.pair(2, 1) == 7
    assert M.unpair(7) == (2, 1)


@given(st.integers(min_value=0, max_value=10**9))
def test_unpair_inverts_pair(p):
    x, y = M.unpair(p)
    assert M.pair(x, y) == p


@given(st.integers(min_value=0, max_value=10**4), st.integers(min_value=0, max_value=10**4))
def test_pair_is_injective_on_grid(x, y):
    p = M.pair(x, y)
    assert M.unpair(p) == (x, y)


def test_pair_bound_is_diagonal():
    for i in range(20):
        assert M.pair_bound(i) == max(M.pair(e, i) for e in range(i + 1))


def test_encode_decode_roundtrip_on_sample_trees():
    trees = [
        M.Const(0),
        M.Const(977),
        M.Proj(4),
        M.Succ(),
        M.Add(),
        M.PairOp(),
        M.Comp(M.Succ(), (M.Proj(0),)),
        M.Comp(M.Proj(1), ()),
        M.PrimRec(M.Proj(0), M.Comp(M.Succ(), (M.Proj(1),))),
        M.Mu(M.Const(1)),
        M.Query(M.Proj(0)),
        M.Apply(M.Const(5), (M.Proj(0), M.Const(2))),
    ]
    for tree in trees:
        assert M.decode(M.encode(tree)) == tree


@given(st.integers(min_value=0, max_value=1 << 24))
def test_decode_is_total(code):
    M.decode(code)  # never raises; ill-formed codes become the diverger


@given(st.integers(min_value=0, max_value=1 << 4096))
@settings(max_examples=300)
def test_decode_is_total_on_large_codes(code):
    tree = M.decode(code)
    # a code either decodes to the tree it encodes or is ill-formed
    assert tree == M.ALWAYS_DIVERGE or M.encode(tree) == code


def test_ill_formed_codes_diverge():
    assert M.decode(0) == M.ALWAYS_DIVERGE
    for code in (1, 2, 3, 9, 31):
        tree = M.decode(code)
        if tree == M.ALWAYS_DIVERGE:
            assert not M.eval_bounded(code, [0], 500).converged


def test_eval_examples():
    assert M.eval_bounded(pg.identity_code(), [5], 10) == M.Outcome(5, 1)
    assert not M.eval_bounded(diverge_code(), [0], 1000).converged
    assert M.eval_bounded(pg.succ_code(), [7], 10).value == 8


def test_eval_budget_zero_diverges():
    assert not M.eval_bounded(pg.identity_code(), [5], 0).converged


def test_oracle_examples():
    assert eval_oracle_bounded(query_at_code(0), "1", 0, 10).value == 1
    # query beyond the oracle string kills the whole run
    assert not eval_oracle_bounded(query_at_code(3), "10", 0, 10).converged
    assert eval_oracle_bounded(pg.identity_code(), "", 4, 10).value == 4


def test_oracle_string_validation():
    with pytest.raises(ValueError):
        eval_oracle_bounded(pg.identity_code(), "21", 0, 10)


def test_we_bounded_examples():
    assert M.we_bounded(diverge_code(), 100).is_empty
    assert M.we_bounded(pg.identity_code(), 5).elements == (0, 1, 2, 3, 4)
    assert M.we_bounded(pg.enumerate_oracle_ones_code(), 50, "101").elements == (0, 2)


def test_we_monotone_in_budget():
    ones = pg.enumerate_oracle_ones_code()
    previous = 0
    for s in (0, 5, 20, 60, 200):
        w = M.we_bounded(ones, s, "1101").code
        assert previous & ~w == 0
        previous = w


def test_we_enumeration_orders_by_settling():
    order = M.we_enumeration(pg.enumerate_oracle_ones_code(), 64, "111")
    assert [n for _, n in order] == [0, 1, 2]
    steps = [s for s, _ in order]
    assert steps == sorted(steps)


_CASE_RNG = random.Random(0xC1)
_MONO_CASES = [
    (
        _CASE_RNG.randrange(1 << _CASE_RNG.randrange(3, 24)),
        [_CASE_RNG.randrange(12) for _ in range(_CASE_RNG.randrange(3))],
        _CASE_RNG.randrange(300),
        _CASE_RNG.randrange(300, 900),
    )
    for _ in range(200)
]


@pytest.mark.parametrize("code,args,small,large", _MONO_CASES)
def test_budget_monotonicity_randomized(code, args, small, large):
    first = M.eval_bounded(code, args, small)
    second = M.eval_bounded(code, args, large)
    if first.converged:
        assert second == first  # same value and same step count


@given(
    st.integers(min_value=0, max_value=1 << 20),
    st.text(alphabet="01", max_size=8),
    st.text(alphabet="01", max_size=8),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_oracle_persistence(code, oracle, extension, n):
    before = eval_oracle_bounded(code, oracle, n, 200)
    after = eval_oracle_bounded(code, oracle + extension, n, 200)
    if before.converged:
        assert after == before


# -- tree-walking reference evaluator -----------------------------------------
# Follows the fuel rules of the machine docstring node by node and answers
# nothing without running it, so a search on a nonzero constant spends all
# its fuel here.


class _RefDiverge(Exception):
    pass


_REF_BINARY = {
    M.Add: lambda a, b: a + b,
    M.Monus: lambda a, b: a - b if a > b else 0,
    M.Mul: lambda a, b: a * b,
    M.Div: lambda a, b: a // b if b else 0,
    M.PairOp: M.pair,
}
_REF_UNARY = {
    M.Succ: lambda a: a + 1,
    M.Log2: lambda a: a.bit_length() - 1 if a else 0,
    M.UnpairL: lambda a: M.unpair(a)[0],
    M.UnpairR: lambda a: M.unpair(a)[1],
}


def _ref_eval(t, args, oracle, fuel):
    """Value of tree t on args; fuel is a one-element list of steps left."""

    def tick(cost=1):
        fuel[0] -= cost
        if fuel[0] < 0:
            raise _RefDiverge

    def arg(i):
        return args[i] if i < len(args) else 0

    def words(n):
        return n.bit_length() // M.WORD_BITS

    kind = type(t)
    if kind is M.Const:
        tick()
        return t.value
    if kind is M.Proj:
        tick()
        return arg(t.index)
    if kind in _REF_UNARY:
        tick(1 + words(arg(0)))
        return _REF_UNARY[kind](arg(0))
    if kind in _REF_BINARY:
        tick(1 + words(arg(0)) + words(arg(1)))
        return _REF_BINARY[kind](arg(0), arg(1))
    if kind is M.Pow2:
        tick(1 + arg(0) // M.WORD_BITS)
        return 1 << arg(0)
    tick()
    if kind is M.Comp:
        vals = tuple(_ref_eval(a, args, oracle, fuel) for a in t.args)
        return _ref_eval(t.func, vals, oracle, fuel)
    if kind is M.PrimRec:
        rest = args[1:]
        acc = _ref_eval(t.base, rest, oracle, fuel)
        for k in range(arg(0)):
            acc = _ref_eval(t.step, (k, acc) + rest, oracle, fuel)
        return acc
    if kind is M.Mu:
        y = 0
        while _ref_eval(t.pred, (y,) + args, oracle, fuel) != 0:
            y += 1
        return y
    if kind is M.Query:
        q = _ref_eval(t.pos, args, oracle, fuel)
        if oracle is None or q >= len(oracle):
            raise _RefDiverge
        return 1 if oracle[q] == "1" else 0
    if kind is M.Apply:
        target = _ref_eval(t.func, args, oracle, fuel)
        vals = tuple(_ref_eval(a, args, oracle, fuel) for a in t.args)
        return _ref_eval(M.decode(target), vals, oracle, fuel)
    raise TypeError(t)


def _ref_outcome(tree, args, budget, oracle=None):
    fuel = [budget]
    try:
        value = _ref_eval(tree, tuple(args), oracle, fuel)
    except _RefDiverge:
        return M.DIVERGED
    return M.Outcome(value, budget - fuel[0])


_SEARCHES = [M.Mu(M.Const(c)) for c in (0, 1, 5)]
_NULLARY_NODES = [cls() for cls in M._CLASSES if cls._kind.shape == M._TREE and not cls._kind.fields]
_shortcut_trees = st.recursive(
    st.one_of(
        st.sampled_from(_SEARCHES),
        st.builds(M.Proj, st.integers(0, 2)),
        st.sampled_from(_NULLARY_NODES),
        # constants include codes, so that Apply can reach a search
        st.builds(M.Const, st.sampled_from([0, 1, 2, 7, 34, M.encode(M.Succ()), *map(M.encode, _SEARCHES)])),
    ),
    lambda inner: st.one_of(
        st.builds(M.Comp, inner, st.lists(inner, max_size=3).map(tuple)),
        st.builds(M.PrimRec, inner, inner),
        st.builds(M.Mu, inner),
        st.builds(M.Query, inner),
        st.builds(M.Apply, inner, st.lists(inner, max_size=3).map(tuple)),
    ),
    max_leaves=10,
)


@given(
    _shortcut_trees,
    st.lists(st.integers(0, 6), max_size=3),
    st.one_of(st.none(), st.text(alphabet="01", max_size=6)),
)
@settings(max_examples=120, deadline=None)
def test_run_matches_reference_around_constant_searches(tree, args, oracle):
    code = M.encode(tree)
    for budget in range(301):
        assert M._run(code, args, budget, oracle) == _ref_outcome(tree, args, budget, oracle), budget


@functools.lru_cache(maxsize=None)
def _ref_enumeration(tree, budget):
    out = []
    for n in range(budget):
        r = _ref_outcome(tree, (n,), budget)
        if r.converged:
            out.append((r.steps, n))
    return sorted(out)


@pytest.mark.parametrize("budget", [0, 1, 64, 192])
def test_bounded_domains_match_reference_on_small_codes(budget):
    for code in range(512):
        # codes decoding to the same tree share one reference scan
        order = _ref_enumeration(M.decode(code), budget)
        assert M.we_enumeration(code, budget) == order, code
        assert M.we_bounded(code, budget).code == sum(1 << n for _, n in order), code


def test_we_bounded_answers_the_diverger_without_running_it(monkeypatch):
    def refuse(*args):
        raise AssertionError("a program was run")

    # _runs is the run loop of the bounded scans
    monkeypatch.setattr(M, "_runs", refuse)
    with pytest.raises(AssertionError, match="a program was run"):
        M.we_bounded(pg.identity_code(), 1)
    assert M.we_bounded(diverge_code(), 10**6).is_empty


@pytest.mark.parametrize("scan", [M.we_bounded, M.we_enumeration], ids=["we_bounded", "we_enumeration"])
def test_a_bounded_scan_looks_its_code_up_once(scan):
    code = M.encode(M.Comp(M.Add(), (M.Proj(0), M.Const(977))))
    before = M._compiled.cache_info()
    scan(code, 50)
    after = M._compiled.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


# -- word operations: Comps of every argument count against the reference ------

_WORD_CONSTANTS = [0, 1, 3, 64, 130, 2**63 - 1, 2**63, 2**64, 2**130 + 7]
_word_trees = st.recursive(
    st.one_of(
        st.builds(M.Proj, st.integers(0, 2)),
        st.builds(M.Const, st.sampled_from(_WORD_CONSTANTS)),
        st.sampled_from(_NULLARY_NODES),
    ),
    lambda inner: st.one_of(
        # a word operation reads argument positions 0 and 1 of its Comp's
        # tuple, which may hold too few or too many arguments
        st.builds(M.Comp, st.sampled_from(_NULLARY_NODES), st.lists(inner, max_size=3).map(tuple)),
        st.builds(M.Comp, inner, st.lists(inner, max_size=3).map(tuple)),
        st.builds(M.PrimRec, inner, inner),
    ),
    max_leaves=12,
)

_WORD_CAP = 150


@given(_word_trees, st.lists(st.sampled_from([0, 2, 5, 64, 2**64, 2**130]), max_size=3))
@example(M.Comp(M.Add(), (M.Proj(0),)), [2**64])
@example(M.Comp(M.Succ(), (M.Proj(0), M.Proj(1), M.Const(2**130))), [2**130, 1])
@example(M.Comp(M.Pow2(), (M.Const(130),)), [])
@example(M.Comp(M.Mul(), (M.Comp(M.Pow2(), (M.Proj(0),)), M.Const(2**130))), [64])
@example(M.Comp(M.Monus(), (M.Const(2**64), M.Comp(M.Log2(), (M.Proj(1),)))), [0, 2**130])
@settings(max_examples=150, deadline=None)
def test_run_matches_reference_on_word_operations(tree, args):
    code = M.encode(tree)
    full = _ref_outcome(tree, args, _WORD_CAP)
    top = full.steps + 1 if full.converged else _WORD_CAP
    for budget in range(top + 1):
        assert M._run(code, args, budget, None) == _ref_outcome(tree, args, budget), budget


# -- PrimRec resume points: one compiled entry across a sequence of calls ------

_primrec_nodes = st.builds(M.PrimRec, _word_trees, _word_trees)
_primrec_trees = st.one_of(
    _primrec_nodes,
    st.builds(M.Comp, _primrec_nodes, st.lists(_word_trees, min_size=1, max_size=3).map(tuple)),
)
# (count, rest): the counts of a sequence rise, fall and repeat, and rest changes
_primrec_calls = st.lists(
    st.tuples(st.integers(0, 6), st.lists(st.integers(0, 3), max_size=2)), min_size=1, max_size=8
)
_RESUME_CAP = 2000
_add_rest = M.PrimRec(M.Proj(0), M.Comp(M.Add(), (M.Proj(1), M.Proj(2))))


@given(_primrec_trees, _primrec_calls)
@example(_add_rest, [(1, [5]), (4, [5]), (2, [5]), (2, [5]), (6, [5]), (0, [5])])
@example(_add_rest, [(3, [1]), (3, [2]), (5, [1]), (5, [])])
@settings(max_examples=150, deadline=None)
def test_primrec_resume_points_change_no_outcome(tree, calls):
    shared = M._compiled(M.encode(tree))
    for count, rest in calls:
        args = (count, *rest)
        full = _ref_outcome(tree, args, _RESUME_CAP)
        # the converging budget stores a resume point; one step less is the
        # divergence edge with that point in place
        budgets = [full.steps, full.steps - 1, 0] if full.converged else [_RESUME_CAP, 0]
        for budget in budgets:
            expected = _ref_outcome(tree, args, budget)
            assert M._exec(shared, args, budget, None) == expected, (args, budget)
            assert M._exec(M._compile(tree), args, budget, None) == expected, (args, budget)


def _named_programs():
    codes = {name: getattr(pg, name)() for name in dir(pg) if name.endswith("_code")}
    codes.update(add_code=add_code(), diverge_code=diverge_code(), query_at_code=query_at_code(2))
    codes.update({f"adversarial-{name}": adversarial_rule_code(f) for name, f in command.modulus_catalog().items()})
    codes.update({f"pool-{number.label}": number.rule for number in default_pool()})
    return codes


_NAMED_PROGRAMS = _named_programs()


@pytest.mark.parametrize("name", sorted(_NAMED_PROGRAMS))
def test_named_programs_take_the_reference_step_counts(name):
    code = _NAMED_PROGRAMS[name]
    tree = M.decode(code)
    for n in range(9):
        args = [n, 8 - n][: max(1, M.arity_bound(tree))]
        if M.is_total_tier(code):
            value, steps = M.eval_total_steps(code, args)
            assert _ref_outcome(tree, args, M._TOTAL_CAP) == M.Outcome(value, steps), n
            assert M.eval_bounded(code, args, steps - 1) == M.DIVERGED, n
        else:  # the searches and oracle readers, against a short oracle
            for budget in range(0, 200, 7):
                assert M._run(code, args, budget, "0110") == _ref_outcome(tree, args, budget, "0110"), (n, budget)


# -- total-tier tree generator for the s-m-n agreement cases ----------------


def _random_total_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return M.Const(rng.randrange(9))
        return M.Proj(rng.randrange(3))
    kind = rng.randrange(6)
    if kind == 0:
        return M.Comp(M.Succ(), (_random_total_tree(rng, depth - 1),))
    if kind < 4:
        op = rng.choice([M.Add(), M.Monus(), M.Mul(), M.PairOp()])
        return M.Comp(op, (_random_total_tree(rng, depth - 1), _random_total_tree(rng, depth - 1)))
    if kind == 4:
        return M.PrimRec(_random_total_tree(rng, depth - 1), _random_total_tree(rng, depth - 1))
    return M.Comp(_random_total_tree(rng, depth - 1), (_random_total_tree(rng, depth - 1),))


def test_smn_examples():
    addc = add_code()
    for y in range(11):
        assert M.eval_total(R.smn(addc, [0]), [y]) == y
        assert M.eval_total(R.smn(addc, [3]), [y]) == 3 + y
        assert M.eval_total(R.smn(pg.identity_code(), [9]), [y]) == 9


def test_smn_exact_budget_correspondence():
    addc = add_code()
    specialized = R.smn(addc, [3])
    overhead = R.smn_overhead(addc, 1)
    for s in range(0, 60):
        wrapped = M.eval_bounded(specialized, [4], s + overhead)
        direct = M.eval_bounded(addc, [3, 4], s)
        assert wrapped.converged == direct.converged
        assert wrapped.value == direct.value


def test_smn_agreement_randomized():
    rng = random.Random(0x5317)
    for _ in range(200):
        tree = _random_total_tree(rng, 3)
        code = M.encode(tree)
        n_fixed = rng.randrange(3)
        fixed = [rng.randrange(7) for _ in range(n_fixed)]
        rest = [rng.randrange(7) for _ in range(rng.randrange(3))]
        specialized = R.smn(code, fixed)
        assert M.eval_total(specialized, rest) == M.eval_total(code, fixed + rest)


def test_smn_of_ill_formed_code_diverges_like_original():
    e = 0  # decodes to the always-diverging program
    specialized = R.smn(e, [4])
    assert not M.eval_bounded(specialized, [1], 500).converged


# -- recursion theorem -------------------------------------------------------


def _w_clipped(code, budget, clip):
    return {n for n in M.we_bounded(code, budget).elements if n < clip}


@pytest.mark.parametrize(
    "make_transformer",
    [
        lambda: pg.identity_code(),
        lambda: R.smn(pg.identity_code(), [pg.identity_code()]),
        lambda: R.smn(pg.identity_code(), [diverge_code()]),
    ],
    ids=["identity", "constant", "to-diverger"],
)
def test_fixed_point_w_agreement(make_transformer):
    g = make_transformer()
    fp = R.fixed_point(g)
    assert M.eval_total(g, [fp.code]) == fp.applied
    for s in (10, 100, 1000):
        left = _w_clipped(fp.code, s + fp.prefix_cost, s)
        right = set(M.we_bounded(fp.applied, s).elements)
        assert left == right


def test_fixed_point_prefix_cost_is_exact():
    fp = R.fixed_point(R.smn(pg.identity_code(), [pg.identity_code()]))
    run_j = M.eval_bounded(fp.code, [5], 10_000)
    run_g = M.eval_bounded(fp.applied, [5], 10_000)
    assert run_j.value == run_g.value == 5
    assert run_j.steps - run_g.steps == fp.prefix_cost


def test_fixed_point_rejects_partial_transformers():
    with pytest.raises(M.NotTotalTierError):
        R.fixed_point(diverge_code())


def test_total_tier_recognizer():
    assert M.is_total_tier(add_code())
    assert not M.is_total_tier(diverge_code())
    assert not M.is_total_tier(M.encode(M.Query(M.Const(0))))
    assert not M.is_total_tier(M.encode(M.Apply(M.Const(1), ())))


def test_eval_total_requires_total_tier():
    with pytest.raises(M.NotTotalTierError):
        M.eval_total(diverge_code(), [0])


def test_compiled_entry_carries_the_totality_verdict():
    for code in range(1 << 12):
        assert M._compiled(code)[2] is M.is_total_tier(code), code


@given(st.one_of(_shortcut_trees, _word_trees))
@settings(max_examples=200, deadline=None)
def test_compiled_totality_matches_the_tree_walk_on_random_trees(tree):
    assert M._compiled(M.encode(tree))[2] is M.is_total_tier(tree)


@pytest.mark.parametrize("total", [True, False], ids=["total", "partial"])
def test_eval_total_looks_its_code_up_once(total):
    # the compiled entry answers both the totality check and the run
    code = M.encode(M.Comp(M.Add(), (M.Proj(0), M.Const(4321))))
    if not total:
        code = M.encode(M.Mu(M.decode(code)))
    before = M._compiled.cache_info()
    if total:
        assert M.eval_total(code, [5]) == 4326
    else:
        with pytest.raises(M.NotTotalTierError):
            M.eval_total(code, [0])
    after = M._compiled.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


def test_memo_holds_at_most_cache_entries():
    base = 1 << 40
    for code in range(base, base + M.CACHE_ENTRIES + 10):
        M._compiled(code)
    assert M._compiled.cache_info().currsize <= M.CACHE_ENTRIES


def test_memo_skips_codes_at_the_bit_limit():
    code = 1 << (M._CACHE_BIT_LIMIT - 1)  # exactly _CACHE_BIT_LIMIT bits
    diverger = M._compiled(M.ALWAYS_DIVERGE_CODE)[1:]
    before = M._compiled.cache_info()
    for _ in range(2):
        assert M._compiled(code)[1:] == diverger
    after = M._compiled.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_decode_rejects_negative_codes_without_caching():
    before = M._compiled.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError):
            M.decode(-1)
        with pytest.raises(ValueError):
            M._compiled(-1)
    assert M._compiled.cache_info().currsize == before.currsize


# -- single-run total evaluation against the budget-doubling search ----------


def _doubling_eval_total_steps(e, args, max_budget=M._TOTAL_CAP):
    """Reference: rerun at budgets 64, 128, ... until convergence or the cap."""
    M.require_total_tier(e)
    budget = 64
    while True:
        r = M.eval_bounded(e, args, budget)
        if r.converged:
            return r.value, r.steps
        if budget >= max_budget:
            raise M.TotalBudgetExceededError(f"code {e} needs more than {max_budget} steps")
        budget *= 2


def _total_outcome(evaluate, code, args, max_budget):
    try:
        return evaluate(code, args, max_budget)
    except M.TotalBudgetExceededError:
        return "exceeded"


def _random_total_case(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return M.encode(_random_total_tree(rng, 3)), [rng.randrange(12) for _ in range(rng.randrange(4))]
    if kind == 1:
        return add_code(), [rng.randrange(400), rng.randrange(50)]
    if kind == 2:
        values = [rng.randrange(1 << rng.randrange(1, 80)) for _ in range(rng.randrange(1, 12))]
        return M.encode(pg.packed_select_(values, pg.P0)), [rng.randrange(len(values) + 2)]
    square = M.encode(pg.mul_(pg.P0, pg.P0))
    code = rng.choice([pg.identity_code(), pg.succ_code(), pg.double_code(), square])
    return code, [rng.randrange(1 << rng.randrange(1, 3000))]


_TOTAL_CASE_RNG = random.Random(0x70A1)
_TOTAL_CASES = [_random_total_case(_TOTAL_CASE_RNG) for _ in range(150)]


@pytest.mark.parametrize("max_budget", [1, 63, 64, 65, 100, 128, 1000, M._TOTAL_CAP])
def test_eval_total_steps_matches_doubling_search(max_budget):
    outcomes = set()
    for code, args in _TOTAL_CASES:
        expected = _total_outcome(_doubling_eval_total_steps, code, args, max_budget)
        assert _total_outcome(M.eval_total_steps, code, args, max_budget) == expected
        outcomes.add(expected == "exceeded")
    # every cap but the default one sees runs both converge and exceed it
    assert outcomes == ({False} if max_budget == M._TOTAL_CAP else {False, True})


def test_eval_total_budget_cap_rounds_up_to_a_doubling_step():
    add = add_code()  # add(n, 0) takes 2 + 3n steps
    assert M.eval_total_steps(add, [20, 0], max_budget=64) == (20, 62)
    with pytest.raises(M.TotalBudgetExceededError):
        M.eval_total_steps(add, [21, 0], max_budget=64)
    # a cap of 100 admits every run of at most 128 steps
    for n, steps in ((21, 65), (40, 122), (42, 128)):
        assert M.eval_total_steps(add, [n, 0], max_budget=100) == (n, steps)
    with pytest.raises(M.TotalBudgetExceededError):
        M.eval_total_steps(add, [43, 0], max_budget=100)


_ADD_LISTING = """\
primrec
  proj 0
  comp
    succ
    proj 1"""

_DIAGONAL_BUILDER_LISTING = """\
comp
  add
  comp
    mul
    comp
      add
      comp
        mul
        comp
          add
          comp
            mul
            comp
              add
              comp
                mul
                const 3166272
                comp
                  pow2
                  comp
                    monus
                    comp
                      add
                      comp
                        succ
                        comp
                          log2
                          comp
                            succ
                            proj 0
                      comp
                        succ
                        comp
                          log2
                          comp
                            succ
                            proj 0
                    const 1
              comp
                succ
                proj 0
            const 32
          const 0
        comp
          pow2
          comp
            monus
            comp
              add
              comp
                succ
                comp
                  log2
                  comp
                    succ
                    proj 0
              comp
                succ
                comp
                  log2
                  comp
                    succ
                    proj 0
            const 1
      comp
        succ
        proj 0
    const 64
  const 3"""


def test_disassembly_listings_are_pinned():
    assert M.disassemble(add_code()) == _ADD_LISTING
    assert M.disassemble(R._diagonal_builder_tree()) == _DIAGONAL_BUILDER_LISTING


def test_disassembly_one_instruction_per_line():
    listing = M.disassemble(add_code())
    lines = listing.splitlines()
    assert lines[0] == "primrec"
    assert all(line.strip() for line in lines)
    assert "proj 0" in listing and "succ" in listing


def test_word_cost_charges_for_large_shifts():
    # pow2 charges one step per word of its result, so huge shifts
    # diverge instead of allocating
    tree = M.Comp(M.Pow2(), (M.Const(1 << 30),))
    assert not M.eval_bounded(M.encode(tree), [], 10_000).converged


# -- the node table: equality, immutability, deep trees ----------------------


def test_node_repr_and_keywords_match_the_field_names():
    tree = M.Apply(M.Mu(M.Query(M.Const(7))), (M.PrimRec(M.Add(), M.UnpairL()),))
    assert repr(tree) == "Apply(func=Mu(pred=Query(pos=Const(value=7))), args=(PrimRec(base=Add(), step=UnpairL()),))"
    assert repr(M.Comp(M.Proj(1), ())) == "Comp(func=Proj(index=1), args=())"
    assert M.Comp(func=M.Succ(), args=(M.Proj(index=0),)) == M.Comp(M.Succ(), (M.Proj(0),))
    assert tree.args[0].step == M.UnpairL() and tree.func.pred.pos.value == 7
    with pytest.raises(TypeError):
        M.Const()
    with pytest.raises(TypeError):
        M.Mu(M.Succ(), pos=M.Succ())


def test_nodes_of_different_kinds_with_equal_fields_are_unequal():
    pairs = [
        (M.Const(3), M.Proj(3)),
        (M.Succ(), M.Add()),
        (M.Mu(M.Const(0)), M.Query(M.Const(0))),
        (M.Comp(M.Succ(), (M.Proj(0),)), M.Apply(M.Succ(), (M.Proj(0),))),
        (M.Comp(M.Const(1), (M.Mu(M.Proj(0)),)), M.Comp(M.Const(1), (M.Query(M.Proj(0)),))),
    ]
    for a, b in pairs:
        assert a != b and not a == b
    assert M.Const(3) != 3
    assert len({M.Comp(M.Succ(), (M.Proj(0),)), M.Comp(M.Succ(), (M.Proj(0),))}) == 1


def test_setting_an_attribute_on_a_node_raises():
    node = M.Comp(M.Succ(), (M.Const(4),))
    with pytest.raises(AttributeError):
        node.func = M.Add()
    with pytest.raises(AttributeError):
        node.extra = 1
    with pytest.raises(AttributeError):
        del node.args
    assert node == M.Comp(M.Succ(), (M.Const(4),))


@given(_shortcut_trees)
@settings(max_examples=200, deadline=None)
def test_random_trees_round_trip(tree):
    assert M.decode(M.encode(tree)) == tree


@given(_shortcut_trees, _shortcut_trees, st.lists(_shortcut_trees, max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_a_spliced_code_encodes_as_the_tree_it_codes(inner, func, args, data):
    at = data.draw(st.integers(0, len(args)), label="at")
    code = M.encode(inner)
    spliced = M.Comp(func, (*args[:at], M.Splice(code), *args[at:]))
    plain = M.Comp(func, (*args[:at], inner, *args[at:]))
    assert M.encode(spliced) == M.encode(plain)
    assert M.encode(M.PrimRec(M.Splice(code), M.Splice(code))) == M.encode(M.PrimRec(inner, inner))
    assert M.encode(M.Splice(code)) == code


def test_only_encode_takes_a_splice():
    spliced = M.Comp(M.Succ(), (M.Splice(M.encode(M.Proj(0))),))
    for walk in (M.is_total_tier, M.arity_bound, M.disassemble, M._compile, hash):
        with pytest.raises(TypeError, match="not a program node"):
            walk(spliced)
    for leaf in (5, "x", None):
        with pytest.raises(TypeError, match="not a program node"):
            M.encode(M.Comp(M.Succ(), (leaf,)))
    with pytest.raises(TypeError, match="not a program node"):
        M.encode(7)


_DEEP = 10_000
_LISTED = 2_000  # past the default recursion limit, with a listing of a few MB
_CHAINS = {
    # wrap, repr opening and closing per level, nodes per level, total tier, arity bound
    "mu": (M.Mu, "Mu(pred=", ")", 1, False, 0),
    "query": (M.Query, "Query(pos=", ")", 1, False, 1),
    "comp": (lambda t: M.Comp(M.Succ(), (t,)), "Comp(func=Succ(), args=(", ",))", 2, True, 1),
}


def _chain(wrap, depth):
    tree = M.Proj(0)
    for _ in range(depth):
        tree = wrap(tree)
    return tree


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_deep_trees_go_through_every_walk(name):
    wrap, opening, closing, nodes, total, arity = _CHAINS[name]
    tree, twin = _chain(wrap, _DEEP), _chain(wrap, _DEEP)
    code = M.encode(tree)
    assert M.decode(code) == tree == twin and hash(tree) == hash(twin) == hash(M.decode(code))
    assert tree != _chain(wrap, _DEEP - 1)
    assert M.is_total_tier(code) is total and M.arity_bound(code) == arity
    # a listing indents each level, so its size is quadratic in the depth
    listing = M.disassemble(_chain(wrap, _LISTED)).splitlines()
    assert len(listing) == nodes * _LISTED + 1 and listing[-1] == "  " * _LISTED + "proj 0"
    assert repr(tree) == opening * _DEEP + "Proj(index=0)" + closing * _DEEP
    assert M._compile(tree)[1:] == (_DEEP + 1, total)
    with pytest.raises(M.ProgramDepthError):
        M.eval_bounded(code, [2], 10**6)


# -- the nesting limit ----------------------------------------------------------


def _outcome(code, args, budget):
    try:
        return M.eval_bounded(code, args, budget)
    except M.ProgramDepthError:
        return "too deep"


def _in_nested_frames(depth, call):
    return call() if depth == 0 else _in_nested_frames(depth - 1, call)


def _generic_comp(t):
    return M.Comp(M.Comp(M.Succ(), (M.Proj(0),)), (t,))


_SELF_APPLY = M.encode(M.Apply(M.Proj(0), (M.Proj(0),)))


@pytest.mark.parametrize(
    "code,args,budget,expected",
    [
        # a chain of Comps of Succ takes two Python frames per level, the
        # Comp's and its argument gather's
        (M.encode(_chain(_CHAINS["comp"][0], M.MAX_NESTING - 1)), [2], 10**6, M.Outcome(M.MAX_NESTING + 1, 2 * M.MAX_NESTING - 1)),
        (M.encode(_chain(_CHAINS["comp"][0], M.MAX_NESTING)), [2], 10**6, "too deep"),
        # so does a chain of Comps whose function is itself a Comp, two
        # levels high
        (M.encode(_chain(_generic_comp, M.MAX_NESTING - 2)), [2], 10**6, M.Outcome(M.MAX_NESTING, 4 * M.MAX_NESTING - 7)),
        (M.encode(_chain(_generic_comp, M.MAX_NESTING - 1)), [2], 10**6, "too deep"),
        (_SELF_APPLY, [_SELF_APPLY], 300, M.DIVERGED),
        (_SELF_APPLY, [_SELF_APPLY], 10**4, "too deep"),
        (_SELF_APPLY, [_SELF_APPLY], 10**6, "too deep"),
    ],
    ids=["chain-at-limit", "chain-past-limit", "generic-at-limit", "generic-past-limit", "self-apply-300", "self-apply-10^4", "self-apply-10^6"],
)
def test_the_nesting_limit_does_not_depend_on_the_callers_stack(code, args, budget, expected):
    assert _outcome(code, args, budget) == expected
    assert _in_nested_frames(300, lambda: _outcome(code, args, budget)) == expected


def test_program_depth_error_is_a_value_error():
    assert issubclass(M.ProgramDepthError, ValueError)


@pytest.mark.parametrize("budget", [-1, -3])
def test_negative_budgets_raise_everywhere(budget):
    code = M.encode(M.Proj(0))
    for run in (M.we_bounded, M.we_enumeration, lambda e, b: M.eval_bounded(e, [0], b)):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            run(code, budget)
    with pytest.raises(ValueError):
        M.we_bounded(diverge_code(), budget)


# -- the run loop: one compiled entry and one _Fuel across many inputs ---------

_RUN_ERRORS = (M.TotalBudgetExceededError, M.NotTotalTierError, M.ProgramDepthError)


def _collect(items):
    """The items up to the first run error, and that error's type (or None)."""
    out = []
    try:
        for item in items:
            out.append(item)
    except _RUN_ERRORS as err:
        return out, type(err)
    return out, None


def _per_input(call, inputs):
    """call(args) for each input in turn, up to the first run error."""
    return _collect(call(args) for args in inputs)


# counts rise, fall and repeat with the trailing arguments, so PrimRec resume
# points carry across the runs of one loop
_run_inputs = st.lists(
    st.tuples(st.integers(0, 6), st.lists(st.sampled_from([0, 1, 3, 64, 2**64]), max_size=2)).map(
        lambda t: (t[0], *t[1])
    ),
    max_size=8,
)


# caps far below _TOTAL_CAP: fuel bounds the size of the values a run builds
@given(st.one_of(_primrec_trees, _word_trees), _run_inputs, st.sampled_from([1, 64, 100, 300, _RESUME_CAP]))
@example(_add_rest, [(1, 5), (4, 5), (2, 5), (20, 5), (21, 5), (3, 5)], 64)
@example(M.Comp(M.Pow2(), (M.Proj(0),)), [(3,), (2**64,), (5,)], _RESUME_CAP)
@settings(max_examples=150, deadline=None)
def test_total_run_loop_matches_per_input_calls(tree, inputs, max_budget):
    code = M.encode(tree)
    expected = _per_input(lambda args: M.eval_total_steps(code, args, max_budget), inputs)
    # one total-tier run after another, PrimRec resume points carried across
    # them, matches the tree-walking reference at the budget each is made at
    budget = max(64, 1 << (max_budget - 1).bit_length())
    values, error = expected
    for args, (value, steps) in zip(inputs, values):
        assert _ref_outcome(tree, args, budget) == M.Outcome(value, steps), args
    if error is not None:
        assert error is M.TotalBudgetExceededError
        assert _ref_outcome(tree, inputs[len(values)], budget) == M.DIVERGED


@pytest.mark.parametrize(
    "tree,error",
    [(M.Mu(M.Proj(0)), M.NotTotalTierError), (_chain(_CHAINS["comp"][0], M.MAX_NESTING), M.ProgramDepthError)],
    ids=["partial", "too-deep"],
)
def test_total_run_loop_raises_what_the_first_input_raises(tree, error):
    code = M.encode(tree)
    # the code is looked up and its tier checked on every call, from the first
    for args in [(1,), (2,)]:
        with pytest.raises(error):
            M.eval_total_steps(code, args)


_arg_tuples = st.lists(st.lists(st.integers(0, 6), max_size=3).map(tuple), max_size=6)


@given(_shortcut_trees, _arg_tuples, st.one_of(st.none(), st.text(alphabet="01", max_size=6)), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_partial_run_loop_matches_per_input_runs(tree, inputs, oracle, budget):
    compiled = M._compiled(M.encode(tree))
    expected = _per_input(lambda args: M._exec(compiled, args, budget, oracle), inputs)
    assert _collect(M.Outcome(*r) for r in M._runs(compiled, inputs, budget, oracle)) == expected
    values, error = expected
    assert error is None
    for args, outcome in zip(inputs, values):
        assert outcome == _ref_outcome(tree, args, budget, oracle), args


def test_run_loop_re_arms_the_nesting_after_a_diverged_apply():
    # Input 0 applies a diverger 248 levels high, so the run is 250 levels
    # deep, the limit, when it diverges.  Input 1 applies Succ: from a nesting
    # left at 250 its Apply would pass the limit.
    deep = M.ALWAYS_DIVERGE
    for _ in range(246):
        deep = M.Comp(M.Succ(), (deep,))
    diverger = M.encode(deep)
    assert M._compiled(diverger)[1] == 248
    compiled = M._compiled(M.encode(M.Apply(M.Proj(0), (M.Proj(1),))))
    inputs = [(diverger, 7), (M.encode(M.Succ()), 7), (diverger, 1), (M.encode(M.Succ()), 9)]
    runs = [M.Outcome(*r) for r in M._runs(compiled, inputs, 10**4, None)]
    assert [r.value for r in runs] == [None, 8, None, 10]
    assert runs == [M._exec(compiled, args, 10**4, None) for args in inputs]


@pytest.mark.parametrize("code", [M.encode(M.Query(M.Proj(0))), pg.enumerate_oracle_ones_code()], ids=["query", "ones"])
def test_an_oracle_run_loop_matches_per_input_runs(code):
    compiled = M._compiled(code)
    inputs = [(n,) for n in range(6)]
    for oracle in (None, "", "01", "0110", "111"):
        runs = [M.Outcome(*r) for r in M._runs(compiled, inputs, 200, oracle)]
        assert runs == [M._exec(compiled, args, 200, oracle) for args in inputs]
        assert runs == [_ref_outcome(M.decode(code), args, 200, oracle) for args in inputs]
