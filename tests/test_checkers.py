import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canimm import checkers as ck
from canimm import command
from canimm import numberings as nb
from canimm import programs as pg
from canimm.finitesets import FiniteSet, SetPrefix
from canimm.machine import eval_bounded, eval_total

from reference import domain_program


def test_empty_prefix_passes_identity(pool):
    verdict = ck.check_canonical_immunity(SetPrefix(0, 40), pg.zero_code(), list(pool), 8)
    assert verdict.status == ck.PASS


def test_all_ones_prefix_fails_on_intervals(pool):
    prefix = SetPrefix((1 << 200) - 1, 200)
    verdict = ck.check_canonical_immunity(prefix, pg.identity_code(), list(pool), 16)
    assert verdict.failed
    # the interval rule has i+1 elements with min i+1: oversized at every index
    interval_id = next(n.id for n in pool if n.label == "interval")
    hit_indices = {i for (nid, i, _, _) in verdict.violations if nid == interval_id}
    assert hit_indices == set(range(2, 17))
    for violation in verdict.violations:
        assert ck.reverify_immunity_violation(prefix, violation, list(pool), pg.identity_code())


def test_reverify_refuses_a_violation_of_a_numbering_outside_the_pool(pool):
    prefix = SetPrefix((1 << 40) - 1, 40)
    singleton_id = next(n.id for n in pool if n.label == "singleton")
    # D(1) = {1} of the singleton rule outgrows the zero modulus inside the prefix
    assert ck.reverify_immunity_violation(prefix, (singleton_id, 1, 2, 0), list(pool), pg.zero_code())
    assert ck.reverify_immunity_violation(prefix, (99, 1, 2, 0), list(pool), pg.zero_code()) is False


def test_indices_beyond_prefix_are_skipped_on_record(pool):
    prefix = SetPrefix(0b10, 2)
    verdict = ck.check_canonical_immunity(prefix, pg.identity_code(), list(pool), 6)
    skipped = dict(verdict.horizon)["skipped"]
    assert skipped  # interval and block values reach past two bits
    assert verdict.status == ck.PASS


def test_verdicts_are_reproducible(pool):
    prefix = SetPrefix((1 << 100) - 1, 100)
    one = ck.check_canonical_immunity(prefix, pg.identity_code(), list(pool), 9)
    two = ck.check_canonical_immunity(prefix, pg.identity_code(), list(pool), 9)
    assert one == two


def test_refute_domination_rank_conventions():
    principal = [0, 1, 2, 3, 4, 5]
    double = pg.double_code()
    dominated = ck.refute_domination(principal, double, range(1, 7))
    assert dominated.status == ck.PASS
    exceeds = ck.refute_domination([9, 10], pg.zero_code(), range(1, 3))
    assert exceeds.failed and exceeds.violations[0] == (1, 9, 0)


def test_refute_domination_inconclusive_beyond_members():
    verdict = ck.refute_domination([5, 6], pg.zero_code(), range(1, 9))
    assert verdict.status == ck.INCONCLUSIVE


def test_effective_immunity_scan():
    # all bounded domains of tiny codes are empty: pass at horizon
    prefix = SetPrefix.from_members(range(10))
    verdict = ck.check_effective_immunity(prefix, pg.zero_code(), range(8), 64)
    assert verdict.status == ck.PASS


def test_effective_immunity_finds_crafted_violation():
    e = domain_program([1, 2, 3])
    prefix = SetPrefix.from_members(range(8))
    budget = 512
    verdict = ck.check_effective_immunity(prefix, pg.zero_code(), range(e, e + 1), budget)
    assert verdict.failed
    code, domain, bound = verdict.violations[0]
    assert code == e and bound == 0
    assert FiniteSet(domain).elements == (1, 2, 3)


def test_fail_requires_violations():
    with pytest.raises(ValueError):
        ck.Verdict(ck.FAIL)


# -- both scans against a brute-force reference over Python sets ----------------

# closed forms of the CLI's moduli, so the reference computes no modulus value
# with the machine
_MODULUS_VALUES = {
    "identity": lambda i: i,
    "zero": lambda i: 0,
    "succ": lambda i: i + 1,
    "double": lambda i: 2 * i,
    "cofinal": lambda i: 2 * i + 1,
    "bci": lambda i: 4 * (2 * i * (2 * i + 1) // 2 + i) + 3,
    "twof": lambda i: 2 * (2 * i * (2 * i + 1) // 2 + i),
}


def test_modulus_closed_forms_cover_the_cli_moduli():
    codes = command.modulus_catalog()
    assert set(_MODULUS_VALUES) == set(codes)
    for name, value in _MODULUS_VALUES.items():
        assert [eval_total(codes[name], (i,)) for i in range(13)] == [value(i) for i in range(13)], name


# the default pool's rules, then further singleton, interval and adversarial ones
_RULES = (
    *nb.default_pool().codes(),
    nb.singleton_rule_code(),
    nb.interval_rule_code(),
    *(nb.adversarial_rule_code(code) for code in (pg.zero_code(), pg.succ_code(), pg.double_code())),
)


def _members(code):
    return {x for x in range(code.bit_length()) if code >> x & 1}


@st.composite
def _prefixes(draw, max_length=40):
    n = draw(st.integers(0, max_length))
    full = (1 << n) - 1
    holes = st.sets(st.integers(0, max(n - 1, 0)), max_size=3).map(lambda hs: full & ~sum(1 << h for h in hs))
    return SetPrefix(draw(st.one_of(st.integers(0, full), holes)), n)


@st.composite
def _immunity_scans(draw):
    reg = nb.Registry()
    for rule in draw(st.lists(st.sampled_from(_RULES), min_size=1, max_size=4)):
        reg.register(rule)
    return draw(_prefixes()), draw(st.sampled_from(sorted(_MODULUS_VALUES))), list(reg), draw(st.integers(0, 12))


def _reference_immunity(prefix, modulus, pool, index_bound):
    inside = _members(prefix.mask)
    violations, skipped = [], []
    for pos, numbering in enumerate(pool):
        for i in range(pos, index_bound + 1):
            code = eval_total(numbering.rule, (i,))
            value = _members(code)
            if value and max(value) >= prefix.length:
                skipped.append((numbering.id, i))
            elif value <= inside and len(value) > modulus(i):
                violations.append((numbering.id, i, code, modulus(i)))
    return (ck.FAIL if violations else ck.PASS), tuple(violations), tuple(skipped)


@given(_immunity_scans())
@example((SetPrefix((1 << 40) - 1, 40), "identity", list(nb.default_pool()), 12))
@example((SetPrefix((1 << 30) - 1 - 8, 30), "succ", list(nb.default_pool()), 12))
@settings(max_examples=120, deadline=None)
def test_immunity_scan_matches_the_set_reference(scan):
    prefix, name, pool, index_bound = scan
    h = command.modulus_catalog()[name]
    verdict = ck.check_canonical_immunity(prefix, h, pool, index_bound)
    status, violations, skipped = _reference_immunity(prefix, _MODULUS_VALUES[name], pool, index_bound)
    assert (verdict.status, verdict.violations, verdict.horizon_dict()["skipped"]) == (status, violations, skipped)
    for violation in verdict.violations:
        assert ck.reverify_immunity_violation(prefix, violation, pool, h)


_CODES = st.one_of(
    st.integers(0, 3000),
    st.sampled_from([pg.identity_code(), pg.zero_code(), pg.succ_code(), pg.enumerate_oracle_ones_code()]),
    st.builds(domain_program, st.lists(st.integers(0, 6), min_size=1, max_size=3)),
)


def _reference_effective(prefix, modulus, e_range, budget):
    inside = _members(prefix.mask)
    violations = []
    for e in e_range:
        domain = {n for n in range(budget) if eval_bounded(e, (n,), budget).converged}
        if domain and max(domain) < prefix.length and domain <= inside and len(domain) > modulus(e):
            violations.append((e, sum(1 << n for n in domain), modulus(e)))
    return (ck.FAIL if violations else ck.PASS), tuple(violations)


# a code's modulus value is mostly above any domain this small, so zero is
# drawn more often
_EFFECTIVE_MODULI = st.one_of(st.just("zero"), st.sampled_from(sorted(_MODULUS_VALUES)))


@given(_prefixes(48), _EFFECTIVE_MODULI, _CODES, st.integers(1, 3), st.integers(1, 80))
@example(SetPrefix.from_members(range(8)), "zero", domain_program([1, 2, 3]), 1, 64)
@example(SetPrefix((1 << 40) - 1, 40), "identity", pg.succ_code(), 2, 40)  # codes 34 and 35 halt everywhere
@settings(max_examples=60, deadline=None)
def test_effective_scan_matches_the_set_reference(prefix, name, start, width, budget):
    e_range = range(start, start + width)
    verdict = ck.check_effective_immunity(prefix, command.modulus_catalog()[name], e_range, budget)
    reference = _reference_effective(prefix, _MODULUS_VALUES[name], e_range, budget)
    assert (verdict.status, verdict.violations) == reference
