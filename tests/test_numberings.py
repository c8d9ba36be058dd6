import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canimm import machine as M
from canimm import numberings as nb
from canimm import programs as pg
from canimm.finitesets import FiniteSet

from reference import diverge_code, min_value


def _stage_approx(e, i, budget):
    """D_{e,s}, as the marker construction reads it: the coded set if e
    converges on i within the budget, else the empty set."""
    r = M.eval_bounded(e, (i,), budget)
    return FiniteSet(r.value if r.converged else 0)


def test_stage_approx_examples():
    assert _stage_approx(diverge_code(), 3, 10_000).is_empty
    assert _stage_approx(pg.identity_code(), 5, 1000).elements == (0, 2)
    assert _stage_approx(pg.identity_code(), 5, 0).is_empty


def test_stage_approx_stabilizes_for_total_codes(pool):
    for numbering in pool:
        for i in (0, 3, 9):
            settle = M.eval_bounded(numbering.rule, (i,), 50_000)
            assert settle.converged
            steps, value = settle.steps, numbering.value(i)
            assert settle.value == value.code
            for budget in (steps, steps + 1, steps * 3 + 10):
                assert _stage_approx(numbering.rule, i, budget).code == value.code
            if steps > 0:
                assert _stage_approx(numbering.rule, i, steps - 1).is_empty


def test_registry_ids_and_duplicate_rules():
    reg = nb.Registry()
    first = reg.register(pg.identity_code(), surjective=True)
    singleton = reg.register(nb.singleton_rule_code())
    again = reg.register(pg.identity_code())
    assert (first.id, singleton.id, again.id) == (0, 1, 2)
    assert singleton.value(4).elements == (4,)
    # same rule, distinct ids, identical extensions
    for i in range(10):
        assert first.value(i).code == again.value(i).code


def test_registry_rejects_partial_rules():
    reg = nb.Registry()
    with pytest.raises(nb.NotTotalTierError):
        reg.register(diverge_code())


def test_registry_serialization_roundtrip(pool):
    text = pool.serialize()
    reloaded = nb.Registry.deserialize(text)
    assert reloaded.codes() == pool.codes()
    assert [n.surjective for n in reloaded] == [n.surjective for n in pool]
    assert [n.label for n in reloaded] == [n.label for n in pool]


def test_registry_reads_hex_rules_and_refuses_other_atoms():
    reloaded = nb.Registry.deserialize(f"0\t{pg.identity_code():#x}\t1\tstandard\n")
    assert reloaded.codes() == [pg.identity_code()]
    # a hand-written pool need not be in the codec's form: no byte-exact round trip
    code = pg.identity_code()
    for rule in (f"00{code}", f"0x{code:X}", f"0x00{code:x}"):
        assert nb.Registry.deserialize(f"0\t{rule}\t1\tx\n").codes() == [code]
    for rule in ("[5]", "0:1", "five", "", "0x", "7" * 5000):
        with pytest.raises(ValueError):
            nb.Registry.deserialize(f"0\t{rule}\t1\tx\n")
    # the surjective flag is 0 or 1, as serialize writes it
    assert [n.surjective for n in nb.Registry.deserialize(f"0\t{code}\t0\ta\n1\t{code}\t1\tb\n").entries] == [False, True]
    for flag in ("7", "-3", "2", "01", "+1", "-0", "", "true", "1.0", " 1"):
        with pytest.raises(ValueError, match="surjective flag"):
            nb.Registry.deserialize(f"0\t{code}\t{flag}\tx\n")


def test_registry_ids_are_line_positions_and_lines_have_at_most_four_fields():
    code = pg.identity_code()
    # blank lines hold no position; serialize writes ids 0, 1, ...
    reloaded = nb.Registry.deserialize(f"\n0\t{code}\t1\ta\n \n1\t{code}\t0\n")
    assert [(n.id, n.label) for n in reloaded] == [(0, "a"), (1, "")]
    with pytest.raises(ValueError, match="line 1 has id '7', not its position 0 among the pool lines"):
        nb.Registry.deserialize(f"7\t{code}\t1\ta\n3\t{code}\t1\tb\n")
    with pytest.raises(ValueError, match="line 2 has id '0', not its position 1"):
        nb.Registry.deserialize(f"0\t{code}\t1\ta\n0\t{code}\t1\tb\n")
    for number in ("xyz", "00", "-0", "+0", " 0", "", "0x0"):
        with pytest.raises(ValueError, match="not its position 0"):
            nb.Registry.deserialize(f"{number}\t{code}\t1\ta\n")
    with pytest.raises(ValueError, match="line 1 has 5 fields: a pool line has at most"):
        nb.Registry.deserialize(f"0\t{code}\t0\tfoo\tbar\n")


# every character `str.splitlines` breaks a line on
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@given(st.lists(st.text(st.characters() | st.sampled_from("\t" + _LINE_BREAKS), max_size=6), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_registry_refuses_the_labels_a_pool_line_cannot_hold_and_round_trips_the_rest(labels):
    reg = nb.Registry()
    for label in labels:
        if any(c in label for c in "\t" + _LINE_BREAKS):
            with pytest.raises(ValueError, match="holds a tab or a line break"):
                reg.register(pg.identity_code(), label=label)
        else:
            reg.register(pg.identity_code(), label=label)
    reloaded = nb.Registry.deserialize(reg.serialize())
    assert [(n.id, n.label) for n in reloaded] == [(n.id, n.label) for n in reg]


def test_every_pool_error_names_its_line():
    code, first = pg.identity_code(), f"0\t{pg.identity_code()}\t1\ta\n"
    for bad, message in [
        (f"1\t{code}\t7\tx", "line 2: surjective flag '7' is neither 0 nor 1"),
        ("1\tfive\t0\tx", "line 2: numbering rule 'five' is not an integer"),
        (f"1\t{'7' * 5000}\t0\tx", "line 2: Exceeds the limit"),
        (f"1\t{diverge_code()}\t0\tx", f"line 2: numbering rule {diverge_code()} is not total-tier"),
        ("1\t5", "line 2 has too few fields"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            nb.Registry.deserialize(first + bad + "\n")


def test_adversarial_numbering_inequalities():
    adv = nb.Registry().register(nb.adversarial_rule_code(pg.identity_code()), surjective=True)
    for i in range(1, 80, 2):
        value = adv.value(i)
        assert min_value(value) > i
        assert len(value) > i
    for m in range(40):
        assert adv.value(2 * m).code == m  # standard numbering interleaved


def test_adversarial_numbering_block_example():
    adv = nb.Registry().register(nb.adversarial_rule_code(pg.identity_code()), surjective=True)
    # blocks are consecutive: sizes 2, 4, 6, 8 from 3 on
    assert adv.value(1).elements == (3, 4)
    assert adv.value(3).elements == (5, 6, 7, 8)
    assert adv.value(7).elements == tuple(range(15, 23))


def test_adversarial_numbering_constant_zero_modulus():
    adv = nb.Registry().register(nb.adversarial_rule_code(pg.zero_code()), surjective=True)
    for i in (1, 5, 11):
        value = adv.value(i)
        assert len(value) >= 1 and min_value(value) > i


def test_witness_numbering_from_table():
    table = {0: 0, 1: 0b101, 7: 0b1000}
    wit = nb.Registry().register(nb.witness_rule_from_table(table))
    assert wit.value(0).is_empty
    assert wit.value(2).elements == (0, 2)
    assert wit.value(14).elements == (3,)
    assert wit.value(4).is_empty  # absent key decodes to the empty set
    for m in range(12):
        assert wit.value(2 * m + 1).code == m


def test_pool_rules_match_their_closed_forms_on_wide_range(pool):
    # code-level comparisons so the megabit values at i = 1000 stay cheap
    standard, singleton, interval, big, adversarial = pool
    for i in list(range(129)) + [200, 401, 750, 1000]:
        assert standard.value(i).code == i
        assert singleton.value(i).code == 1 << i
        assert interval.value(i).code == ((1 << (i + 1)) - 1) << (i + 1)
        width = 4 * M.pair(i, i) + 4
        assert big.value(i).code == (1 << width) - 1
    for i in (201, 401, 751, 999):
        value = adversarial.value(i)
        assert min_value(value) > i and len(value) == i + 1
    for m in (100, 350, 500):
        assert adversarial.value(2 * m).code == m


def test_default_pool_shape(pool):
    labels = [n.label for n in pool]
    assert labels == ["standard", "singleton", "interval", "big-interval", "adversarial-id"]
    assert pool[0].surjective and pool[4].surjective
    assert pool[2].value(3).elements == (4, 5, 6, 7)
    big = pool[3].value(2)
    assert big.elements[0] == 0 and len(big) == 4 * M.pair(2, 2) + 4


@given(table=st.dictionaries(st.integers(0, 12), st.integers(0, 2**70), max_size=6), i=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_witness_rule_values_are_its_table_and_the_standard_numbering(table, i):
    """D(2m) is the set coded table[m] (empty past the table), D(2m+1) the
    set coded m."""
    numbering = nb.Numbering(0, nb.witness_rule_from_table(table))
    assert numbering.value(i).code == (table.get(i // 2, 0) if i % 2 == 0 else i // 2)


# the moduli the adversarial rule is built against, as codes and as Python
_MODULI = {
    "identity": (pg.identity_code, lambda i: i),
    "zero": (pg.zero_code, lambda i: 0),
    "succ": (pg.succ_code, lambda i: i + 1),
    "double": (pg.double_code, lambda i: 2 * i),
}


def _adversarial_block(f, i):
    """The odd-index block of index i by the recurrence: index 1's block
    starts at 3, and each block has f(index) + 1 elements and starts at the
    larger of the previous block's end and its index + 2."""
    end = 0
    for index in range(1, i + 1, 2):
        start = max(end, index + 2)
        end = start + f(index) + 1
    return ((1 << (f(i) + 1)) - 1) << start


@pytest.mark.parametrize("name", list(_MODULI))
@given(i=st.integers(0, 120))
@settings(max_examples=40, deadline=None)
def test_adversarial_values_follow_the_odd_block_recurrence(name, i):
    code, f = _MODULI[name]
    numbering = nb.Numbering(0, nb.adversarial_rule_code(code()))
    assert numbering.value(i).code == (_adversarial_block(f, i) if i % 2 else i // 2)
