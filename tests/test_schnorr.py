from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canimm.finitesets import SetPrefix, code_of
from canimm.schnorr import (
    DyadicRational,
    block_span,
    in_U_n,
    measure_U_trunc,
)

from reference import block, brute_force_measure, dyadic, min_value

dyadics = st.builds(
    dyadic,
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=0, max_value=24),
)


def test_block_examples():
    assert block(1).elements == (0,)
    assert block(2).elements == (1, 2)
    assert block(3).elements == (3, 4, 5)
    with pytest.raises(ValueError):
        block(0)


@pytest.mark.parametrize("m", [1, 2, 5, 17, 100, 1000])
def test_blocks_partition_initial_segment(m):
    union = 0
    for i in range(1, m + 1):
        code = block(i).code
        assert union & code == 0
        union |= code
    assert union == (1 << block_span(m)) - 1


def _frac(d: DyadicRational) -> Fraction:
    return Fraction(d.numerator, 1 << d.exponent)


@given(dyadics, dyadics)
def test_dyadic_order_matches_the_fractions(a, b):
    assert (a <= b) == (_frac(a) <= _frac(b))


@given(dyadics)
def test_dyadic_canonical_form(a):
    assert a.numerator == 0 or a.exponent == 0 or a.numerator % 2 == 1


def test_dyadic_serialization():
    assert dyadic(4, 4).serialize() == "1/2^2"
    assert dyadic(5, 3).serialize() == "5/2^3"
    assert dyadic(1, 0).serialize() == "1"


def test_measure_examples():
    assert measure_U_trunc(1, 2).serialize() == "1/2^2"
    assert measure_U_trunc(0, 2).serialize() == "5/2^3"
    assert measure_U_trunc(1, 3).serialize() == "11/2^5"


def test_measure_rejects_empty_truncation():
    with pytest.raises(ValueError):
        measure_U_trunc(2, 2)


def test_measure_monotone_in_horizon_and_below_budget():
    for n in (0, 1, 3):
        previous = dyadic(0, 0)
        for m in range(n + 1, n + 24):
            value = measure_U_trunc(n, m)
            assert previous <= value
            assert not DyadicRational(1, n) <= value  # strictly below the budget
            previous = value


def test_bound_examples():
    assert measure_U_trunc(1, 2) <= DyadicRational(1, 1)
    assert measure_U_trunc(0, 1) <= DyadicRational(1, 0)
    assert measure_U_trunc(1, 64) <= DyadicRational(1, 1)


def test_measure_agrees_with_brute_force_cylinders():
    for n in range(0, 5):
        for m in range(n + 1, 6):
            assert brute_force_measure(n, m) == measure_U_trunc(n, m)


def _folded_measure(n, m):
    """Reference: 1 minus the product of the factors 1 - 2^-i, in exact fractions."""
    prod = Fraction(1)
    for i in range(n + 1, m + 1):
        prod *= 1 - Fraction(1, 1 << i)
    return 1 - prod


@given(st.integers(0, 60), st.integers(1, 80))
@settings(max_examples=150, deadline=None)
def test_closed_form_measure_matches_the_dyadic_fold(n, width):
    m = n + width
    value = measure_U_trunc(n, m)
    folded = _folded_measure(n, m)
    # both are in lowest terms, so equal fractions have equal fields
    assert (value.numerator, 1 << value.exponent) == (folded.numerator, folded.denominator)


def test_measure_rejects_negative_n():
    with pytest.raises(ValueError, match="need n >= 0"):
        measure_U_trunc(-1, 3)


def test_in_U_n_examples():
    all_ones = SetPrefix.from_bits("1" * block_span(6))
    assert in_U_n(all_ones, 0, 6) == (False, None)
    all_zeros = SetPrefix.from_bits("0" * block_span(6))
    for n in range(5):
        assert in_U_n(all_zeros, n, 6) == (True, n + 1)
    with pytest.raises(ValueError):
        in_U_n(SetPrefix.from_bits("0"), 1, 4)  # prefix too short


def test_in_U_n_least_witness():
    # fill every block except the fourth
    mask = 0
    for i in (1, 2, 3, 5, 6):
        mask |= 1 << min_value(block(i))
    prefix = SetPrefix(mask, block_span(6))
    assert in_U_n(prefix, 0, 6) == (True, 4)
    assert in_U_n(prefix, 4, 6) == (False, None)


def _in_U_n_per_block(prefix, n, m):
    """in_U_n as a loop over the blocks, ANDing the mask with each in turn."""
    return next(((True, i) for i in range(n + 1, m + 1) if prefix.mask & block(i).code == 0), (False, None))


def _check_schnorr_per_block(prefix, missed):
    """The lines and failure flag of `check schnorr`, each U_n answered block by block."""
    top = 0
    while block_span(top + 1) <= prefix.length:
        top += 1
    covered = [i for i in missed if i <= top]
    if not covered:
        return ["schnorr\tinconclusive\tno covered missed blocks\n"], False
    m = max(covered)
    lines, found_fail = [], False
    for n in range(min(len(missed), m)):
        ok, witness = _in_U_n_per_block(prefix, n, m)
        found_fail |= not ok
        lines.append(f"schnorr\tU_{n}\t{'member' if ok else 'MISSING'}\twitness\t{witness or 0}\n")
    return lines, found_fail


# sparse members, so that some blocks stay disjoint from the prefix; missed
# lists with indices past the prefix's blocks, repeats and 0
_sparse_prefixes = st.integers(0, block_span(11)).flatmap(
    lambda length: st.sets(st.integers(0, max(0, length - 1)), max_size=12).map(
        lambda members: SetPrefix(code_of(x for x in members if x < length), length)
    )
)


@settings(max_examples=200, deadline=None)
@given(_sparse_prefixes, st.lists(st.integers(0, 14), max_size=8))
def test_schnorr_check_matches_a_per_block_reference(prefix, missed):
    from canimm import checks
    from canimm.records import ParsedTrace

    parsed = ParsedTrace("generic", {"missed_blocks": missed}, [], {"R": prefix})
    if 0 in missed:  # blocks are numbered from 1
        with pytest.raises(ValueError, match="missed_blocks"):
            checks._check_schnorr(parsed, None, None, None)
    else:
        assert checks._check_schnorr(parsed, None, None, None) == _check_schnorr_per_block(prefix, missed)
    for m in range(1, 12):
        if block_span(m) <= prefix.length:
            for n in range(m + 1):
                assert in_U_n(prefix, n, m) == _in_U_n_per_block(prefix, n, m)
