"""Block family, open-set truncations, and exact dyadic measures.

The blocks F_1, F_2, ... are consecutive intervals with |F_i| = i starting
at 0, so F_i = [i(i-1)/2, i(i-1)/2 + i).  U_n collects the sets missing
some block with index above n; only finite truncations over i in (n, M]
are exposed, with their exact Lebesgue measure

    1 - prod_{i=n+1}^{M} (1 - 2^{-i})

computed in dyadic arithmetic (the block events are independent because
the blocks are disjoint).  The truncated measures increase with M and stay
strictly below the 2^{-n} budget the test definition requires; the exact
value is surfaced rather than rounded to that bound.
"""

from __future__ import annotations

from .finitesets import FiniteSet, Record, SetPrefix


class DyadicRational(Record):
    """Exact k / 2^m with k >= 0, kept in lowest terms (odd k, or zero)."""

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int):
        if numerator < 0 or exponent < 0:
            raise ValueError("dyadic rationals here are nonnegative")
        if numerator and exponent and numerator % 2 == 0:
            raise ValueError("not in canonical form")
        if numerator == 0 and exponent != 0:
            raise ValueError("zero has exponent 0")
        self._fill(numerator, exponent)

    @classmethod
    def make(cls, numerator: int, exponent: int) -> "DyadicRational":
        if numerator == 0:
            return cls(0, 0)
        while exponent > 0 and numerator % 2 == 0:
            numerator //= 2
            exponent -= 1
        return cls(numerator, exponent)

    @classmethod
    def power(cls, n: int) -> "DyadicRational":
        """2^{-n}."""
        return cls.make(1, n)

    def __le__(self, other: "DyadicRational") -> bool:
        e = max(self.exponent, other.exponent)
        return self.numerator << (e - self.exponent) <= other.numerator << (e - other.exponent)

    def serialize(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.exponent}"


def block(i: int) -> FiniteSet:
    """The i-th block F_i = [i(i-1)/2, i(i-1)/2 + i); defined for i >= 1."""
    if i < 1:
        raise ValueError("blocks are indexed from 1")
    start = i * (i - 1) // 2
    return FiniteSet(((1 << i) - 1) << start)


def block_span(m: int) -> int:
    """Number of points covered by F_1, ..., F_m."""
    return m * (m + 1) // 2


def disjoint_blocks(prefix: SetPrefix, m: int) -> list[int]:
    """The indices i <= m, in increasing order, of the blocks F_i disjoint
    from the prefix, found in one pass over its bits.

    The prefix must cover block(m) so the answer is decided by the bits given.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if prefix.length < block_span(m):
        raise ValueError(f"prefix of length {prefix.length} does not cover block {m}")
    bits = prefix.bits
    return [i for i in range(1, m + 1) if bits.find("1", block_span(i - 1), block_span(i)) < 0]


def in_U_n(prefix: SetPrefix, n: int, m: int) -> tuple[bool, int | None]:
    """Truncated membership: is some block F_i with n < i <= m disjoint from
    the prefix?  Returns (answer, least witness index or None), read from
    `disjoint_blocks(prefix, m)`."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    witness = next((i for i in disjoint_blocks(prefix, m) if i > n), None)
    return witness is not None, witness


# Size guard of measure_U_trunc: its largest exponent, block_span(m) -
# block_span(n).  The numerator has about as many bits, and each of the
# m - n loop steps shifts it once: unguarded, m = 3000 at n = 0 takes 0.6 s
# on a 2-vCPU VM, for a result whose decimal form no trace can hold.
MAX_MEASURE_EXPONENT = 1 << 18


def measure_U_trunc(n: int, m: int) -> DyadicRational:
    """Exact measure of the truncation of U_n to witnesses in (n, m]; raises
    ValueError before computing one whose exponent passes MAX_MEASURE_EXPONENT."""
    if n < 0:
        raise ValueError("need n >= 0")
    if m <= n:
        raise ValueError("need m > n")
    exponent = block_span(m) - block_span(n)
    if exponent > MAX_MEASURE_EXPONENT:
        raise ValueError(f"m = {m} would give a measure with denominator 2^{exponent}, past 2^{MAX_MEASURE_EXPONENT}")
    # prod (1 - 2^-i) = prod (2^i - 1) / 2^exponent; the numerator is odd, so
    # 1 minus it, (2^exponent - numerator) / 2^exponent, is in lowest terms
    numerator = 1
    for i in range(n + 1, m + 1):
        numerator = (numerator << i) - numerator
    return DyadicRational((1 << exponent) - numerator, exponent)
