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
    def one(cls) -> "DyadicRational":
        return cls(1, 0)

    @classmethod
    def power(cls, n: int) -> "DyadicRational":
        """2^{-n}."""
        return cls.make(1, n)

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.exponent, other.exponent)
        num = (self.numerator << (e - self.exponent)) + (other.numerator << (e - other.exponent))
        return DyadicRational.make(num, e)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.exponent, other.exponent)
        a = self.numerator << (e - self.exponent)
        b = other.numerator << (e - other.exponent)
        if a < b:
            raise ValueError("subtraction would go negative")
        return DyadicRational.make(a - b, e)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational.make(self.numerator * other.numerator, self.exponent + other.exponent)

    def _cmp_key(self, other: "DyadicRational") -> tuple[int, int]:
        e = max(self.exponent, other.exponent)
        return self.numerator << (e - self.exponent), other.numerator << (e - other.exponent)

    def __le__(self, other: "DyadicRational") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __lt__(self, other: "DyadicRational") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def serialize(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.exponent}"

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        if "/" not in text:
            return cls.make(int(text), 0)
        num, denom = text.split("/")
        if not denom.startswith("2^"):
            raise ValueError(f"bad dyadic literal {text!r}")
        return cls.make(int(num), int(denom[2:]))


def block(i: int) -> FiniteSet:
    """The i-th block F_i = [i(i-1)/2, i(i-1)/2 + i); defined for i >= 1."""
    if i < 1:
        raise ValueError("blocks are indexed from 1")
    start = i * (i - 1) // 2
    return FiniteSet(((1 << i) - 1) << start)


def block_span(m: int) -> int:
    """Number of points covered by F_1, ..., F_m."""
    return m * (m + 1) // 2


def in_U_n(prefix: SetPrefix, n: int, m: int) -> tuple[bool, int | None]:
    """Truncated membership: is some block F_i with n < i <= m disjoint from
    the prefix?  Returns (answer, least witness index or None).

    The prefix must cover block(m) so the answer is decided by the bits given.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if prefix.length < block_span(m):
        raise ValueError(f"prefix of length {prefix.length} does not cover block {m}")
    for i in range(n + 1, m + 1):
        if prefix.mask & block(i).code == 0:
            return True, i
    return False, None


def measure_U_trunc(n: int, m: int) -> DyadicRational:
    """Exact measure of the truncation of U_n to witnesses in (n, m]."""
    if m <= n:
        raise ValueError("need m > n")
    prod = DyadicRational.one()
    for i in range(n + 1, m + 1):
        prod = prod * (DyadicRational.one() - DyadicRational.power(i))
    return DyadicRational.one() - prod


def check_schnorr_bound(n: int, m: int) -> bool:
    """Exact comparison measure_U_trunc(n, m) <= 2^{-n}.

    The truncated measures are nondecreasing in m and bounded by the tail
    sum of 2^{-i} over i > n, which telescopes to 2^{-n}; the comparison
    here is exact, not a float estimate.
    """
    return measure_U_trunc(n, m) <= DyadicRational.power(n)


def brute_force_measure(n: int, m: int) -> DyadicRational:
    """Independent oracle: count all prefixes over the blocks up to m.

    Enumerates every assignment of the block_span(m) covered bits and counts
    those with an empty block in (n, m].  Exponential; meant for small m.
    """
    if m <= n:
        raise ValueError("need m > n")
    span = block_span(m)
    masks = [block(i).code for i in range(n + 1, m + 1)]
    hits = 0
    for assignment in range(1 << span):
        for bm in masks:
            if assignment & bm == 0:
                hits += 1
                break
    return DyadicRational.make(hits, span)
