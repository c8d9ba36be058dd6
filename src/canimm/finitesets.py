"""Finite subsets of the naturals as canonical codes, plus set prefixes.

The canonical code of a finite set F is the integer sum of 2**n over n in F,
so a code doubles as a bitmask and subset tests are single integer ops.
`Record`, the base of the package's record classes, lives here because
this module imports nothing else from the package.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress


class Record:
    """Base of the package's record classes: plain slotted classes, which
    cost next to nothing to define when the package is imported.

    A record lists its fields in `__slots__` and takes them in that order in
    its own `__init__`, which stores them with `_fill`.  The base gives `==`
    between records of one class over the shown fields (every slot not named
    in the class keyword `hidden`), a `Name(field=value, ...)` repr of them,
    a hash of them (a TypeError when a field holds a dict or list) and
    refusal of assignment after construction.  Record classes are not
    subclassed: the base reads the fields from each class's own `__slots__`.
    """

    __slots__ = ()
    _shown: tuple[str, ...]

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._shown = tuple(name for name in cls.__slots__ if name not in hidden)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


def code_of(elements: Iterable[int]) -> int:
    """The canonical code of the elements (repeats allowed).  The bits are
    set in a byte buffer, so the time is linear in the element count plus
    the largest element."""
    members = list(elements)
    if not members:
        return 0
    if min(members) < 0:
        raise ValueError(f"negative element {next(n for n in members if n < 0)}")
    buf = bytearray(max(members) // 8 + 1)
    for n in members:
        buf[n >> 3] |= 1 << (n & 7)
    return int.from_bytes(buf, "little")


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def elements_of(code: int) -> tuple[int, ...]:
    if code < 0:
        raise ValueError("codes are nonnegative")
    count = code.bit_count()
    if count * count < 4 * code.bit_length():
        # few elements: clear the low bits one by one, each step copying the
        # integer; below about 2*sqrt(bits) elements this beats the scan
        out = []
        while code:
            low = code & -code
            out.append(low.bit_length() - 1)
            code ^= low
        return tuple(out)
    # the binary digits lowest first, as bytes 0 and 1, select the positions
    # in one pass over the bits
    bits = bin(code)[:1:-1].encode().translate(_BIT_VALUES)
    return tuple(compress(range(len(bits)), bits))


def free_position(mask: int, start: int) -> int:
    """Least x >= start whose bit is clear in mask."""
    m = mask >> start
    t = (m + 1) & ~m
    return start + t.bit_length() - 1


class FiniteSet(Record):
    """A finite set of naturals, stored as its canonical code."""

    __slots__ = ("code",)

    def __init__(self, code: int):
        self._fill(code)

    @classmethod
    def from_elements(cls, elements: Iterable[int]) -> "FiniteSet":
        return cls(code_of(elements))

    @property
    def elements(self) -> tuple[int, ...]:
        return elements_of(self.code)

    def __contains__(self, x: int) -> bool:
        return x >= 0 and (self.code >> x) & 1 == 1

    def __len__(self) -> int:
        return self.code.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.code == 0

    def max_value(self) -> int:
        """Largest element; undefined (raises) on the empty set."""
        if self.code == 0:
            raise ValueError("max of the empty set is undefined")
        return self.code.bit_length() - 1

    def min_value(self) -> int:
        if self.code == 0:
            raise ValueError("min of the empty set is undefined")
        low = self.code & -self.code
        return low.bit_length() - 1

    def issubset_mask(self, mask: int) -> bool:
        return self.code & ~mask == 0

    def characteristic_string(self) -> str:
        """Binary string of length max+1 with ones exactly on the set.

        The empty set yields the empty string.
        """
        return format(self.code, "b")[::-1] if self.code else ""


def subset_of_string(fs: FiniteSet, sigma: str) -> bool:
    """Whether every element n of fs has sigma[n] == '1'.

    Elements at or beyond len(sigma) make the answer False.
    """
    if fs.code == 0:
        return True
    if fs.max_value() >= len(sigma):
        return False
    return all(sigma[n] == "1" for n in fs.elements)


class SetPrefix(Record):
    """Characteristic prefix of a constructed set: `length` bits of mask."""

    __slots__ = ("mask", "length")

    def __init__(self, mask: int, length: int):
        if length < 0:
            raise ValueError("length must be nonnegative")
        if mask >> length:
            raise ValueError("mask has bits at or beyond length")
        self._fill(mask, length)

    @classmethod
    def from_members(cls, members: Iterable[int], length: int | None = None) -> "SetPrefix":
        code = code_of(members)
        if length is None:
            length = code.bit_length()
        return cls(code, length)

    @classmethod
    def from_bits(cls, bits: str) -> "SetPrefix":
        # int(..., 2) alone would also take "_", "+", "-" and spaces
        if bits.count("0") + bits.count("1") != len(bits):
            raise ValueError(f"bad bit {next(ch for ch in bits if ch not in '01')!r}")
        return cls(int(bits[::-1], 2) if bits else 0, len(bits))

    @property
    def bits(self) -> str:
        return format(self.mask, "b").zfill(self.length)[::-1] if self.length else ""

    def members(self) -> tuple[int, ...]:
        return elements_of(self.mask)
