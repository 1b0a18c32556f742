"""Exact non-negative rationals and their extension with infinity.

Plain values are ``fractions.Fraction`` instances (always in lowest terms
with positive denominator); this module adds validation and printing
helpers plus ``XReal``, the completion of the non-negative rationals with a
top element ``inf``.  ``XReal`` arithmetic follows the complete-lattice
conventions: addition with ``inf`` yields ``inf``, ``inf`` times a positive
value is ``inf``, and ``0 * inf == 0``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]


def rat(value: RatLike) -> Fraction:
    """Build a validated non-negative rational from an int or a Fraction; a
    Fraction is returned as it is, not copied.  Anything else, rational text
    or a float included, raises ``TypeError``: the parser reads text."""
    if isinstance(value, Fraction):
        q = value
    elif isinstance(value, int):
        q = Fraction(value)
    else:
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")
    if q.numerator < 0:
        raise ValueError(f"negative rational not allowed: {q}")
    return q


def format_rat(q: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q`` (lowest terms)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_natural(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator >= 0


class XReal:
    """A non-negative rational or infinity, with 0·inf = 0.

    Instances are immutable; ``XReal.INF`` is the unique infinite value and
    finite values wrap a Fraction.
    """

    __slots__ = ("_fin",)

    INF: "XReal"

    def __init__(self, finite: Fraction | None):
        object.__setattr__(self, "_fin", finite)

    def __setattr__(self, *_):
        raise AttributeError("XReal is immutable")

    @staticmethod
    def of(value: RatLike) -> "XReal":
        return XReal(rat(value))

    @property
    def is_finite(self) -> bool:
        return self._fin is not None

    @property
    def finite(self) -> Fraction:
        if self._fin is None:
            raise ValueError("infinite value has no finite part")
        return self._fin

    def __add__(self, other: "XReal") -> "XReal":
        a, b = self._fin, other._fin
        if a is None or b is None:
            return XReal.INF
        # a zero side gives the other side: most sums of guarded terms add 0
        if not a:
            return other
        if not b:
            return self
        return XReal(a + b)

    def __mul__(self, other: "XReal") -> "XReal":
        a, b = self._fin, other._fin
        if a is not None and b is not None:
            return XReal(a * b)
        # at least one side infinite: 0 annihilates, anything else gives inf
        if a == 0 or b == 0:
            return XReal(Fraction(0))
        return XReal.INF

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XReal):
            return NotImplemented
        return self._fin == other._fin

    def __hash__(self) -> int:
        return hash(self._fin)

    def __lt__(self, other: "XReal") -> bool:
        if self._fin is None:
            return False
        if other._fin is None:
            return True
        return self._fin < other._fin

    def __le__(self, other: "XReal") -> bool:
        return self == other or self < other

    def __gt__(self, other: "XReal") -> bool:
        return other < self

    def __ge__(self, other: "XReal") -> bool:
        return other <= self

    def __repr__(self) -> str:
        return f"XReal({self})"

    def __str__(self) -> str:
        if self._fin is None:
            return "inf"
        return format_rat(self._fin)


XReal.INF = XReal(None)

ZERO = XReal(Fraction(0))
ONE = XReal(Fraction(1))

