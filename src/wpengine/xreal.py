"""Exact non-negative rationals and their extension with infinity.

Values are plain ``fractions.Fraction`` instances (always in lowest terms
with positive denominator), validated by ``rat``.  The one value that is
not a Fraction is ``XReal.INF``, the top element that completes the
non-negative rationals; it follows the complete-lattice conventions:
adding it to anything gives it, it times a positive value is itself, and
``0 * inf == 0``.  It is not registered as a ``numbers`` type, so
Fraction's and int's operators return ``NotImplemented`` for it and a mixed
operation reaches its reflected methods in either order.  ``XReal`` is the
public spelling of the values and names their type in annotations: a
Fraction or ``XReal.INF``.  ``XReal.of`` validates a rational and returns
it; the class has no instances.  ``str`` prints a value as ``p``, ``p/q``
(lowest terms) or ``inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
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


def is_natural(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator >= 0


def _operand(other) -> bool:
    return other is INF or isinstance(other, (Fraction, int))


@total_ordering
class _Infinity:
    """The class of ``XReal.INF``, immutable and made once.

    It equals only itself (the default identity equality), and
    ``total_ordering`` derives the other comparisons from ``__lt__``."""

    __slots__ = ()

    def __add__(self, other):
        return self if _operand(other) else NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if not _operand(other):
            return NotImplemented
        # 0 annihilates, anything else gives inf
        return ZERO if other == 0 else self

    __rmul__ = __mul__

    def __lt__(self, other):
        return False if _operand(other) else NotImplemented

    def __hash__(self) -> int:
        return hash(math.inf)

    def __reduce__(self) -> str:
        return "INF"  # copies and pickles give the one instance back

    def __repr__(self) -> str:
        return "XReal.INF"

    def __str__(self) -> str:
        return "inf"


INF = _Infinity()
ZERO = Fraction(0)
ONE = Fraction(1)


class XReal:
    """The values: a validated Fraction or ``XReal.INF``."""

    INF = INF
    of = staticmethod(rat)
