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

The engine's sums, products and differences of values go through the
kernels ``add``, ``mul`` and ``sub``, which read a Fraction's integer slots
``_numerator`` and ``_denominator``, reduce by ``math.gcd`` as
``Fraction``'s own ``_add`` and ``_mul`` do, and fill the slots of a new
Fraction in lowest terms.  They skip the operators' dispatch, the
Python-level ``numerator``/``denominator`` properties and the
constructor's re-normalisation, and they do not need the constructor's
``_normalize`` flag, which Python 3.12 removed.  The result is a plain
Fraction equal, in value and hash, to what the operator gives.  ``xadd``
and ``xmul`` take values that may be ``XReal.INF``: two Fractions go
through the kernel, anything else through the operators, so absorption
and ``0 * inf == 0`` hold as above.  The layout is CPython's; a test pins
``Fraction.__slots__``.  The reference oracles under ``tests/`` and
``bench/`` keep the plain operators and import no kernel, so they check the
kernels too.
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
    if q._numerator < 0:
        raise ValueError(f"negative rational not allowed: {q}")
    return q


def is_natural(q: Fraction) -> bool:
    return q._denominator == 1 and q._numerator >= 0


_new = object.__new__
_gcd = math.gcd


def add(a: Fraction, b: Fraction) -> Fraction:
    """``a + b`` for two Fractions, from their slots, in lowest terms."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = _gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s = da // g
        t = na * (db // g) + nb * s
        g2 = _gcd(t, g)
        if g2 == 1:
            n, d = t, s * db
        else:
            n, d = t // g2, s * (db // g2)
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def sub(a: Fraction, b: Fraction) -> Fraction:
    """``a - b`` for two Fractions with ``a >= b``: ``add`` of ``a`` and
    ``-b``, which is in lowest terms as ``b`` is.  The caller makes sure
    the difference is not negative."""
    neg = _new(Fraction)
    neg._numerator = -b._numerator
    neg._denominator = b._denominator
    return add(a, neg)


def mul(a: Fraction, b: Fraction) -> Fraction:
    """``a * b`` for two Fractions, from their slots, in lowest terms: each
    numerator is reduced against the other's denominator first."""
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    q = _new(Fraction)
    q._numerator = na * nb
    q._denominator = da * db
    return q


def xadd(a: XReal, b: XReal) -> XReal:
    """``a + b`` for values: ``add`` on two Fractions, else the operator."""
    if type(a) is Fraction and type(b) is Fraction:
        return add(a, b)
    return a + b


def xmul(a: XReal, b: XReal) -> XReal:
    """``a * b`` for values: ``mul`` on two Fractions, else the operator,
    so ``0 * inf`` is 0."""
    if type(a) is Fraction and type(b) is Fraction:
        return mul(a, b)
    return a * b


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
