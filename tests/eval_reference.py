"""Structural evaluators: test-only references for the compiled evaluators.

``wpengine.semantics`` compiles each term and guard into a closure cached
on its node.  These references walk the syntax tree on every call, with
``Fraction``'s own comparison and ``XReal.of``'s validation, and serve as
the oracle the compiled evaluators are fuzzed against.  Plans of tagged
nodes are called with the reference's own recursion, so in oracle-assisted
mode only a plan's internals use the compiled path.  ``xsum``, ``xsup`` and
``xinf`` fold finite sets of extended reals, as references for sums and
quantifiers.
"""

from fractions import Fraction

from wpengine.semantics import ORACLE, RESTRICTED, default_domain
from wpengine.syntax import (
    Add,
    And,
    Arith,
    Guard,
    Inf,
    Lt,
    Monus,
    Mul,
    Not,
    Plus,
    RatLit,
    Scale,
    Sup,
    VarRef,
)
from wpengine.xreal import XReal, ZERO


def ref_aexpr(a, sigma) -> Fraction:
    match a:
        case RatLit(q):
            return q
        case VarRef(v):
            return sigma[v]
        case Add(l, r):
            return ref_aexpr(l, sigma) + ref_aexpr(r, sigma)
        case Mul(l, r):
            return ref_aexpr(l, sigma) * ref_aexpr(r, sigma)
        case Monus(l, r):
            lv, rv = ref_aexpr(l, sigma), ref_aexpr(r, sigma)
            return lv - rv if lv >= rv else Fraction(0)
    raise TypeError(a)


def ref_bexpr(phi, sigma) -> bool:
    match phi:
        case Lt(a, b):
            return ref_aexpr(a, sigma) < ref_aexpr(b, sigma)
        case And(l, r):
            return ref_bexpr(l, sigma) and ref_bexpr(r, sigma)
        case Not(arg):
            return not ref_bexpr(arg, sigma)
    raise TypeError(phi)


def ref_exp(f, sigma, dom=None, mode=RESTRICTED) -> XReal:
    """``eval_exp``'s contract: the same domain default, both modes, a sup
    over the empty domain 0, an inf over it infinity, and 0 * inf = 0."""

    def domain():
        nonlocal dom
        if dom is None:
            dom = default_domain(f, sigma)
        return dom

    def rec(g, sig):
        if mode == ORACLE and g.intrinsic is not None:
            return g.intrinsic(sig, rec)
        match g:
            case Arith(a):
                return XReal.of(ref_aexpr(a, sig))
            case Guard(cond, body):
                if ref_bexpr(cond, sig):
                    return rec(body, sig)
                return ZERO
            case Plus(l, r):
                return rec(l, sig) + rec(r, sig)
            case Scale(a, body):
                factor = XReal.of(ref_aexpr(a, sig))
                if factor == ZERO:
                    return ZERO
                return factor * rec(body, sig)
            case Sup(v, body):
                best = ZERO
                for q in domain():
                    candidate = rec(body, sig.set(v, q))
                    if best < candidate:
                        best = candidate
                return best
            case Inf(v, body):
                best = XReal.INF
                for q in domain():
                    candidate = rec(body, sig.set(v, q))
                    if candidate < best:
                        best = candidate
                return best
        raise TypeError(g)

    return rec(f, sigma)


def xsum(values) -> XReal:
    """Sum of finitely many extended reals."""
    total = ZERO
    for v in values:
        total = total + v
    return total


def xsup(values) -> XReal:
    """Supremum of a finite set of extended reals; the empty one is 0."""
    best = ZERO
    for v in values:
        if best < v:
            best = v
    return best


def xinf(values) -> XReal:
    """Infimum of a finite set of extended reals; the empty one is inf."""
    best = XReal.INF
    for v in values:
        if v < best:
            best = v
    return best
