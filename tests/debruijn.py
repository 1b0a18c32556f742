"""Locally-nameless reference for substitution tests.

Bound variables become indices, free variables stay names.  In this form,
substitution cannot capture, so it serves as the independent oracle for the
capture-avoiding substitution on named terms: two named terms are
alpha-equivalent iff their nameless images are equal.
"""

from __future__ import annotations

from wpengine.syntax import (
    Add,
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
    And,
)


def _nameless_aexpr(a, env):
    match a:
        case RatLit(q):
            return ("lit", q)
        case VarRef(v):
            if v in env:
                return ("bound", env[::-1].index(v))
            return ("free", v.name)
        case Add(l, r):
            return ("add", _nameless_aexpr(l, env), _nameless_aexpr(r, env))
        case Mul(l, r):
            return ("mul", _nameless_aexpr(l, env), _nameless_aexpr(r, env))
        case Monus(l, r):
            return ("monus", _nameless_aexpr(l, env), _nameless_aexpr(r, env))
    raise TypeError(a)


def _nameless_bexpr(phi, env):
    match phi:
        case Lt(a, b):
            return ("lt", _nameless_aexpr(a, env), _nameless_aexpr(b, env))
        case And(l, r):
            return ("and", _nameless_bexpr(l, env), _nameless_bexpr(r, env))
        case Not(arg):
            return ("not", _nameless_bexpr(arg, env))
    raise TypeError(phi)


def nameless(f, env=()):
    env = list(env)
    match f:
        case Arith(a):
            return ("arith", _nameless_aexpr(a, env))
        case Guard(cond, body):
            return ("guard", _nameless_bexpr(cond, env), nameless(body, env))
        case Plus(l, r):
            return ("plus", nameless(l, env), nameless(r, env))
        case Scale(a, body):
            return ("scale", _nameless_aexpr(a, env), nameless(body, env))
        case Sup(v, body):
            return ("sup", nameless(body, env + [v]))
        case Inf(v, body):
            return ("inf", nameless(body, env + [v]))
    raise TypeError(f)


def subst_nameless(tree, name: str, replacement):
    """Substitute a free name in a nameless tree; capture is impossible."""

    def goa(node):
        match node:
            case ("free", n) if n == name:
                return replacement
            case ("lit", _) | ("free", _) | ("bound", _):
                return node
            case (op, l, r):
                return (op, goa(l), goa(r))
        raise TypeError(node)

    def gob(node):
        match node:
            case ("lt", a, b):
                return ("lt", goa(a), goa(b))
            case ("and", l, r):
                return ("and", gob(l), gob(r))
            case ("not", arg):
                return ("not", gob(arg))
        raise TypeError(node)

    def go(node):
        match node:
            case ("arith", a):
                return ("arith", goa(a))
            case ("guard", cond, body):
                return ("guard", gob(cond), go(body))
            case ("plus", l, r):
                return ("plus", go(l), go(r))
            case ("scale", a, body):
                return ("scale", goa(a), go(body))
            case ("sup", body):
                return ("sup", go(body))
            case ("inf", body):
                return ("inf", go(body))
        raise TypeError(node)

    return go(tree)
