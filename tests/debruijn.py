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


def nameless(f, env=()):
    """The nameless image of ``f`` under the binders ``env``, outermost
    first.

    A binder chain (the names of the binders around a node, outermost
    first) gets an id, so a subterm shared in ``f`` and met again under an
    equal chain gets the same image, computed once: the cost follows the
    distinct nodes of ``f`` rather than its tree expansion.
    """
    levels = {}  # each bound variable's innermost binder level
    chains = {}  # (chain, variable) -> id of the chain one binder deeper
    memo = {}    # (node, chain) -> image

    def under(v, body, chain, depth):
        outer = levels.get(v)
        levels[v] = depth
        inner = chains.setdefault((chain, v), len(chains) + 1)
        out = go(body, inner, depth + 1)
        if outer is None:
            del levels[v]
        else:
            levels[v] = outer
        return out

    def go(f, chain, depth):
        key = (id(f), chain)
        out = memo.get(key)
        if out is not None:
            return out
        match f:
            case RatLit(q):
                out = ("lit", q)
            case VarRef(v):
                if v in levels:
                    out = ("bound", depth - 1 - levels[v])
                else:
                    out = ("free", v.name)
            case Add(l, r) | Mul(l, r) | Monus(l, r) | Lt(l, r) | And(l, r) | Plus(l, r):
                out = (_OPS[type(f)], go(l, chain, depth), go(r, chain, depth))
            case Not(arg):
                out = ("not", go(arg, chain, depth))
            case Arith(a):
                out = ("arith", go(a, chain, depth))
            case Guard(cond, body):
                out = ("guard", go(cond, chain, depth), go(body, chain, depth))
            case Scale(a, body):
                out = ("scale", go(a, chain, depth), go(body, chain, depth))
            case Sup(v, body):
                out = ("sup", under(v, body, chain, depth))
            case Inf(v, body):
                out = ("inf", under(v, body, chain, depth))
            case _:
                raise TypeError(f)
        memo[key] = out
        return out

    chain = 0
    for depth, v in enumerate(env):
        levels[v] = depth
        chain = chains.setdefault((chain, v), len(chains) + 1)
    return go(f, chain, len(env))


_OPS = {Add: "add", Mul: "mul", Monus: "monus", Lt: "lt", And: "and",
        Plus: "plus"}


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
