"""Prenex, summation, and cut normal forms for expectations.

Any expectation rewrites into a quantifier prefix over a quantifier-free
matrix by pulling quantifiers outward in one pass (leftmost-outermost, left
argument first) that renames each bound variable at most once.  The matrix
then flattens into a sum of guarded terms, and from that shape the cut form
replaces the value by its lower cut: a {0,1}-valued expectation over a
fresh cut variable that holds exactly when the cut variable lies strictly
below the original value.  The original expectation is recovered as the
supremum of the cut variable over the cut form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .errors import SummandBlowup
from .syntax import (
    Add,
    AExpr,
    And,
    Arith,
    BExpr,
    Exp,
    Guard,
    Inf,
    Lt,
    Mul,
    Not,
    Plus,
    RatLit,
    Scale,
    Sup,
    Var,
    VarRef,
    alit,
    all_vars,
    balanced,
    free_vars,
    fresh_var,
    implies_,
    quantify,
    substitute,
    true_,
)

DEFAULT_SUMMAND_CAP = 16

Quantifier = type  # Sup or Inf

Prefix = list[tuple[Quantifier, Var]]


@dataclass(frozen=True)
class PrenexExp:
    """Quantifier prefix (outermost first) over a quantifier-free matrix."""

    prefix: tuple[tuple[Quantifier, Var], ...]
    matrix: Exp

    def to_exp(self) -> Exp:
        return quantify(list(self.prefix), self.matrix)


@dataclass(frozen=True)
class SNF:
    """Prefix over a non-empty sum of guarded terms."""

    prefix: tuple[tuple[Quantifier, Var], ...]
    summands: tuple[tuple[BExpr, AExpr], ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("summation form needs at least one summand")

    def matrix(self) -> Exp:
        terms = [Guard(phi, Arith(a)) for phi, a in self.summands]
        if len(terms) == 1:
            return terms[0]
        out = terms[0]
        for t in terms[1:]:
            out = Plus(out, t)
        return out

    def to_exp(self) -> Exp:
        return quantify(list(self.prefix), self.matrix())


@dataclass(frozen=True)
class DNF:
    """Cut form: prefix over a single {0,1}-valued guard.

    The cut variable is free in the whole expression and distinct from
    every prefix variable.
    """

    prefix: tuple[tuple[Quantifier, Var], ...]
    cut_var: Var
    matrix: BExpr

    def to_exp(self) -> Exp:
        return quantify(list(self.prefix), Guard(self.matrix, Arith(RatLit(Fraction(1)))))


def to_prenex(f: Exp) -> PrenexExp:
    """Pull all quantifiers to the front in one pass.

    The pass is pre-order and left-first: it appends each binder to the
    prefix when it meets it, so the prefix lists binders outermost first,
    left argument before right.  A binder is renamed when its name is free
    in ``f``, when it is already in the prefix, or when it is user-named
    and sits below a connective; the new name is the first priming of the
    old one that is neither a name of ``f`` nor chosen before.  Reserved
    machine-generated names, unique by construction, are thus renamed only
    on an actual clash.  The renaming travels down to the leaves, so each
    binder is renamed at most once and each leaf term at most once.
    """
    free = free_vars(f)
    taken = {v.name for v in all_vars(f)}
    prefix: Prefix = []
    bound: set[Var] = set()

    def bind(quant: Quantifier, var: Var, ren: dict, nested: bool) -> dict:
        new = var
        if var in free or var in bound or (nested and not var.reserved):
            name = var.name + "'"
            while name in taken:
                name += "'"
            taken.add(name)
            new = Var(name)
        prefix.append((quant, new))
        bound.add(new)
        return {**ren, var: new} if new != var else ren

    def rename(node, ren: dict):
        clashes = ren.keys() & free_vars(node)
        if not clashes:
            return node
        return substitute(node, {v: VarRef(ren[v]) for v in clashes})

    def go(g: Exp, ren: dict, nested: bool) -> Exp:
        while isinstance(g, (Sup, Inf)):
            ren = bind(type(g), g.var, ren, nested)
            g = g.body
        match g:
            case Arith():
                return rename(g, ren)
            case Guard(cond, body):
                return Guard(rename(cond, ren), go(body, ren, True))
            case Scale(a, body):
                return Scale(rename(a, ren), go(body, ren, True))
            case Plus(l, r):
                return Plus(go(l, ren, True), go(r, ren, True))
        raise TypeError(g)

    matrix = go(f, {}, False)
    return PrenexExp(tuple(prefix), matrix)


def to_snf(f: Exp) -> SNF:
    """Rewrite into a prefix over a sum of guarded terms.

    Scaling distributes over the sum and nested guards fuse by conjunction;
    a bare term becomes the single summand guarded by true.
    """
    pre = to_prenex(f)

    def flatten(g: Exp) -> list[tuple[BExpr, AExpr]]:
        match g:
            case Arith(a):
                return [(true_(), a)]
            case Guard(cond, body):
                return [(_fuse(cond, phi), a) for phi, a in flatten(body)]
            case Scale(factor, body):
                return [(phi, Mul(factor, a)) for phi, a in flatten(body)]
            case Plus(l, r):
                return flatten(l) + flatten(r)
        raise TypeError(g)

    def _fuse(outer: BExpr, inner: BExpr) -> BExpr:
        if inner == true_():
            return outer
        return And(outer, inner)

    return SNF(pre.prefix, tuple(flatten(pre.matrix)))


def to_dnf(f: Exp, summand_cap: int = DEFAULT_SUMMAND_CAP) -> DNF:
    """Build the cut form of ``f`` over a fresh cut variable.

    The matrix is the conjunction, over all 2^n ways of asserting or
    negating the n summand guards, of "these signs imply that the cut
    variable is strictly below the corresponding sum of terms".  No
    simplification is attempted, even for mutually exclusive guards.
    """
    snf = to_snf(f)
    n = len(snf.summands)
    if n > summand_cap:
        raise SummandBlowup(f"{n} summands exceed the 2^n cap of {summand_cap}")
    avoid = set(all_vars(f)) | {v for _, v in snf.prefix}
    cut = fresh_var(avoid, base="$cut")
    zero = RatLit(Fraction(0))
    conjuncts = []
    for signs in iter_product(*(((phi, a), (Not(phi), zero)) for phi, a in snf.summands)):
        sign_guards = balanced(And, [b for b, _ in signs], true_)
        total = balanced(Add, [t for _, t in signs], lambda: alit(0))
        conjuncts.append(implies_(sign_guards, Lt(VarRef(cut), total)))
    return DNF(snf.prefix, cut, balanced(And, conjuncts, true_))


def dnf_recover(d: DNF) -> Exp:
    """sup over the cut variable of (cut form) * cut variable.

    Since the cut form is {0,1}-valued and guard-shaped, the product is the
    guard scaled by the cut variable.
    """
    body = quantify(list(d.prefix),
                    Scale(VarRef(d.cut_var), Guard(d.matrix, Arith(RatLit(Fraction(1))))))
    return Sup(d.cut_var, body)
