"""Prenex, summation, and cut normal forms for expectations.

Any expectation rewrites into a quantifier prefix over a quantifier-free
matrix by pulling quantifiers outward (renaming the bound variable fresh at
every pull, leftmost-outermost, left argument first).  The matrix then
flattens into a sum of guarded terms, and from that shape the cut form
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
    is_quantifier_free,
    quantify,
    substitution,
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
    """Pull all quantifiers to the front, renaming bound variables fresh.

    Application order is leftmost-outermost, pulling from the left argument
    first, so the output is deterministic.  Every user-named variable is
    renamed (by priming) when its quantifier crosses another subterm;
    reserved machine-generated names, which are unique by construction, are
    renamed only on an actual clash.
    """
    used = set(all_vars(f))
    used_names = {v.name for v in used}

    def freshen(prefix: Prefix, matrix: Exp, context_vars: set[Var]) -> tuple[Prefix, Exp]:
        context_names = {v.name for v in context_vars}
        mapping: dict[Var, VarRef] = {}
        kept: set[Var] = set()
        renamed: Prefix = []
        for quant, var in prefix:
            if var.reserved and var.name not in context_names \
                    and var not in mapping and var not in kept:
                kept.add(var)
                renamed.append((quant, var))
                continue
            name = var.name
            while name in used_names or name in context_names:
                name += "'"
            fresh = Var(name)
            used_names.add(name)
            used.add(fresh)
            mapping[var] = VarRef(fresh)
            renamed.append((quant, fresh))
        return renamed, substitution(mapping)(matrix)

    def go(g: Exp) -> tuple[Prefix, Exp]:
        spine: Prefix = []
        while isinstance(g, (Sup, Inf)):
            spine.append((type(g), g.var))
            g = g.body
        match g:
            case Arith():
                return spine, g
            case Guard(cond, body):
                prefix, matrix = go(body)
                prefix, matrix = freshen(prefix, matrix, free_vars(cond))
                return spine + prefix, Guard(cond, matrix)
            case Scale(a, body):
                prefix, matrix = go(body)
                prefix, matrix = freshen(prefix, matrix, free_vars(a))
                return spine + prefix, Scale(a, matrix)
            case Plus(l, r):
                pl, ml = go(l)
                pr, mr = go(r)
                # left prefix first; each side renamed against the other
                pl, ml = freshen(pl, ml, set(all_vars(r)) | {v for _, v in pr})
                pr, mr = freshen(pr, mr, set(all_vars(l)) | {v for _, v in pl})
                return spine + pl + pr, Plus(ml, mr)
        raise TypeError(g)

    prefix, matrix = go(f)
    assert is_quantifier_free(matrix)
    # a repeated name can only be a vacuous outer binder; rename it so the
    # prefix variables are pairwise distinct
    seen: set[Var] = set()
    deduped: Prefix = []
    for quant, var in reversed(prefix):
        if var in seen:
            var = fresh_var(used | seen, base=var.name)
            used.add(var)
        seen.add(var)
        deduped.append((quant, var))
    deduped.reverse()
    return PrenexExp(tuple(deduped), matrix)


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
