"""Syntactic sums and products over encoded partial aggregates.

``Sum[f, v]`` and ``Product[f, v]`` are single expectations denoting the
sum (resp. product) of ``f`` instantiated at the aggregation variable
``0..v``; one builder makes both, as an ``Aggregate`` of body, bound and
tagged pure term.  The pure terms guess a sequence of partial aggregates as
one encoded number: the sequence starts at the neutral element, every step
extends the previous aggregate by a rational drawn from the lower cut of
the corresponding instance of ``f`` (through the cut normal form of ``f``),
and the outer supremum squeezes the final aggregate up to the true value.

The pure terms are emitted in full but are astronomically infeasible to
evaluate by restricted quantifier search; each carries an evaluation plan
(an intrinsic tag on the root) that computes the same value directly by
iterating the aggregation index, bound in the state, which is the testable
semantics.

The unrestricted product of two expectations is the two-factor product
aggregate; the alternative cut product multiplies the suprema of the two
lower cuts directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .normalform import to_dnf
from .semantics import State, eval_aexpr
from .syntax import (
    Add,
    AExpr,
    And as BAnd,
    Arith,
    Atom,
    Exp,
    FOImplies,
    FOOr,
    Guard,
    Inf,
    Lt,
    Mul,
    Plus,
    RatLit,
    Scale,
    Sup,
    Var,
    VarRef,
    FOAnd,
    aexpr,
    all_vars,
    balanced,
    eq_,
    free_vars,
    fresh_var,
    quantify,
    substitute,
    true_,
    with_intrinsic,
)
from .goedel import (construction, expand_nat_atoms, fo_prenex, fo_to_exp,
                     logical_var, relem_formula)
from .xreal import ONE, XReal, ZERO, is_natural

SUM_VAR = Var("$s")
PROD_VAR = Var("$p")


@dataclass(frozen=True)
class Aggregate:
    """A sum or product aggregate: its tagged term."""

    pure: Exp


@construction
def _aggregate_pure(body: Exp, bound: AExpr, kind: str, agg: Var) -> Exp:
    """The encoded-aggregate skeleton shared by sums and products.

    Guess the final aggregate v' and a code num; demand that num encodes a
    sequence starting at the neutral element whose successive entries grow
    by (sum) or scale by (product) a member of the lower cut of the body
    instance at each index, and that entry bound+1 equals v'.  The body's
    cut form supplies the cut membership test.
    """
    dnf = to_dnf(body)
    vp = logical_var("v'")
    num = logical_var("num")
    u = logical_var("u")
    z = logical_var("z")
    cut = dnf.cut_var
    neutral = RatLit(Fraction(0 if kind == "sum" else 1))
    combine = Add if kind == "sum" else Mul
    matrix = substitute(dnf.matrix, {agg: VarRef(u)})
    step_guard = FOOr(Atom(matrix), Atom(eq_(VarRef(cut), RatLit(Fraction(0)))))
    bracket = balanced(
        FOAnd,
        [
            relem_formula(VarRef(num), RatLit(Fraction(0)), neutral),
            relem_formula(VarRef(num), Add(bound, RatLit(Fraction(1))), VarRef(vp)),
            FOImplies(
                balanced(
                    FOAnd,
                    [
                        Atom(Lt(VarRef(u), Add(bound, RatLit(Fraction(1))))),
                        relem_formula(VarRef(num), VarRef(u), VarRef(z)),
                        step_guard,
                    ],
                    lambda: Atom(true_()),
                ),
                relem_formula(
                    VarRef(num),
                    Add(VarRef(u), RatLit(Fraction(1))),
                    combine(VarRef(z), VarRef(cut)),
                ),
            ),
        ],
        lambda: Atom(true_()),
    )
    embedded = fo_to_exp(fo_prenex(expand_nat_atoms(bracket)))
    inner = quantify([(Inf, u), (Inf, z), (Sup, cut), *dnf.prefix], embedded)
    return Sup(vp, Sup(num, Scale(VarRef(vp), inner)))


def _aggregate(body: Exp, bound, kind: str, agg: Var) -> Aggregate:
    """The aggregate of ``body`` instances at ``agg`` = 0..bound.

    ``bound`` is a variable or term.  The pure term's plan iterates the
    index from 0 to the bound's value n, bound in the state, for the
    n+1-term sum (resp. product); a non-natural bound yields 0, matching the
    falsity of the embedded naturalness guards.  The plan reads only the
    node's free variables: the bound's and the body's but the index.
    """
    bound = aexpr(bound)
    if agg in free_vars(bound):
        raise ValueError("the bound must not mention the aggregation variable")
    pure = _aggregate_pure(body, bound, kind, agg)

    def aggregate_plan(sigma: State, rec) -> XReal:
        n = eval_aexpr(bound, sigma)
        if not is_natural(n):
            return ZERO
        total = ZERO if kind == "sum" else ONE
        for j in range(n.numerator + 1):
            value = rec(body, sigma.set(agg, Fraction(j)))
            if kind == "sum":
                total = total + value
            else:
                total = total * value
                if total == ZERO:
                    return ZERO
        return total

    return Aggregate(with_intrinsic(pure, aggregate_plan))


def make_sum(body: Exp, bound) -> Aggregate:
    """Sum of ``body`` instances at ``$s`` = 0..bound."""
    return _aggregate(body, bound, "sum", SUM_VAR)


def make_product(body: Exp, bound) -> Aggregate:
    """Product of ``body`` instances at ``$p`` = 0..bound."""
    return _aggregate(body, bound, "product", PROD_VAR)


@construction
def odot(f: Exp, g: Exp) -> Exp:
    """Unrestricted product of two expectations.

    Encoded as the two-factor product aggregate of the mix that selects
    ``f`` at index 0 and ``g`` at index 1, over an aggregation variable
    fresh for both operands; its plan evaluates to the pointwise product
    (with 0 * inf = 0).
    """
    agg = logical_var("p")
    mix = Plus(
        Guard(eq_(VarRef(agg), RatLit(Fraction(0))), f),
        Guard(eq_(VarRef(agg), RatLit(Fraction(1))), g),
    )
    return _aggregate(mix, RatLit(Fraction(1)), "product", agg).pure


def dedekind_product(f: Exp, g: Exp) -> Exp:
    """Product via suprema of the two lower cuts.

    Frame both factors in cut normal form over distinct cut variables,
    merge the prefixes (the operands are renamed apart by the cut
    construction's fresh prefixes), and take the supremum of the product of
    the two cut variables under the conjoined matrices.  Empty cuts
    annihilate, so 0 * inf = 0 holds.  The plan multiplies the values of
    the factors, so it reads only their free variables.
    """
    d1 = to_dnf(f)
    d2 = to_dnf(g)
    avoid = (
        set(all_vars(f)) | set(all_vars(g))
        | {v for _, v in d1.prefix} | {v for _, v in d2.prefix}
        | {d1.cut_var, d2.cut_var}
    )
    cut2 = d2.cut_var
    if cut2 == d1.cut_var:
        cut2 = fresh_var(avoid, base="$cut")
        d2 = type(d2)(d2.prefix, cut2,
                      substitute(d2.matrix, {d2.cut_var: VarRef(cut2)}))
    # renamed in prefix order, so the new names do not depend on the hash seed
    ours = {v for _, v in d1.prefix}
    mapping = {}
    for _, v in d2.prefix:
        if v in ours and v not in mapping:
            mapping[v] = fresh_var(avoid | set(mapping.values()), base=v.name)
    if mapping:
        d2 = type(d2)(
            tuple((q, mapping.get(v, v)) for q, v in d2.prefix),
            cut2,
            substitute(d2.matrix, {v: VarRef(v2) for v, v2 in mapping.items()}),
        )
    pure = quantify(
        [(Sup, d1.cut_var), (Sup, cut2), *d1.prefix, *d2.prefix],
        Scale(
            Mul(VarRef(d1.cut_var), VarRef(cut2)),
            Guard(BAnd(d1.matrix, d2.matrix), Arith(RatLit(Fraction(1)))),
        ),
    )

    def cut_product_plan(sigma: State, rec) -> XReal:
        return rec(f, sigma) * rec(g, sigma)

    return with_intrinsic(pure, cut_product_plan)
