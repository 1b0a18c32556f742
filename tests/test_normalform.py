"""Prenex, summation, and cut normal forms."""

import random
import time
from fractions import Fraction as F

import pytest

from wpengine.errors import SummandBlowup
from wpengine.normalform import DNF, dnf_recover, to_dnf, to_prenex, to_snf
from wpengine.parser import parse_bexpr, parse_exp
from wpengine.semantics import QDomain, calkin_wilf, eval_exp, state
from wpengine.syntax import (
    And,
    Arith,
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
    free_vars,
    print_bexpr,
    print_exp,
    true_,
)
from wpengine.xreal import XReal, ZERO


def test_prenex_pull_over_plus():
    f = Plus(Sup(Var("v"), Arith(VarRef(Var("v")))), Arith(RatLit(F(1))))
    assert print_exp(to_prenex(f).to_exp()) == "sup v': v' + 1"


def test_prenex_pull_over_scale_inf():
    f = Scale(VarRef(Var("a")), Inf(Var("v"), Arith(VarRef(Var("v")))))
    assert print_exp(to_prenex(f).to_exp()) == "inf v': a * v'"


def test_prenex_quantifier_free_identity():
    f = parse_exp("[x < 1] * 2 + y")
    pre = to_prenex(f)
    assert pre.prefix == ()
    assert pre.matrix == f


def test_prenex_left_before_right():
    f = Plus(Sup(Var("v"), Arith(VarRef(Var("v")))),
             Inf(Var("w"), Arith(VarRef(Var("w")))))
    pre = to_prenex(f)
    assert [(q.__name__, v.name) for q, v in pre.prefix] == \
        [("Sup", "v'"), ("Inf", "w'")]


def test_prenex_distinct_prefix_variables():
    inner = Sup(Var("v"), Arith(VarRef(Var("v"))))
    f = Plus(inner, inner)
    pre = to_prenex(f)
    names = [v for _, v in pre.prefix]
    assert len(names) == len(set(names))


def test_prenex_renames_each_binder_once():
    # a user binder below two connectives is primed once, not once per level
    f = parse_exp("[x < 1] * ((sup v: [v < 3] * v) + 2)")
    assert print_exp(to_prenex(f).to_exp()) == "sup v': [x < 1] * ([v' < 3] * v' + 2)"
    # a repeated top-level binder: the inner one is renamed
    f = Sup(Var("v"), Sup(Var("v"), Arith(VarRef(Var("v")))))
    assert print_exp(to_prenex(f).to_exp()) == "sup v: sup v': v'"
    # reserved binders are renamed only where they clash
    assert print_exp(to_prenex(parse_exp("1/x + 1/y")).to_exp()) == \
        "sup $w: sup $w': [$w * x = 1] * $w + [$w' * y = 1] * $w'"


def _rand_clashing_exp(rng: random.Random, depth: int):
    """An expectation whose binders reuse a free name, each other's names and
    a reserved name, below every connective, with one subterm used twice."""
    from wpengine.checks import rand_aexpr, rand_bexpr

    names = [Var("x"), Var("v"), Var("$w")]
    quantifiers = [Sup, Inf]
    if depth <= 0 or rng.random() < 0.25:
        return Arith(rand_aexpr(rng, names, 1))
    match rng.randint(0, 4):
        case 0:
            return Guard(rand_bexpr(rng, names, 1), _rand_clashing_exp(rng, depth - 1))
        case 1:
            return Scale(rand_aexpr(rng, names, 1), _rand_clashing_exp(rng, depth - 1))
        case 2:
            shared = _rand_clashing_exp(rng, depth - 1)
            return Plus(shared, rng.choice(quantifiers)(rng.choice(names), shared))
        case 3:
            return Plus(_rand_clashing_exp(rng, depth - 1),
                        _rand_clashing_exp(rng, depth - 1))
        case _:
            return rng.choice(quantifiers)(rng.choice(names),
                                           _rand_clashing_exp(rng, depth - 1))


def test_prenex_equivalence_fuzz():
    from wpengine.syntax import is_quantifier_free

    rng = random.Random(3)
    for _ in range(150):
        f = _rand_clashing_exp(rng, 3)
        pre = to_prenex(f)
        names = [v for _, v in pre.prefix]
        assert len(names) == len(set(names))
        assert is_quantifier_free(pre.matrix)
        assert free_vars(pre.to_exp()) == free_vars(f)
        for _ in range(2):
            sigma = state(x=rng.choice([0, 1, F(1, 2)]), v=rng.choice([0, 2]),
                          **{"$w": rng.choice([0, 1])})
            dom = calkin_wilf(2)
            assert eval_exp(f, sigma, dom) == eval_exp(pre.to_exp(), sigma, dom), \
                print_exp(f)


def test_prenex_left_nested_sum_is_fast():
    """400 left-nested quantified summands: one pass, no re-renaming."""
    v, x = Var("v"), Var("x")
    f = None
    for i in range(400):
        summand = Sup(v, Guard(Lt(VarRef(v), VarRef(x)), Arith(RatLit(F(i)))))
        f = summand if f is None else Plus(f, summand)
    start = time.perf_counter()
    pre = to_prenex(f)
    elapsed = time.perf_counter() - start
    names = [w for _, w in pre.prefix]
    assert len(names) == 400
    assert len(set(names)) == 400
    assert free_vars(pre.matrix) <= set(names) | {x}
    assert elapsed < 10, f"to_prenex took {elapsed:.1f} s"


def test_snf_base_case():
    snf = to_snf(parse_exp("x"))
    assert len(snf.summands) == 1
    phi, a = snf.summands[0]
    assert phi == true_()
    assert a == VarRef(Var("x"))
    # a sum of two plain terms gives one guarded summand each
    assert len(to_snf(parse_exp("x + 1")).summands) == 2


def test_snf_guard_distribution():
    f = parse_exp("[x < 1] * ([y < 1] * 3 + z)")
    snf = to_snf(f)
    rendered = [(print_bexpr(phi), print_exp(Arith(a))) for phi, a in snf.summands]
    assert rendered == [("x < 1 && y < 1", "3"), ("x < 1", "z")]


def test_snf_scale_distribution():
    f = Scale(VarRef(Var("c")), parse_exp("[x < 1] * y"))
    snf = to_snf(f)
    assert len(snf.summands) == 1
    phi, a = snf.summands[0]
    assert a == Mul(VarRef(Var("c")), VarRef(Var("y")))


def test_snf_semantic_equivalence():
    rng = random.Random(11)
    from wpengine.checks import rand_exp

    for _ in range(40):
        f = rand_exp(rng, [Var("x"), Var("y")], 3)
        snf = to_snf(f)
        for _ in range(5):
            sigma = state(x=F(rng.randint(0, 4), rng.randint(1, 3)),
                          y=rng.randint(0, 3))
            dom = calkin_wilf(5, {F(rng.randint(0, 5), rng.randint(1, 4))})
            assert eval_exp(f, sigma, dom) == eval_exp(snf.to_exp(), sigma, dom)


def test_dnf_of_plain_variable():
    d = to_dnf(parse_exp("x"))
    assert d.cut_var == Var("$cut")
    de = d.to_exp()
    sigma = state(x=2)
    dom = calkin_wilf(6)
    assert eval_exp(de, sigma.set(d.cut_var, 1), dom) == XReal.of(1)
    assert eval_exp(de, sigma.set(d.cut_var, 2), dom) == ZERO


def test_dnf_of_zero():
    d = to_dnf(parse_exp("0"))
    de = d.to_exp()
    for r in (F(0), F(1), F(5, 2)):
        assert eval_exp(de, state().set(d.cut_var, r), calkin_wilf(4)) == ZERO


def test_dnf_sup_guarded():
    f = parse_exp("sup v: [v < 3] * v")
    d = to_dnf(f)
    dom = calkin_wilf(8, {F(5, 2)})
    de = d.to_exp()
    assert eval_exp(de, state().set(d.cut_var, 2), dom) == XReal.of(1)
    assert eval_exp(de, state().set(d.cut_var, 3), dom) == ZERO


def test_dnf_enumerates_all_sign_patterns():
    f = parse_exp("[x < 1] * 2 + [y < 1] * 3")
    d = to_dnf(f)
    # 2 summands: 4 conjuncts, no simplification of exclusive guards
    def count_conjuncts(phi) -> int:
        match phi:
            case And(l, r):
                return count_conjuncts(l) + count_conjuncts(r)
            case _:
                return 1

    assert count_conjuncts(d.matrix) == 4


def test_dnf_summand_cap():
    f = parse_exp("[x < 1] * 1 + [x < 2] * 1 + [x < 3] * 1")
    with pytest.raises(SummandBlowup):
        to_dnf(f, summand_cap=2)


def test_recover_constant():
    rec = dnf_recover(to_dnf(parse_exp("2")))
    dom = QDomain([F(0), F(1), F(3, 2), F(7, 4), F(2)])
    assert eval_exp(rec, state(), dom) == XReal.of(F(7, 4))


def test_recover_zero():
    rec = dnf_recover(to_dnf(parse_exp("0")))
    assert eval_exp(rec, state(), calkin_wilf(6)) == ZERO


def test_recover_attains_value_when_domain_hits():
    rec = dnf_recover(to_dnf(parse_exp("x")))
    sigma = state(x=F(3, 2))
    dom = QDomain([F(0), F(1), F(5, 4), F(3, 2)])
    # the largest domain element strictly below 3/2
    assert eval_exp(rec, sigma, dom) == XReal.of(F(5, 4))


def test_dnf_cut_var_fresh_and_distinct():
    f = parse_exp("sup v: [v < x] * v")
    d = to_dnf(f)
    assert d.cut_var not in {v for _, v in d.prefix}
    assert d.cut_var.reserved
