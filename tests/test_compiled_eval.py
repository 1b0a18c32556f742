"""Compiled evaluation: agreement with the structural reference, closure
lifetime, staleness after rewrites, and deep inputs."""

import gc
import random
import sys
import traceback
import weakref
from fractions import Fraction as F
from functools import reduce

import pytest

from eval_reference import ref_aexpr, ref_bexpr, ref_exp
from wpengine import semantics
from wpengine.cli import main
from wpengine.parser import parse_aexpr, parse_exp, parse_program
from wpengine.semantics import (
    ORACLE,
    QDomain,
    State,
    calkin_wilf,
    eval_aexpr,
    eval_bexpr,
    eval_exp,
    state,
)
from wpengine.series import make_product, make_sum, odot
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
    Var,
    VarRef,
    balanced,
    subst_exp,
    true_,
)
from wpengine.wp import wp_loop_free
from wpengine.xreal import XReal, ZERO

NAMES = [Var("x"), Var("y"), Var("z")]
# reserved and primed names; "u" is never bound
EXTRA = [Var("$cut"), Var("v'")]
GUARD_NAMES = NAMES + EXTRA + [Var("u")]


def rand_value(rng) -> F:
    """Small, large and unequal-denominator rationals."""
    match rng.randint(0, 3):
        case 0:
            return F(rng.randint(0, 4))
        case 1:
            return F(rng.randint(0, 9), rng.randint(1, 9))
        case 2:
            return F(rng.randint(0, 10 ** 30), rng.randint(1, 10 ** 30))
        case _:
            # neighbours with coprime, unequal denominators
            d = rng.choice([7, 10 ** 12 + 39, 2 ** 61 - 1])
            return F(rng.randint(0, 3 * d), d)


class TermMaker:
    """Random terms and guards that reuse earlier subterms (DAG sharing)."""

    def __init__(self, rng, literals):
        self.rng = rng
        self.literals = literals
        self.terms = []
        self.guards = []

    def leaf(self):
        rng = self.rng
        if rng.random() < 0.5:
            return RatLit(rng.choice(self.literals))
        return VarRef(rng.choice(NAMES))

    def term(self, depth):
        rng = self.rng
        if self.terms and rng.random() < 0.25:
            return rng.choice(self.terms)
        if depth <= 0 or rng.random() < 0.3:
            return self.leaf()
        l = self.term(depth - 1)
        if rng.random() < 0.15:
            out = Monus(l, l)  # equality by construction
        else:
            ctor = rng.choice([Add, Mul, Monus, Monus])
            out = ctor(l, self.term(depth - 1))
        self.terms.append(out)
        return out

    def side(self):
        """A bare variable, which ``<`` reads in place, or a literal."""
        rng = self.rng
        if rng.random() < 0.7:
            return VarRef(rng.choice(GUARD_NAMES))
        return RatLit(rng.choice(self.literals))

    def guard(self, depth):
        rng = self.rng
        if self.guards and rng.random() < 0.25:
            return rng.choice(self.guards)
        if depth <= 0 or rng.random() < 0.4:
            match rng.randint(0, 5):
                case 0:
                    out = Lt(RatLit(rng.choice(self.literals)), self.term(2))
                case 1:
                    out = Lt(self.term(2), RatLit(rng.choice(self.literals)))
                case 2:
                    out = Lt(RatLit(rng.choice(self.literals)),
                             RatLit(rng.choice(self.literals)))
                case 3:
                    out = Lt(self.term(2), self.term(2))
                case _:
                    out = Lt(self.side(), self.side())
        elif rng.random() < 0.3:
            out = Not(self.guard(depth - 1))
        elif rng.random() < 0.3:
            out = self.chain(depth)
        else:
            out = And(self.guard(depth - 1), self.guard(depth - 1))
        self.guards.append(out)
        return out

    def chain(self, depth):
        """A chain of 3-50 ``&&``, nested left, right or balanced, sometimes
        negated.  Most conjuncts always hold and some repeat an earlier one,
        so whole chains hold and the last conjunct often decides."""
        rng = self.rng
        parts = []
        for _ in range(rng.randint(2, 49)):
            if parts and rng.random() < 0.2:
                parts.append(rng.choice(parts))
            elif rng.random() < 0.1:
                parts.append(self.guard(depth - 1))
            else:
                parts.append(Not(Lt(self.side(), RatLit(F(0)))))
        parts.append(Lt(self.side(), self.side()))
        match rng.randint(0, 2):
            case 0:
                out = left_nested(parts)
            case 1:
                out = right_nested(parts)
            case _:
                out = balanced(And, parts, true_)
        return Not(out) if rng.random() < 0.3 else out

    def exp(self, depth):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return Arith(self.term(2))
        match rng.randint(0, 5):
            case 0:
                return Guard(self.guard(2), self.exp(depth - 1))
            case 1:
                return Plus(self.exp(depth - 1), self.exp(depth - 1))
            case 2:
                return Scale(self.term(2), self.exp(depth - 1))
            case 3:
                # the factor reads 0 where the body may read inf
                return Scale(Monus(self.term(1), self.term(1)),
                             Inf(Var("w"), Arith(VarRef(Var("w")))))
            case _:
                quant = rng.choice([Sup, Inf])
                v = rng.choice(NAMES)
                return quant(v, self.exp(depth - 1))


def left_nested(parts):
    return reduce(And, parts)


def right_nested(parts):
    return reduce(lambda rest, p: And(p, rest), reversed(parts))


def rand_state(rng, literals) -> State:
    # values often equal a literal, so Lt and Monus meet their boundaries;
    # a name bound to 0 is dropped from the state
    pool = literals + [rand_value(rng) for _ in range(3)] + [F(0)]
    return State({v: rng.choice(pool) for v in NAMES + EXTRA
                  if rng.random() < 0.85})


def test_compiled_terms_and_guards_match_reference_fuzz():
    rng = random.Random(7101)
    compared = 0
    for _ in range(60):
        literals = [rand_value(rng) for _ in range(4)]
        maker = TermMaker(rng, literals)
        terms = [maker.term(5) for _ in range(6)]
        guards = [maker.guard(4) for _ in range(6)]
        for _ in range(6):
            sigma = rand_state(rng, literals)
            for t in terms + maker.terms:
                got = eval_aexpr(t, sigma)
                assert type(got) is F and got == ref_aexpr(t, sigma)
                compared += 1
            for g in guards + maker.guards:
                got = eval_bexpr(g, sigma)
                assert type(got) is bool and got == ref_bexpr(g, sigma)
                compared += 1
    assert compared > 10_000


def test_compiled_expectations_match_reference_fuzz():
    rng = random.Random(7102)
    domains = [QDomain([]), calkin_wilf(0), calkin_wilf(3)]
    infinite = 0
    for _ in range(120):
        literals = [rand_value(rng) for _ in range(3)]
        maker = TermMaker(rng, literals)
        f = maker.exp(4)
        for dom in domains:
            sigma = rand_state(rng, literals)
            got = eval_exp(f, sigma, QDomain(list(dom) + literals))
            assert got == ref_exp(f, sigma, QDomain(list(dom) + literals))
            got = eval_exp(f, sigma, dom)
            assert got == ref_exp(f, sigma, dom)
            infinite += not got.is_finite
    assert infinite > 0


def test_boundaries_match_reference():
    x, y = Var("x"), Var("y")
    big = F(10 ** 40 + 1, 10 ** 40)
    near = F(10 ** 40 + 1, 10 ** 40 + 3)
    sigma = state(x=big, y=near)
    cases_a = [
        Monus(VarRef(x), VarRef(x)),
        Monus(RatLit(big), VarRef(x)),
        Monus(VarRef(x), RatLit(big)),
        Monus(VarRef(x), VarRef(y)),
        Monus(VarRef(y), VarRef(x)),
    ]
    for a in cases_a:
        assert eval_aexpr(a, sigma) == ref_aexpr(a, sigma)
    assert eval_aexpr(Monus(VarRef(x), VarRef(x)), sigma) == 0
    cases_b = [
        Lt(VarRef(x), VarRef(y)), Lt(VarRef(y), VarRef(x)),
        Lt(VarRef(x), RatLit(big)), Lt(RatLit(big), VarRef(x)),
        Lt(VarRef(y), RatLit(big)), Lt(RatLit(near), VarRef(x)),
        Lt(RatLit(near), RatLit(big)), Lt(RatLit(big), RatLit(near)),
        Lt(RatLit(big), RatLit(big)), Lt(VarRef(Var("z")), RatLit(F(0))),
    ]
    for b in cases_b:
        assert eval_bexpr(b, sigma) == ref_bexpr(b, sigma)
    assert [eval_bexpr(b, sigma) for b in cases_b] == \
        [False, True, False, False, True, True, True, False, False, False]


def test_computed_zero_annihilates_infinity():
    """A factor that reads 0 (here a monus at equality) times an inf over
    the empty domain is 0."""
    empty = QDomain([])
    unbounded = Inf(Var("v"), Arith(VarRef(Var("v"))))
    assert eval_exp(unbounded, state(), empty) == XReal.INF
    f = Scale(Monus(VarRef(Var("x")), RatLit(F(3))), unbounded)
    assert eval_exp(f, state(x=3), empty) == ZERO == ref_exp(f, state(x=3), empty)


@pytest.mark.parametrize("build", [
    lambda: make_sum(parse_exp("1/$s + [$s < x] * x"), Var("n")).pure,
    lambda: make_product(parse_exp("[$p = 0] * 1 + [1 <= $p] * ($p + x)"),
                         Var("n")).pure,
    lambda: odot(parse_exp("[x < 2] * x + 1/2"), parse_exp("y + 1")),
])
def test_oracle_assisted_matches_reference(build):
    f = build()
    dom = calkin_wilf(2)
    for x in (0, 1, F(3, 2), 4):
        for n in (0, 1, 3):
            sigma = state(x=x, y=F(1, 3), n=n)
            assert eval_exp(f, sigma, dom, mode=ORACLE) == \
                ref_exp(f, sigma, dom, mode=ORACLE)


# ---------------------------------------------------------------------------
# Lifetime and staleness
# ---------------------------------------------------------------------------

def _module_tables() -> dict[str, int]:
    """Sizes of the containers held by ``wpengine.semantics``' globals."""
    return {name: len(value) for name, value in vars(semantics).items()
            if isinstance(value, (dict, list, set, tuple))}


def test_compiled_node_is_freed_with_its_closure():
    term = Add(Mul(VarRef(Var("x")), RatLit(F(3, 7))), RatLit(F(1)))
    guard = And(Lt(term, RatLit(F(5))), Not(Lt(VarRef(Var("y")), term)))
    f = Guard(guard, Arith(term))
    assert eval_exp(f, state(x=2, y=2)) == XReal.of(F(13, 7))
    refs = [weakref.ref(node) for node in (term, guard, guard.left)]
    refs += [weakref.ref(node._fn) for node in (term, guard, guard.left)]
    del term, guard, f
    gc.collect()
    assert all(r() is None for r in refs)


def test_no_module_table_grows_with_nodes_evaluated():
    before = _module_tables()
    rng = random.Random(7103)
    for i in range(300):
        maker = TermMaker(rng, [F(i), F(1, i + 1)])
        f = maker.exp(3)
        eval_exp(f, rand_state(rng, [F(i)]), calkin_wilf(1))
    gc.collect()
    assert _module_tables() == before


def test_substituted_term_gets_its_own_closure():
    x = Var("x")
    f = parse_exp("[x < 3] * (x + 1) + 2 * x")
    sigma = state(x=1)
    assert eval_exp(f, sigma) == XReal.of(4)
    g = subst_exp(f, x, RatLit(F(5)))
    # the rewritten nodes read 5 for x; the original's closures read x
    assert eval_exp(g, sigma) == XReal.of(10) == ref_exp(g, sigma)
    assert eval_exp(f, sigma) == XReal.of(4)
    for rebuilt, original in ((g.left.cond, f.left.cond),
                              (g.left.body.left.expr, f.left.body.left.expr)):
        assert rebuilt != original and rebuilt._fn is not original._fn
    h = subst_exp(f, x, parse_aexpr("x + 1"))
    assert eval_exp(h, sigma) == XReal.of(7) == ref_exp(h, sigma)


# ---------------------------------------------------------------------------
# Deep inputs
# ---------------------------------------------------------------------------

def test_assignment_chain_at_default_recursion_limit():
    """900 statements go through parse, ``wp_loop_free`` and evaluation at
    the default limit (983 did in a bare interpreter when this was added)."""
    assert sys.getrecursionlimit() == 1000
    n = 900
    program = parse_program("; ".join(["x := x + 1"] * n))
    pre = wp_loop_free(program, parse_exp("x"))
    assert eval_exp(pre, state(x=F(1, 2))) == XReal.of(n + F(1, 2))


def test_deep_term_raises_from_compilation():
    term = RatLit(F(1))
    for _ in range(5000):
        term = Add(term, RatLit(F(1)))
    with pytest.raises(RecursionError) as info:
        eval_aexpr(term, state())
    assert traceback.extract_tb(info.tb)[-1].name == "_term"


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_deep_conjunction_at_default_recursion_limit(nesting):
    """A chain of 5000 ``&&`` compiles and evaluates without recursion."""
    assert sys.getrecursionlimit() == 1000
    x, y = VarRef(Var("x")), VarRef(Var("y"))
    n = 5000
    parts = [Lt(x, RatLit(F(i + 1))) for i in range(n)]
    parts[n // 2] = Lt(y, RatLit(F(1)))
    chain = (left_nested if nesting == "left" else right_nested)(parts)
    # x < i + 1 holds for every i at x = 0; y < 1 fails at y = 1
    assert eval_bexpr(chain, state()) is True
    assert eval_bexpr(chain, state(y=F(1, 2))) is True
    assert eval_bexpr(chain, state(y=1)) is False
    assert eval_bexpr(chain, state(x=n)) is False


def test_deep_guard_exit_code(capsys, tmp_path):
    """A ``RecursionError`` raised while compiling a guard exits 2."""
    loop = tmp_path / "loop.pgcl"
    loop.write_text("while (" + " + ".join(["1"] * 1500) + " < x) { x := x + 1 }")
    code = main(["wp", "--kleene", "2", "-p", str(loop), "-f", "x", "--at", "x=0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: input nested too deeply")
    assert len(err.splitlines()) == 1
