"""Compiled evaluation: agreement with the structural reference, closure
lifetime, staleness after rewrites, and deep inputs."""

import gc
import itertools
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
from wpengine.normalform import to_dnf
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
    eq_,
    implies_,
    le_,
    or_,
    subst_exp,
    true_,
    with_intrinsic,
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
        match rng.randint(0, 7):
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
            case 4:
                # {0,1}-valued, so an inf over it may stop at 0
                return Guard(self.guard(2), Arith(RatLit(F(1))))
            case 5:
                # stops at 0, or reads infinity over the empty domain
                return Inf(Var("w"), Guard(self.guard(2), Arith(RatLit(F(1)))))
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
            infinite += got is XReal.INF
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
# Chains of clauses over shared atoms
# ---------------------------------------------------------------------------

def _compiled_by(phi, builder: str) -> bool:
    """Whether ``phi``'s closure is made by the named compile function."""
    return semantics._guard(phi).__qualname__ == f"{builder}.<locals>.fn"


def test_shared_clause_chains_match_reference_fuzz():
    """Chains of implications, disjunctions and equalities over one pool of
    guards, so that atoms and sub-chains recur across clauses."""
    rng = random.Random(7104)
    outcomes = {True: 0, False: 0}
    tabled = 0
    for _ in range(150):
        literals = [rand_value(rng) for _ in range(3)]
        maker = TermMaker(rng, literals)
        pool = [maker.guard(2) for _ in range(4)]
        pool += [eq_(maker.side(), maker.side()), le_(maker.side(), maker.side())]
        pool += [Not(rng.choice(pool))]
        parts = []
        for _ in range(rng.randint(2, 12)):
            p, q = rng.choice(pool), rng.choice(pool)
            match rng.randint(0, 4):
                case 0:
                    parts.append(implies_(p, q))
                case 1:
                    parts.append(or_(p, q))
                case 2:
                    parts.append(eq_(maker.side(), maker.side()))
                case 3:
                    parts.append(And(p, q))
                case _:
                    parts.append(p)
        chain = rng.choice([left_nested, right_nested])(parts)
        if rng.random() < 0.2:
            chain = Not(chain)
        for _ in range(8):
            sigma = rand_state(rng, literals)
            got = eval_bexpr(chain, sigma)
            assert type(got) is bool and got == ref_bexpr(chain, sigma)
            outcomes[got] += 1
        tabled += _compiled_by(chain, "_clause_table")
    assert min(outcomes.values()) > 150
    assert tabled > 50


SUMMAND_GUARDS = [
    lambda s, c: Lt(s, c),
    lambda s, c: le_(s, c),
    lambda s, c: eq_(s, c),
    lambda s, c: And(le_(c, s), Lt(s, RatLit(c.value + 2))),
    lambda s, c: or_(Lt(s, c), Lt(RatLit(c.value + 2), s)),
    lambda s, c: Not(eq_(s, c)),
]


def test_cut_form_matches_reference_at_every_sign_pattern():
    """``to_dnf(f).matrix`` of 1-6 guarded summands, each guard over a
    variable of its own, at a state for each of the 2^n sign patterns and
    cuts at, below and above the pattern's sum."""
    rng = random.Random(7105)
    compared = 0
    for _ in range(30):
        n = rng.randint(1, 6)
        literals = [rand_value(rng) for _ in range(3)]
        maker = TermMaker(rng, literals)
        summands, choices = [], []
        for i in range(n):
            s, c = VarRef(Var(f"s{i}")), RatLit(F(rng.randint(1, 3)))
            phi = rng.choice(SUMMAND_GUARDS)(s, c)
            # values of s at which phi holds, and at which it fails
            values = {True: [], False: []}
            for q in (F(0), c.value, c.value + 1, c.value + 3):
                values[ref_bexpr(phi, state(**{f"s{i}": q}))].append(q)
            summands.append(Guard(phi, Arith(maker.term(2))))
            choices.append(values)
        d = to_dnf(reduce(Plus, summands))
        for signs in itertools.product((True, False), repeat=n):
            base = rand_state(rng, literals)
            bindings = {v: q for v, q in base.items() if v != d.cut_var}
            for i, sign in enumerate(signs):
                bindings[Var(f"s{i}")] = rng.choice(choices[i][sign])
            sigma = State(bindings)
            total = sum((ref_aexpr(g.body.expr, sigma)
                         for g, sign in zip(summands, signs) if sign), F(0))
            for cut in {total, total + F(1, 2), max(total - F(1, 3), F(0))}:
                at = sigma.set(d.cut_var, cut)
                got = eval_bexpr(d.matrix, at)
                assert got == ref_bexpr(d.matrix, at) == (cut < total)
                compared += 1
        if n > 1:
            assert _compiled_by(d.matrix, "_clause_table")
    assert compared > 1000


def _counting(atom, calls: list):
    """Put a closure that logs its calls in ``atom``'s compiled slot."""
    def fn(s):
        calls.append(atom)
        return ref_bexpr(atom, s)
    object.__setattr__(atom, "_fn", fn)


def test_shared_atom_runs_at_most_once_per_call():
    x, y = VarRef(Var("x")), VarRef(Var("y"))
    a, b, c = Lt(x, RatLit(F(1))), Lt(y, RatLit(F(2))), Lt(x, y)
    calls = []
    for atom in (a, b, c):
        _counting(atom, calls)
    chain = balanced(And, [implies_(a, b), or_(Not(a), c), implies_(Not(b), Not(c)),
                           or_(a, Not(b)), Not(And(a, And(b, Not(c))))], true_)
    most = 0
    for xv in (0, 1, 2, 3):
        for yv in (0, 1, 2, 3):
            sigma = state(x=xv, y=yv)
            calls.clear()
            assert eval_bexpr(chain, sigma) == ref_bexpr(chain, sigma)
            assert len(calls) == len({id(atom) for atom in calls})
            most = max(most, len(calls))
    assert most == 3


def test_cut_form_runs_each_summand_guard_at_most_once_per_call():
    names = [Var(f"s{i}") for i in range(5)]
    guards = [Lt(VarRef(v), RatLit(F(1))) for v in names]
    calls = []
    for phi in guards:
        _counting(phi, calls)
    f = reduce(Plus, [Guard(phi, Arith(VarRef(v))) for phi, v in zip(guards, names)])
    d = to_dnf(f)
    for signs in itertools.product((0, 2), repeat=len(names)):
        sigma = State(dict(zip(names, map(F, signs)))).set(d.cut_var, 1)
        calls.clear()
        assert eval_bexpr(d.matrix, sigma) == ref_bexpr(d.matrix, sigma)
        assert sorted(map(id, calls)) == sorted(map(id, guards))


def _lt_atoms(phi) -> list:
    """The distinct ``Lt`` nodes of the guard DAG ``phi``."""
    found, seen, stack = [], set(), [phi]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        match node:
            case Lt():
                found.append(node)
            case And(l, r):
                stack += [l, r]
            case Not(arg):
                stack.append(arg)
    return found


def _is_compiled(node) -> bool:
    try:
        node._fn
    except AttributeError:
        return False
    return True


def test_cut_form_compiles_only_the_atoms_a_call_reads():
    """Ten summands: five terms ``[x < a && y < b] * (x + i)``."""
    f = parse_exp(" + ".join(f"[x < a && y < b] * (x + {i})" for i in range(1, 6)))
    d = to_dnf(f)
    atoms = _lt_atoms(d.matrix)
    cuts = [atom for atom in atoms if atom.left == VarRef(d.cut_var)]
    assert (len(atoms), len(cuts)) == (1034, 1024)

    def compiled():
        return (sum(map(_is_compiled, atoms)), sum(map(_is_compiled, cuts)))

    # every guard holds: the pattern asserts all ten summands
    sigma = state(x=1, y=1, a=2, b=2)
    assert eval_bexpr(d.matrix, sigma.set(d.cut_var, 19)) is True
    assert compiled() == (11, 1)
    assert eval_bexpr(d.matrix, sigma.set(d.cut_var, 20)) is False
    assert compiled() == (11, 1)
    # no guard holds: the pattern that negates every summand, total 0
    assert eval_bexpr(d.matrix, sigma.set(Var("x"), 3).set(d.cut_var, 0)) is False
    assert compiled() == (12, 2)


def test_clause_ending_inside_the_trie_matches_reference():
    """A clause whose literals begin another's ends at an inner edge of the
    trie, which a call grows past only when the shorter clause holds."""
    x, y = VarRef(Var("x")), VarRef(Var("y"))
    a, b, c = Lt(x, RatLit(F(1))), Lt(y, RatLit(F(1))), Lt(x, y)
    chain = And(Not(And(a, And(b, c))), And(Not(And(a, b)), or_(c, a)))
    for xv, yv in itertools.product((0, 1, 2), repeat=2):
        sigma = state(x=xv, y=yv)
        assert eval_bexpr(chain, sigma) == ref_bexpr(chain, sigma)
    assert _compiled_by(chain, "_clause_table")


def test_interrupted_growth_leaves_no_half_read_clause(monkeypatch):
    """An exception inside a call that grows the trie, such as an
    interrupt, must not leave later calls a clause with a literal lost."""
    f = parse_exp(" + ".join(f"[x < a && y < b] * (x + {i})" for i in range(1, 4)))
    d = to_dnf(f)
    assert eval_bexpr(d.matrix, state()) is False
    literal, reads = semantics._literal, []

    def interrupted(phi):
        reads.append(phi)
        if len(reads) == 5:
            raise KeyboardInterrupt
        return literal(phi)
    monkeypatch.setattr(semantics, "_literal", interrupted)
    sigma = state(x=1, y=1, a=2, b=2)
    with pytest.raises(KeyboardInterrupt):
        eval_bexpr(d.matrix, sigma.set(d.cut_var, 1))
    monkeypatch.undo()
    for xv, yv, cut in itertools.product((1, 3), (1, 3), (0, 4, 8, 11, 12)):
        at = sigma.set(Var("x"), xv).set(Var("y"), yv).set(d.cut_var, cut)
        assert eval_bexpr(d.matrix, at) == ref_bexpr(d.matrix, at)


def test_zero_additions_fold_at_compile_time():
    x = VarRef(Var("x"))
    a = Mul(x, RatLit(F(3)))
    zero = RatLit(F(0))
    assert semantics._term(Add(a, zero)) is semantics._term(a)
    assert semantics._term(Add(zero, a)) is semantics._term(a)
    nested = Add(Add(zero, zero), Add(a, RatLit(F(0))))
    assert semantics._term(nested) is semantics._term(a)
    assert eval_aexpr(nested, state(x=2)) == 6 == ref_aexpr(nested, state(x=2))
    assert eval_aexpr(Add(zero, zero), state(x=2)) == 0


def test_chains_without_shared_atoms_keep_the_plain_loop():
    x, c = VarRef(Var("x")), VarRef(Var("c"))
    loop_guard = And(eq_(c, RatLit(F(1))), Lt(x, RatLit(F(40))))
    assert _compiled_by(loop_guard, "_conjunction")
    # a negated chain, like every implication at the root, too
    assert _compiled_by(implies_(Lt(x, c), Lt(c, x)), "_conjunction")


# ---------------------------------------------------------------------------
# Inf searches that stop at 0
# ---------------------------------------------------------------------------

def test_inf_stops_at_zero():
    """Over (0, 1, 2, 3) at x=0, the body is 0 at w=0, so the search reads
    its atom once."""
    x, w = Var("x"), Var("w")
    atom = Lt(VarRef(x), VarRef(w))
    calls = []
    _counting(atom, calls)
    f = Inf(w, Guard(atom, Arith(RatLit(F(1)))))
    dom = QDomain([F(0), F(1), F(2), F(3)])
    assert eval_exp(f, state(), dom) == ZERO == ref_exp(f, state(), dom)
    assert len(calls) == 1


def test_inf_calls_no_plan_past_zero():
    """Oracle-assisted, an inf that reaches 0 calls its body's plan at no
    later domain value, so a plan that would raise there does not."""
    w = Var("w")

    def plan(sigma, rec):
        if sigma[w]:
            raise AssertionError("plan called past 0")
        return ZERO

    f = Inf(w, with_intrinsic(Arith(VarRef(w)), plan))
    assert eval_exp(f, state(), QDomain([F(0), F(1)]), mode=ORACLE) == ZERO


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
    # delayed, ``g`` reads the original with x bound to 5; ``ref_exp``
    # builds it, and built, its rewritten nodes read 5 for x while the
    # original's closures read x
    assert eval_exp(g, sigma) == XReal.of(10) == ref_exp(g, sigma)
    assert eval_exp(g, sigma) == XReal.of(10)
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


def test_deep_shared_clauses_at_default_recursion_limit():
    """Atoms shared by a clause of 5000 literals, and by 5000 clauses,
    compile and evaluate without recursion."""
    assert sys.getrecursionlimit() == 1000
    x, y = VarRef(Var("x")), VarRef(Var("y"))
    n = 5000
    below = Lt(y, RatLit(F(1)))
    long = left_nested([Lt(x, RatLit(F(i + 1))) for i in range(n)])
    # (long -> y < 1) && (long || !(y < 1)), and long holds when x < 1
    deep = And(implies_(long, below), or_(long, Not(below)))
    assert _compiled_by(deep, "_clause_table")
    assert [eval_bexpr(deep, sigma) for sigma in
            (state(), state(y=1), state(x=n, y=1), state(x=n))] == [True, False, True, False]
    # y < 1 || x < 1, with y < 1 in every clause
    wide = balanced(And, [or_(below, Lt(x, RatLit(F(i + 1)))) for i in range(n)], true_)
    assert _compiled_by(wide, "_clause_table")
    assert [eval_bexpr(wide, sigma) for sigma in
            (state(), state(y=1), state(x=1, y=1), state(x=1))] == [True, True, False, True]


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
