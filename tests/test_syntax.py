"""Parsing, printing, substitution, and variable analysis."""

import copy
import gc
import operator
import pickle
import random
import sys
import weakref
from dataclasses import fields, is_dataclass
from fractions import Fraction as F
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from debruijn import nameless, subst_nameless
from wpengine.errors import IllegalProduct, ParseError, ProbabilityOutOfRange
from wpengine.parser import (
    parse_aexpr,
    parse_bexpr,
    parse_exp,
    parse_fo,
    parse_program,
    parse_state,
)
from wpengine.semantics import calkin_wilf, eval_bexpr, eval_exp, state
from wpengine.syntax import (
    AExpr,
    Add,
    And,
    Arith,
    Assign,
    Atom,
    BExpr,
    Exists,
    Exp,
    FOAnd,
    FOFormula,
    FOImplies,
    FONot,
    FOOr,
    Forall,
    Guard,
    Inf,
    Ite,
    Lt,
    Monus,
    Mul,
    Nat,
    Not,
    PChoice,
    Plus,
    RatLit,
    Scale,
    Seq,
    Skip,
    Sup,
    Var,
    VarRef,
    While,
    _CHILDREN,
    _children,
    all_vars,
    avar,
    balanced,
    constants,
    eq_,
    free_vars,
    fresh_var,
    implies_,
    le_,
    or_,
    print_exp,
    print_fo,
    print_program,
    subst_exp,
    substitute,
    true_,
)
from wpengine.xreal import XReal, ZERO


def test_parse_skip():
    assert parse_program("skip") == Skip()


def test_parse_pchoice():
    prog = parse_program("{x := 0} [1/3] {x := 1}")
    assert prog == PChoice(Assign(Var("x"), RatLit(F(0))), F(1, 3),
                           Assign(Var("x"), RatLit(F(1))))


def test_parse_geometric_loop():
    prog = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    assert isinstance(prog, While)
    assert prog.cond == eq_(VarRef(Var("c")), RatLit(F(1)))
    assert isinstance(prog.body, Seq)
    assert isinstance(prog.body.first, PChoice)
    assert prog.body.second == Assign(Var("x"), Add(VarRef(Var("x")), RatLit(F(1))))


def test_parse_exp_examples():
    e = parse_exp("x + [c = 1] * 2")
    assert e == Plus(Arith(VarRef(Var("x"))),
                     Guard(eq_(VarRef(Var("c")), RatLit(F(1))), Arith(RatLit(F(2)))))
    e2 = parse_exp("sup v: [v*v < 2] * v")
    v = Var("v")
    assert e2 == Sup(v, Guard(Lt(Mul(VarRef(v), VarRef(v)), RatLit(F(2))),
                              Arith(VarRef(v))))
    # a quantifier as a later factor of a product chain
    e3 = parse_exp("2 * sup v: [v < 1] * v")
    assert e3 == Scale(RatLit(F(2)), Sup(v, Guard(Lt(VarRef(v), RatLit(F(1))),
                                                  Arith(VarRef(v)))))
    assert print_exp(e3) == "2 * (sup v: [v < 1] * v)"


def test_illegal_product():
    with pytest.raises(IllegalProduct):
        parse_exp("(sup v: v) * (inf w: w)")


def test_bare_guard_rejected():
    with pytest.raises(ParseError):
        parse_exp("[x < 1]")


def test_probability_range():
    with pytest.raises(ProbabilityOutOfRange):
        parse_program("{skip} [3/2] {skip}")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_program("x := ;")
    assert err.value.line == 1
    assert err.value.column == 6


def test_reserved_names_rejected_in_programs():
    with pytest.raises(ParseError):
        parse_program("$x := 1")
    # but fine in expectations
    assert parse_exp("$s + 1") == Plus(Arith(VarRef(Var("$s"))), Arith(RatLit(F(1))))


def test_monus_is_minus():
    a = parse_aexpr("3 - 5")
    assert a == Monus(RatLit(F(3)), RatLit(F(5)))


def test_comments():
    prog = parse_program("skip // trailing words\n; x := 1")
    assert prog == Seq(Skip(), Assign(Var("x"), RatLit(F(1))))


def test_sugar_lowering():
    core = parse_bexpr("x = 1")
    assert core == eq_(VarRef(Var("x")), RatLit(F(1)))
    assert parse_bexpr("x <= y") == le_(VarRef(Var("x")), VarRef(Var("y")))
    assert parse_bexpr("x > y") == Lt(VarRef(Var("y")), VarRef(Var("x")))
    assert parse_bexpr("true") == true_()
    assert parse_bexpr("x >= 1") == le_(RatLit(F(1)), VarRef(Var("x")))
    x1, y2 = Lt(VarRef(Var("x")), RatLit(F(1))), Lt(VarRef(Var("y")), RatLit(F(2)))
    assert parse_exp("[x < 1 -> y < 2] * 3") == Guard(implies_(x1, y2),
                                                      Arith(RatLit(F(3))))
    assert parse_fo("true") == Atom(true_())
    lowered = parse_bexpr("x < 1 || y < 1")
    assert lowered == or_(Lt(VarRef(Var("x")), RatLit(F(1))),
                          Lt(VarRef(Var("y")), RatLit(F(1))))


def test_sugar_or_equivalence():
    """Or lowers to the double-negation form, pointwise."""
    phi = parse_bexpr("x < 1")
    psi = parse_bexpr("y < 1")
    lowered = Not(And(Not(phi), Not(psi)))
    for sx in range(3):
        for sy in range(3):
            sigma = state(x=sx, y=sy)
            assert eval_bexpr(or_(phi, psi), sigma) == eval_bexpr(lowered, sigma)


def test_free_vars():
    assert free_vars(parse_exp("sup v: v + x")) == {Var("x")}
    assert free_vars(parse_exp("[y < 1] * z")) == {Var("y"), Var("z")}


def test_fresh_var_priming():
    assert fresh_var({Var("v"), Var("v'")}) == Var("v''")
    assert fresh_var(set()) == Var("v")
    assert fresh_var({Var("x")}, base="x") == Var("x'")


def test_subst_direct():
    f = parse_exp("x + 1")
    got = subst_exp(f, Var("x"), parse_aexpr("2 * y"))
    assert got == Plus(Arith(Mul(RatLit(F(2)), VarRef(Var("y")))),
                       Arith(RatLit(F(1))))


def test_subst_bound_untouched():
    f = parse_exp("sup x: x")
    assert subst_exp(f, Var("x"), RatLit(F(5))) == f


def test_subst_capture_avoidance():
    f = parse_exp("sup v: v + x")
    got = subst_exp(f, Var("x"), VarRef(Var("v")))
    assert got == parse_exp("sup v': v' + v")
    # the nameless reference agrees
    assert nameless(got) == subst_nameless(nameless(f), "x", ("free", "v"))


# ---------------------------------------------------------------------------
# Round-trip and substitution properties
# ---------------------------------------------------------------------------

names = st.sampled_from(["x", "y", "z", "v", "w"])
rats = st.builds(F, st.integers(0, 9), st.integers(1, 9))


def aexprs(depth):
    leaf = st.one_of(st.builds(RatLit, rats),
                     st.builds(lambda n: VarRef(Var(n)), names))
    if depth == 0:
        return leaf
    sub = aexprs(depth - 1)
    return st.one_of(leaf, st.builds(Add, sub, sub), st.builds(Mul, sub, sub),
                     st.builds(Monus, sub, sub))


def bexprs(depth):
    comparison = st.one_of(
        st.builds(Lt, aexprs(1), aexprs(1)),
        st.builds(eq_, aexprs(1), aexprs(1)),
        st.builds(le_, aexprs(1), aexprs(1)),
    )
    if depth == 0:
        return comparison
    sub = bexprs(depth - 1)
    return st.one_of(comparison, st.builds(And, sub, sub), st.builds(Not, sub))


def exps(depth):
    # stays within the parser's image: the concrete syntax reads a
    # parenthesized sum of terms back as a sum of expectations, so compound
    # arithmetic enters only through scale factors and guards
    leaf = st.builds(Arith, st.one_of(st.builds(RatLit, rats),
                                      st.builds(lambda n: VarRef(Var(n)), names)))
    if depth == 0:
        return leaf
    sub = exps(depth - 1)
    quantified = st.builds(
        lambda ctor, n, body: ctor(Var(n), body),
        st.sampled_from([Sup, Inf]), names, sub,
    )
    return st.one_of(
        leaf,
        st.builds(Guard, bexprs(1), sub),
        st.builds(Scale, aexprs(1), sub),
        st.builds(Plus, sub, sub),
        quantified,
    )


def programs(depth):
    assign = st.builds(lambda n, a: Assign(Var(n), a), names, aexprs(1))
    leaf = st.one_of(st.just(Skip()), assign)
    if depth == 0:
        return leaf
    sub = programs(depth - 1)
    prob = st.builds(F, st.integers(0, 4), st.just(4))
    return st.one_of(
        leaf,
        st.builds(Seq, st.one_of(st.just(Skip()), assign), sub),
        st.builds(lambda a, p, b: PChoice(a, p, b), sub, prob, sub),
        st.builds(Ite, bexprs(1), sub, sub),
        st.builds(While, bexprs(1), sub),
    )


@settings(max_examples=120, deadline=None)
@given(exps(4))
def test_print_parse_roundtrip_exp(f):
    assert parse_exp(print_exp(f)) == f


@settings(max_examples=120, deadline=None)
@given(programs(4))
def test_print_parse_roundtrip_program(prog):
    assert parse_program(print_program(prog)) == prog


def fos(depth):
    atom = st.one_of(st.builds(Atom, st.builds(Lt, aexprs(1), aexprs(1))),
                     st.builds(Atom, st.builds(eq_, aexprs(1), aexprs(1))))
    if depth == 0:
        return atom
    sub = fos(depth - 1)
    return st.one_of(
        atom,
        st.builds(Nat, st.builds(Var, names)),
        st.builds(FOAnd, sub, sub),
        st.builds(FOOr, sub, sub),
        st.builds(FOImplies, sub, sub),
        st.builds(FONot, sub),
        st.builds(lambda n, b: Exists(Var(n), b), names, sub),
        st.builds(lambda n, b: Forall(Var(n), b), names, sub),
    )


@settings(max_examples=120, deadline=None)
@given(fos(4))
def test_print_parse_roundtrip_fo(p):
    assert parse_fo(print_fo(p)) == p


@settings(max_examples=80, deadline=None)
@given(exps(3), st.sampled_from(["x", "v"]), aexprs(1))
def test_subst_matches_nameless_reference(f, name, value):
    got = subst_exp(f, Var(name), value)
    want = subst_nameless(nameless(f), name, nameless(Arith(value))[1])
    assert nameless(got) == want


@settings(max_examples=60, deadline=None)
@given(exps(3), st.sampled_from(["x", "v"]), aexprs(1),
       st.integers(0, 5), st.integers(0, 6))
def test_substitution_lemma(f, name, value, dom_size, seed):
    """eval(f[x/a], s) = eval(f, s[x -> eval(a, s)]) for every finite domain."""
    from wpengine.semantics import eval_aexpr

    import random

    rng = random.Random(seed)
    sigma = state(**{n: F(rng.randint(0, 4), rng.randint(1, 3))
                     for n in ["x", "y", "z", "v", "w"]})
    x = Var(name)
    dom = calkin_wilf(dom_size)
    lhs = eval_exp(subst_exp(f, x, value), sigma, dom)
    rhs = eval_exp(f, sigma.set(x, eval_aexpr(value, sigma)), dom)
    assert lhs == rhs


def test_parse_state():
    sigma = parse_state("c=1,x=7/2")
    assert sigma[Var("c")] == 1
    assert sigma[Var("x")] == F(7, 2)
    assert sigma[Var("unbound")] == 0
    assert parse_state("") == state()


def test_print_program_roundtrip_geometric():
    text = "while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }"
    prog = parse_program(text)
    assert parse_program(print_program(prog)) == prog


@settings(max_examples=40, deadline=None)
@given(st.builds(Arith, aexprs(3)), st.integers(0, 4))
def test_compound_arith_leaves_roundtrip_semantically(f, seed):
    """Arith-with-structure prints to text that reparses to an equal value."""
    import random

    rng = random.Random(seed)
    sigma = state(**{n: F(rng.randint(0, 4), rng.randint(1, 3))
                     for n in ["x", "y", "z", "v", "w"]})
    reparsed = parse_exp(print_exp(f))
    assert eval_exp(reparsed, sigma) == eval_exp(f, sigma)


# ---------------------------------------------------------------------------
# Substitution against the nameless reference, sharing, and memory
# ---------------------------------------------------------------------------

# few names, one of them a primed name that fresh renaming produces, so that
# binders shadow each other and capture incoming terms often
FUZZ_NAMES = ["x", "y", "v", "v'", "w"]


def _fuzz_aexpr(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.3:
            return RatLit(F(rng.randint(0, 3)))
        return VarRef(Var(rng.choice(FUZZ_NAMES)))
    ctor = rng.choice([Add, Mul, Monus])
    return ctor(_fuzz_aexpr(rng, depth - 1), _fuzz_aexpr(rng, depth - 1))


def _fuzz_exp(rng, depth, pool):
    """A random expectation that reuses earlier subterms, so it is a DAG."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    roll = rng.random()
    if depth == 0 or roll < 0.1:
        out = Arith(_fuzz_aexpr(rng, 1))
    elif roll < 0.5:
        ctor = rng.choice([Sup, Inf])
        out = ctor(Var(rng.choice(FUZZ_NAMES)), _fuzz_exp(rng, depth - 1, pool))
    elif roll < 0.7:
        out = Plus(_fuzz_exp(rng, depth - 1, pool), _fuzz_exp(rng, depth - 1, pool))
    elif roll < 0.85:
        cond = Lt(_fuzz_aexpr(rng, 1), _fuzz_aexpr(rng, 1))
        out = Guard(cond if rng.random() < 0.7 else Not(cond),
                    _fuzz_exp(rng, depth - 1, pool))
    else:
        out = Scale(_fuzz_aexpr(rng, 1), _fuzz_exp(rng, depth - 1, pool))
    pool.append(out)
    return out


def _parallel_nameless(f, pairs):
    """Simultaneous substitution on the nameless image, via placeholders."""
    tree = nameless(f)
    for x, _ in pairs:
        tree = subst_nameless(tree, x.name, ("free", "#" + x.name))
    for x, value in pairs:
        tree = subst_nameless(tree, "#" + x.name, nameless(Arith(value))[1])
    return tree


def test_subst_fuzz_matches_nameless_reference():
    """Seeded fuzz with shadowing, nested capture and shared subterms.

    Each case is a sum of many random terms, so that one walk renames many
    binders: a memo keyed on nodes that die during the walk goes wrong there.
    """
    rng = random.Random(2021)
    for case in range(1000):
        pool: list = []
        f = _fuzz_exp(rng, 4, pool)
        for _ in range(rng.randrange(8, 24)):
            f = Plus(f, _fuzz_exp(rng, 4, pool))
        if rng.random() < 0.75:
            pairs = [(Var(rng.choice(FUZZ_NAMES)), _fuzz_aexpr(rng, 2))]
            got = subst_exp(f, *pairs[0])
        else:
            xs = rng.sample(FUZZ_NAMES, 2)
            pairs = [(Var(x), _fuzz_aexpr(rng, 2)) for x in xs]
            got = substitute(f, dict(pairs))
        assert nameless(got) == _parallel_nameless(f, pairs), \
            (case, print_exp(f), [(x.name, str(a)) for x, a in pairs])


def test_subst_renamed_summands_keep_their_own_bodies():
    """x := y renames the binder of every summand; each must come back as
    its own summand, however the renamed copies of earlier summands were
    allocated and freed."""
    count = 200
    text = " + ".join(f"(sup y: [x + {i} < y] * (y * {i} + x))"
                      for i in range(1, count + 1))
    f = parse_exp(text)
    got = subst_exp(f, Var("x"), VarRef(Var("y")))

    def summands(g):
        out = []
        while isinstance(g, Plus):
            out.append(g.right)
            g = g.left
        return [g] + out[::-1]

    before, after = summands(f), summands(got)
    assert len(before) == len(after) == count
    wrong = [i for i, (s, t) in enumerate(zip(before, after), 1)
             if nameless(t) != subst_nameless(nameless(s), "x", ("free", "y"))]
    assert wrong == []
    assert print_exp(after[11]) == "sup y': [y + 12 < y'] * (y' * 12 + y)"


def test_constants_visits_each_distinct_node_once():
    visits = {}

    class CountedPlus(Plus):
        def __getattribute__(self, name):
            if name == "left":
                visits[id(self)] = visits.get(id(self), 0) + 1
            return super().__getattribute__(name)

    # a doubling DAG: 2 * 40 + 1 distinct nodes, 2^41 - 1 tree nodes
    g = Arith(RatLit(F(1)))
    for level in range(40):
        g = CountedPlus(g, Scale(RatLit(F(level + 2)), g))
    assert constants(g) == {F(k) for k in range(1, 42)}
    assert len(visits) == 40
    assert set(visits.values()) == {1}


def test_child_table_gives_each_node_its_fields():
    """Every node class has an entry, whose children are the node-valued
    fields in field order; a subclass reads as its node class, and any
    other object raises a TypeError that names its type alone."""
    node_classes = tuple(c for union in (AExpr, BExpr, Exp, FOFormula)
                         for c in get_args(union))
    assert set(_CHILDREN) == set(node_classes)
    v, x, one = Var("v"), avar("x"), RatLit(F(1))
    lt, ge = Lt(x, one), Not(Lt(one, x))
    e, g = Arith(x), Arith(one)
    p, q = Atom(lt), Nat(v)
    samples = [
        one, x, Add(x, one), Mul(one, x), Monus(x, one), lt, ge, And(lt, ge),
        e, Guard(lt, e), Plus(e, g), Scale(one, e), Sup(v, e), Inf(v, g),
        p, q, FOAnd(p, q), FOOr(q, p), FONot(p), FOImplies(p, q),
        Exists(v, p), Forall(v, q),
    ]
    assert {type(node) for node in samples} == set(node_classes)
    for node in samples:
        values = (getattr(node, f.name) for f in fields(node))
        want = tuple(c for c in values if isinstance(c, node_classes))
        assert _children(node) == want
        assert all(a is b for a, b in zip(_children(node), want))

    class Sub(Plus):
        pass

    assert _children(Sub(e, g)) == (e, g)
    for foreign in (F(1), v, Skip(), "x"):
        with pytest.raises(TypeError) as raised:
            _children(foreign)
        assert str(raised.value) == type(foreign).__name__


def test_substitution_rebuilds_nodes_from_their_children():
    """A substituted expectation is one delay over the original, of its
    class, subclasses included.  Built, a changed tagged node has the
    original delayed under the mapping as its plan and its unchanged
    children as the same objects; an untouched node builds to its own
    children and plan, and a formula is refused whether or not a mapped
    variable occurs."""

    class Tagged(Plus):
        pass

    x, v = Var("x"), Var("v")
    mapping = {x: parse_aexpr("y + 1")}
    plan = lambda sigma, rec: ZERO
    y, lt = avar("y"), parse_bexpr("y < 1")
    xs, ys = Arith(VarRef(x)), Arith(y)
    nodes = [
        Arith(Add(VarRef(x), y), intrinsic=plan),
        Guard(lt, xs, intrinsic=plan),
        Plus(ys, xs, intrinsic=plan),
        Scale(y, xs, intrinsic=plan),
        Tagged(xs, ys, intrinsic=plan),
    ]
    for node in nodes:
        out = substitute(node, mapping)
        assert isinstance(out, type(node))
        assert out._delay[0] is node and out._delay[1] == mapping
        plan_of_out = out.intrinsic  # builds ``out``
        assert out._delay is None and type(out) is type(node)
        assert isinstance(plan_of_out, type(node))
        assert plan_of_out._delay[0] is node and plan_of_out._delay[1] == mapping
        for old, new in zip(_children(node), _children(out), strict=True):
            assert (new is old) == (x not in free_vars(old))
        same = substitute(node, {v: y})
        assert same == node and same.intrinsic is plan
        assert all(map(operator.is_, _children(same), _children(node)))
    term = nodes[0].expr
    assert substitute(term, mapping).right is term.right
    for formula in (Atom(lt), FOAnd(Atom(lt), Nat(x)), Exists(v, Atom(lt))):
        for m in (mapping, {v: y}):
            with pytest.raises(TypeError):
                substitute(formula, m)


def test_dropped_terms_are_freed():
    """No cache outlives the terms: the guards of a dropped pure term die,
    also once a substituted copy, a delay over the original, is gone."""
    from wpengine.semantics import ORACLE
    from wpengine.series import make_sum

    pure = make_sum(parse_exp("[x < $s] * $s + 1/$s"), Var("n")).pure
    copy = subst_exp(pure, Var("n"), parse_aexpr("m + 1"))
    assert copy._delay[0] is pure
    assert eval_exp(copy, state(m=1, x=1), calkin_wilf(0), mode=ORACLE) == \
        eval_exp(pure, state(n=2, x=1), calkin_wilf(0), mode=ORACLE)
    assert copy.intrinsic._delay[0] is pure  # built, its plan is a delay too
    free_vars(pure)
    guards, seen, stack = [], set(), [pure]
    while stack:
        node = stack.pop()
        if id(node) in seen or not is_dataclass(node):
            continue
        seen.add(id(node))
        if isinstance(node, (Lt, And, Not)):
            guards.append(weakref.ref(node))
        stack.extend(getattr(node, field.name) for field in fields(node))
    assert guards
    del pure, copy, node, stack
    gc.collect()
    alive = [ref for ref in guards if ref() is not None]
    assert alive == []


def _cached_set_elements(root) -> int:
    """Elements of the variable sets cached on the nodes of a term or guard."""
    total, seen, stack = 0, set(), [root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        total += len(getattr(n, "_vars", ()))
        if isinstance(n, (Add, Mul, Monus, Lt, And)):
            stack += [n.left, n.right]
        elif isinstance(n, Not):
            stack.append(n.arg)
    return total


def test_variable_sets_stay_linear_in_the_guard():
    """A left-nested && chain of 2000 comparisons keeps one set of its 2000
    variables, not one per connective (about two million elements)."""
    comparisons = [Lt(VarRef(Var(f"x{i}")), RatLit(F(i))) for i in range(2000)]
    chain = comparisons[0]
    for c in comparisons[1:]:
        chain = And(chain, c)
    assert len(free_vars(Guard(chain, Arith(RatLit(F(1)))))) == 2000
    assert _cached_set_elements(chain) <= 2000
    # a larger guard reads the set cached on its subterm
    wider = And(Not(chain), Lt(VarRef(Var("y")), VarRef(Var("x0"))))
    assert free_vars(wider) == free_vars(chain) | {Var("y")}
    assert _cached_set_elements(wider) <= 2 * 2000 + 1
    # substitution caches no sets on the nodes it walks (it recurses, so
    # the conjunction is balanced here)
    tree = balanced(And, comparisons, None)
    f = Guard(tree, Arith(RatLit(F(1))))
    assert len(free_vars(f)) == 2000
    got = subst_exp(f, Var("x0"), RatLit(F(5)))
    assert got.cond.right is tree.right
    assert _cached_set_elements(tree) <= 2000


def test_variable_sets_of_deep_terms_need_no_recursion():
    names = [Var(f"x{i}") for i in range(7)]
    t = VarRef(names[0])
    for i in range(1, 10_000):
        t = Add(t, VarRef(names[i % 7]))
    f = Sup(names[1], Arith(t))
    assert free_vars(t) == set(names)
    assert free_vars(f) == set(names) - {names[1]}
    assert all_vars(f) == set(names)


def test_substitution_returns_untouched_subterms_themselves():
    f = parse_exp("[x < 1 && y < 2] * (x * (y + 3)) + [z < y] * z")
    got = subst_exp(f, Var("x"), parse_aexpr("w + 1"))
    assert got == parse_exp("[w + 1 < 1 && y < 2] * ((w + 1) * (y + 3)) + [z < y] * z")
    assert got.right is f.right
    assert got.left.cond.right is f.left.cond.right
    assert got.left.body.body is f.left.body.body
    t = parse_aexpr("x * y + (y + 3)")
    assert substitute(t, {Var("x"): RatLit(F(2))}).right is t.right


def test_substitution_rebuilds_only_the_paths_to_a_mapped_variable():
    """An unmapped variable next to a mapped one, in the same guard, term or
    binder body, is left as it is: the children that do not mention the
    mapped variable come back as the same objects."""
    x, y, v = Var("x"), Var("y"), Var("v")
    yref = VarRef(y)
    cond = Lt(yref, RatLit(F(1)))
    square = Arith(Mul(yref, yref))
    f = Sup(v, Guard(cond, Plus(Arith(Add(yref, VarRef(x))),
                                Scale(VarRef(v), square))))
    got = subst_exp(f, x, VarRef(v))
    assert print_exp(got) == "sup v': [y < 1] * ((y + v) + v' * (y * y))"
    assert got.body.cond is cond
    assert got.body.body.left.expr.left is yref
    assert got.body.body.right.body is square
    assert nameless(got) == subst_nameless(nameless(f), "x", ("free", "v"))
    # with no variable set cached on the guard, the walk descends into it
    t = And(Lt(yref, RatLit(F(1))), Lt(VarRef(x), yref))
    got = substitute(t, {x: RatLit(F(2))})
    assert got.left is t.left
    assert got.right.right is yref


def test_built_delayed_node_drops_its_original_and_mapping():
    """A delayed node keeps its original and its mapping's terms alive until
    it is built; built, it holds neither, and it leaves nothing for the
    cyclic collector."""
    post = parse_exp("[x < 1] * x + y")
    unused = parse_aexpr("w + 1")  # mapped, but z does not occur
    mapping = {Var("x"): parse_aexpr("y + 2"), Var("z"): unused}
    refs = [weakref.ref(post), weakref.ref(unused)]
    gc.collect()
    gc.disable()
    try:
        out = substitute(post, mapping)
        del post, unused, mapping
        assert all(ref() is not None for ref in refs)
        assert print_exp(out) == "[y + 2 < 1] * (y + 2) + y"
        assert out._delay is None
        assert all(ref() is None for ref in refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_delayed_node_pickles_and_copies_as_its_built_form():
    f = parse_exp("sup v: [v < x] * v + x")
    mapping = {Var("x"): VarRef(Var("v"))}
    want = print_exp(substitute(f, mapping))
    for copier in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        got = copier(substitute(f, mapping))
        assert type(got) is Sup and got._delay is None
        assert print_exp(got) == want == "sup v': [v' < v] * v' + v"


def test_substitution_leaves_no_reference_cycles():
    """A substitution, and ``wp_loop_free`` made of them, free everything
    they made by reference counting: nothing is left for the collector."""
    from wpengine.wp import wp_loop_free

    f = parse_exp("[x < 1] * x + y")
    mapping = {Var("x"): VarRef(Var("z"))}
    prog = parse_program("x := x + 1; {y := 1} [1/2] {y := 2}; "
                         "if (x < 2) { z := x } else { z := y }")
    post = parse_exp("x + y + z")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            substitute(f, mapping)
        assert gc.collect() == 0
        for _ in range(100):
            wp_loop_free(prog, post)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chain_of_delays_needs_no_recursion():
    """2000 substitutions one after another, each into the delayed result
    of the last, evaluate and build at the default recursion limit."""
    x, y = Var("x"), Var("y")
    swap = {x: VarRef(y), y: VarRef(x)}
    f = parse_exp("x + 2 * y")
    for _ in range(2000):
        f = substitute(f, swap)
    assert sys.getrecursionlimit() == 1000
    assert eval_exp(f, state(x=1, y=5)) == XReal.of(11)
    assert print_exp(f) == "x + 2 * y"
