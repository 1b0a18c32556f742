"""Exact evaluation, quantifier domains, and the extended-real laws."""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from eval_reference import xinf, xsup
from wpengine import semantics
from wpengine.checks import rand_exp
from wpengine.parser import parse_aexpr, parse_bexpr, parse_exp, parse_program
from wpengine.semantics import (
    ORACLE,
    RESTRICTED,
    QDomain,
    State,
    calkin_wilf,
    default_domain,
    eval_aexpr,
    eval_bexpr,
    eval_exp,
    state,
)
from wpengine.syntax import (
    Arith,
    Guard,
    Inf,
    Plus,
    RatLit,
    Scale,
    Sup,
    Var,
    VarRef,
    with_intrinsic,
)
from wpengine.wp import VarSet, char_iterates, forward_dist, kleene_iterate, path_sum
from wpengine.xreal import XReal, ZERO, rat


def test_eval_monus_truncates():
    assert eval_aexpr(parse_aexpr("3 - 5"), state()) == 0
    assert eval_aexpr(parse_aexpr("5 - 3"), state()) == 2


def test_eval_aexpr_examples():
    assert eval_aexpr(parse_aexpr("x + x"), state(x=F(1, 2))) == 1
    assert eval_aexpr(parse_aexpr("7/2 * x"), state(x=2)) == 7


def test_eval_bexpr_examples():
    assert eval_bexpr(parse_bexpr("1 < 2"), state())
    assert eval_bexpr(parse_bexpr("!(x < x)"), state(x=3))
    assert eval_bexpr(parse_bexpr("x = 1 && y < 1"), state(x=1, y=0))


def test_eval_exp_quantifier_free():
    assert eval_exp(parse_exp("[x < 1] * 5 + 3"), state(x=0)) == XReal.of(8)
    assert eval_exp(parse_exp("[x < 1] * 5 + 3"), state(x=1)) == XReal.of(3)


def test_sup_best_below_sqrt2():
    f = parse_exp("sup v: [v*v < 2] * v")
    assert eval_exp(f, state(), calkin_wilf(16)) == XReal.of(F(4, 3))


def test_zero_annihilates_unbounded_sup():
    f = Scale(RatLit(F(0)), parse_exp("sup v: v"))
    for size in (0, 4, 16):
        assert eval_exp(f, state(), calkin_wilf(size)) == ZERO


def test_empty_domain_extremes():
    dom = QDomain([])
    assert eval_exp(parse_exp("sup v: v"), state(), dom) == ZERO
    assert eval_exp(parse_exp("inf v: v + 1"), state(), dom) == XReal.INF


def test_domain_is_the_tuple_of_its_values():
    """A domain keeps the first of equal values in order, rejects a negative
    one, and equal domains are equal and hash alike."""
    dom = QDomain([F(2), 1, F(1, 2), F(2, 1), F(1)])
    assert dom == (F(2), F(1), F(1, 2))
    assert repr(dom) == f"QDomain({[F(2), F(1), F(1, 2)]})"
    assert type(dom.values) is tuple and dom.values == dom
    again = QDomain([F(2), F(1), F(1, 2)])
    assert again == dom and hash(again) == hash(dom)
    assert QDomain([F(1), F(2)]) != QDomain([F(2), F(1)])
    with pytest.raises(ValueError):
        QDomain([F(1), F(-1, 2)])


def test_calkin_wilf_prefix():
    assert list(calkin_wilf(0)) == [F(0)]
    assert list(calkin_wilf(3)) == [F(0), F(1), F(1, 2), F(2)]
    assert list(calkin_wilf(1, {F(7, 5)})) == [F(0), F(1), F(7, 5)]
    # deduplication
    assert list(calkin_wilf(3, {F(1, 2)})) == [F(0), F(1), F(1, 2), F(2)]


def test_default_domain_includes_constants():
    f = parse_exp("[x < 7/3] * 1")
    dom = default_domain(f, state(x=F(9, 4)), k=4)
    assert F(7, 3) in dom and F(9, 4) in dom


def test_state_semantics():
    sigma = state(x=1)
    assert sigma[Var("unbound")] == 0
    tau = sigma.set(Var("x"), 0)
    assert tau == state()
    assert sigma != tau
    assert sigma.set(Var("y"), F(1, 2))[Var("y")] == F(1, 2)
    # persistence
    assert sigma[Var("x")] == 1
    # bindings are keyed on names; the API takes and returns Vars
    cut, primed, x, y = Var("$cut"), Var("v'"), Var("x"), Var("y")
    sigma = State({y: 2, x: 1, cut: F(1, 3), primed: F(5, 2), Var("z"): 0})
    items = list(sigma.items())
    assert items == [(cut, F(1, 3)), (primed, F(5, 2)), (x, 1), (y, 2)]
    assert all(type(v) is Var and type(q) is F for v, q in items)
    assert sigma.variables() == {cut, primed, x, y}
    assert all(type(v) is Var for v in sigma.variables())
    assert repr(state(x=1)) == "State(x=1)"
    assert repr(sigma) == "State($cut=1/3, v'=5/2, x=1, y=2)"
    # reserved and primed names round-trip through set, restrict and items
    tau = state().set(cut, 4).set(primed, F(1, 2))
    assert tau[cut] == 4 and tau[primed] == F(1, 2)
    assert list(tau.items()) == [(cut, 4), (primed, F(1, 2))]
    assert tau.restrict([cut]) == State({cut: 4})
    assert list(tau.restrict([primed, x]).items()) == [(primed, F(1, 2))]
    assert tau.restrict([cut, primed]) is tau
    assert tau.set(cut, 0) == State({primed: F(1, 2)})
    assert State(dict(sigma.items())) == sigma
    assert hash(State(dict(sigma.items()))) == hash(sigma)


def test_quantifier_free_independent_of_domain():
    rng = random.Random(3)
    from checks_support import rand_qf_exp_for_tests

    for _ in range(30):
        f = rand_qf_exp_for_tests(rng)
        sigma = state(x=rng.randint(0, 3), y=F(rng.randint(0, 6), 2))
        values = {eval_exp(f, sigma, calkin_wilf(k)) for k in (0, 3, 9)}
        assert len(values) == 1


def test_quantifier_free_eval_builds_no_domain(monkeypatch):
    """Without an explicit domain, quantifier-free terms never build one,
    including the ones the loop oracles and forward expectations evaluate,
    and neither do plans whose evaluation searches no quantifier."""
    from checks_support import rand_qf_exp_for_tests
    from wpengine.series import make_sum, odot
    from wpengine.wp import wp_loop_free

    def refuse(*_):
        raise AssertionError("default domain built for a quantifier-free term")

    monkeypatch.setattr(semantics, "default_domain", refuse)
    rng = random.Random(6)
    for _ in range(40):
        f = rand_qf_exp_for_tests(rng)
        sigma = state(x=rng.randint(0, 3), y=F(rng.randint(0, 6), 2))
        want = eval_exp(f, sigma, calkin_wilf(0))
        for mode in (RESTRICTED, ORACLE):
            assert eval_exp(f, sigma, mode=mode) == want
    geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    post, s0, vs = parse_exp("x"), state(c=1, x=0), VarSet.of("c", "x")
    assert kleene_iterate(geo, post, s0, 6) == path_sum(geo, post, s0, vs, 6)
    assert eval_exp(char_iterates(geo, post, 6), s0) == kleene_iterate(geo, post, s0, 6)
    assert forward_dist(geo, s0, vs, 5).expectation(post) == \
        kleene_iterate(geo, post, s0, 6)
    total = make_sum(parse_exp("1"), parse_aexpr("x")).pure
    planned = [(total, 4), (odot(parse_exp("x"), parse_exp("2")), 6),
               (wp_loop_free(parse_program("x := x + 1"), total), 5)]
    for f, want in planned:
        assert eval_exp(f, state(x=3), mode=ORACLE) == XReal.of(want)


class _StateProbe:
    """Intrinsic plan that records the state it is given and evaluates its
    body through the evaluator."""

    def __init__(self, body):
        self.body = body
        self.seen = []

    def __call__(self, sigma, rec):
        self.seen.append(sigma)
        return rec(self.body, sigma)


def test_default_domain_built_on_first_quantifier():
    """dom=None gives exactly the values of the explicit default domain."""
    rng = random.Random(8)
    x, y, v = Var("x"), Var("y"), Var("v")
    for i in range(30):
        quant = Sup if i % 2 else Inf
        f = Plus(rand_exp(rng, [x, y], 1), quant(v, rand_exp(rng, [x, y, v], 1)))
        sigma = state(x=rng.randint(0, 3), y=F(rng.randint(0, 6), 2))
        explicit = default_domain(f, sigma)
        for mode in (RESTRICTED, ORACLE):
            assert eval_exp(f, sigma, mode=mode) == \
                eval_exp(f, sigma, explicit, mode=mode)
    # a constant outside the quantified subterm is the best witness
    inner = Sup(v, Guard(parse_bexpr("v < 12/5"), parse_exp("v")))
    f = Plus(Guard(parse_bexpr("x < 19/8"), Arith(RatLit(F(0)))), inner)
    assert eval_exp(f, state()) == XReal.of(F(19, 8))
    assert eval_exp(inner, state()) < XReal.of(F(19, 8))
    probe = _StateProbe(parse_exp("x"))
    tagged = Plus(Arith(RatLit(F(1, 3))),
                  with_intrinsic(Guard(parse_bexpr("x < 5/2"), probe.body), probe))
    sigma = state(x=F(7, 4))
    assert eval_exp(tagged, sigma, mode=ORACLE) == XReal.of(F(25, 12))
    assert probe.seen == [sigma]
    # a plan's sub-evaluation searches the whole term's default domain, so
    # the witness 19/8, a constant outside the plan's node, is found
    probe = _StateProbe(inner)
    tagged = Plus(f.left, with_intrinsic(inner, probe))
    assert eval_exp(tagged, state(), mode=ORACLE) == XReal.of(F(19, 8))
    assert probe.seen == [state()]


def test_plans_read_only_free_variables():
    """Each plan kind's value ignores every variable not free in its node."""
    from wpengine.goedel import elem_exp, encode_seq, encode_state
    from wpengine.loops import encode_loop, goedel_subst
    from wpengine.series import PROD_VAR, dedekind_product, make_sum
    from wpengine.syntax import all_vars, free_vars, subst_exp

    x, y, z = Var("x"), Var("y"), Var("z")
    vs = VarSet.of("c", "x")
    geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    enc = encode_loop(geo, parse_exp("x"), vs)
    path = enc.path_term
    # the one-step factor is not a node of the path term but the body of
    # its product aggregate, which the encoding keeps next to the path term
    pair = enc.pair_factor
    codes = [encode_state(s, vs).num for s in (state(c=1), state(x=1))]
    walk = {enc.length_var: 2, enc.seq_var: encode_seq(codes).num, PROD_VAR: 0}
    total = make_sum(parse_exp("[$s < y] * $s + z"), x).pure
    nodes = [
        (total, state(x=3, y=2, z=1)),
        (subst_exp(total, x, parse_aexpr("y + 1")), state(y=2, z=1)),
        (dedekind_product(parse_exp("x"), parse_exp("y + 1")), state(x=2, y=1)),
        (elem_exp(VarRef(z), RatLit(F(0)), VarRef(x)),
         state(z=encode_seq([2]).num, x=2)),
        (parse_exp("3/x"), state(x=2)),
        (subst_exp(parse_exp("3/x"), x, VarRef(Var("$w"))), state(**{"$w": 2})),
        (goedel_subst(parse_exp("x + y"), VarSet.of("x"), z),
         state(z=encode_state(state(x=2), VarSet.of("x")).num, y=1)),
        (path, State(walk)),
        (pair, State(walk)),
    ]
    # every plan is a function or a delayed node, and the nodes cover all kinds
    kinds = {getattr(node.intrinsic, "__name__", type(node.intrinsic).__name__)
             for node, _ in nodes}
    assert len(kinds) == 8
    rng = random.Random(12)
    dom = calkin_wilf(1)
    for node, sigma in nodes:
        value = eval_exp(node, sigma, dom, mode=ORACLE)
        assert value != ZERO
        free = free_vars(node)
        bound = sorted(all_vars(node) - free)
        others = {x, y, z, Var("c")} - free | set(rng.sample(bound, min(6, len(bound))))
        for v in others:
            for q in (1, F(5, 2)):
                assert eval_exp(node, sigma.set(v, q), dom, mode=ORACLE) == value


def test_monotone_in_domain_for_sup_prefix():
    rng = random.Random(4)
    from checks_support import rand_qf_exp_for_tests

    for _ in range(30):
        body = rand_qf_exp_for_tests(rng, extra=[Var("v")])
        f = Sup(Var("v"), body)
        sigma = state(x=rng.randint(0, 3), y=1)
        small = eval_exp(f, sigma, calkin_wilf(3))
        large = eval_exp(f, sigma, calkin_wilf(9))
        assert small <= large
        g = Inf(Var("v"), body)
        assert eval_exp(g, sigma, calkin_wilf(3)) >= eval_exp(g, sigma, calkin_wilf(9))


def test_guard_idempotence():
    rng = random.Random(5)
    from checks_support import rand_qf_exp_for_tests

    for _ in range(30):
        body = rand_qf_exp_for_tests(rng)
        phi = parse_bexpr("x < 2")
        once = Guard(phi, body)
        twice = Guard(phi, Guard(phi, body))
        sigma = state(x=rng.randint(0, 3), y=F(rng.randint(0, 5), 3))
        dom = calkin_wilf(4)
        assert eval_exp(once, sigma, dom) == eval_exp(twice, sigma, dom)


# ---------------------------------------------------------------------------
# Extended-real laws behind the prenex rules
# ---------------------------------------------------------------------------

xreals = st.one_of(
    st.builds(lambda n, d: XReal.of(F(n, d)), st.integers(0, 9), st.integers(1, 9)),
    st.just(XReal.INF),
)
xreal_sets = st.lists(xreals, min_size=1, max_size=5)
finite_scalars = st.builds(lambda n, d: XReal.of(F(n, d)),
                           st.integers(0, 9), st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(finite_scalars, xreal_sets)
def test_scalar_distributes_over_sup(c, values):
    assert c * xsup(values) == xsup([c * a for a in values])


@settings(max_examples=200, deadline=None)
@given(finite_scalars, xreal_sets)
def test_scalar_distributes_over_inf(c, values):
    assert c * xinf(values) == xinf([c * a for a in values])


@settings(max_examples=200, deadline=None)
@given(xreal_sets, xreal_sets)
def test_sup_of_sums(left, right):
    want = xsup(left) + xsup(right)
    got = xsup([a + b for a in left for b in right])
    assert got == want


@settings(max_examples=200, deadline=None)
@given(xreal_sets, xreal_sets)
def test_inf_of_sums(left, right):
    want = xinf(left) + xinf(right)
    got = xinf([a + b for a in left for b in right])
    assert got == want


def test_singleton_sup_inf():
    for a in (ZERO, XReal.of(F(7, 2)), XReal.INF):
        assert xsup([a]) == xinf([a]) == a


def test_zero_times_infinity():
    assert ZERO * XReal.INF == ZERO
    assert XReal.INF * ZERO == ZERO
    assert XReal.of(2) * XReal.INF == XReal.INF
    assert XReal.INF + ZERO == XReal.INF
    assert XReal.of(3) < XReal.INF
    assert not XReal.INF < XReal.INF


def test_infinity_operator_table_in_both_operand_orders():
    """Fraction's and int's operators return NotImplemented for infinity,
    so every mixed operation below runs one of its reflected methods."""
    inf = XReal.INF
    for q in (F(0), F(1, 2), F(7), 0, 3):
        assert q + inf is inf and inf + q is inf
        assert q < inf and q <= inf and not q > inf and not q >= inf
        assert inf > q and inf >= q and not inf < q and not inf <= q
        assert q != inf and inf != q and not q == inf and not inf == q
    for zero in (F(0), 0):
        for product in (zero * inf, inf * zero):
            assert product == 0 and type(product) is F
    for q in (F(1, 2), F(7), 3):
        assert q * inf is inf and inf * q is inf
    assert inf + inf is inf and inf * inf is inf
    assert inf == inf and inf <= inf and inf >= inf
    assert not inf < inf and not inf > inf
    assert hash(inf) == hash(XReal.INF) and len({inf, XReal.INF, F(1)}) == 2
    assert sum([F(1, 2), inf]) is inf and sum([inf, F(1, 2)], ZERO) is inf
    assert max([F(1, 2), inf, F(3)]) is inf and max([inf, F(3)]) is inf
    assert min([inf, F(3)]) == F(3) and min([F(3), inf]) == F(3)
    for unsupported in (0.5, "x", None):
        with pytest.raises(TypeError):
            inf + unsupported
        with pytest.raises(TypeError):
            unsupported * inf
        with pytest.raises(TypeError):
            inf < unsupported
    with pytest.raises(TypeError):
        inf - 1


def test_values_are_fractions_and_infinity_is_one_object():
    assert type(eval_exp(parse_exp("x"), state(x=1))) is F
    assert type(eval_exp(parse_exp("[x < 1] * 5 + 3"), state())) is F
    assert XReal.of(2) == 2 and type(XReal.of(2)) is F
    assert eval_exp(parse_exp("0/x"), state(), mode=ORACLE) is XReal.INF
    assert eval_exp(parse_exp("inf v: v"), state(), QDomain([])) is XReal.INF
    assert copy.deepcopy(XReal.INF) is XReal.INF
    assert pickle.loads(pickle.dumps(XReal.INF)) is XReal.INF


def test_xreal_serialization():
    assert str(XReal.of(F(7, 2))) == "7/2"
    assert str(XReal.INF) == "inf"
    assert str(ZERO) == "0"


def test_state_constructions_agree_fuzz():
    """States built by the constructor, by chains of ``set`` and by
    ``restrict`` compare and hash equal when their bindings agree."""
    rng = random.Random(66)
    names = [Var(n) for n in "cxyz"]
    values = [F(0), F(1), F(1, 2), F(3), F(7, 3), 2]
    for _ in range(400):
        want = {v: rng.choice(values) for v in rng.sample(names, rng.randint(0, 4))}
        built = State(want)
        chained = State()
        for v in rng.sample(names, len(names)):
            chained = chained.set(v, rng.choice(values))
        for v in rng.sample(names, len(names)):
            chained = chained.set(v, want.get(v, 0))
        wide = State({**want, Var("w"): rng.choice(values[1:])})
        narrow = wide.restrict(names)
        for got in (chained, narrow, built.restrict(names)):
            assert got == built
            assert hash(got) == hash(built)
            assert {got: 1}[built] == 1
        assert [built[v] for v in names] == [F(want.get(v, 0)) for v in names]
        assert (wide == built) == (wide[Var("w")] == 0)


def test_state_set_and_rat_validate():
    x = Var("x")
    assert state(x=1).set(x, 0) == State()
    assert state(x=1).set(x, F(0)).variables() == set()
    assert State()[x] == 0
    assert state(x=1, y=2).restrict([x])[Var("y")] == 0
    with pytest.raises(ValueError):
        state(x=1).set(x, F(-1, 2))
    with pytest.raises(ValueError):
        rat(F(-1, 2))
    with pytest.raises(ValueError):
        State({x: F(-1, 2)})
    q = F(3, 4)
    assert rat(q) is q
    assert rat(3) == F(3)


@pytest.mark.parametrize("value", ["3/4", "1/2", 0.5, 0.1])
def test_rat_reads_no_text_and_no_float(value):
    # rational text has one reader, the parser; a float would enter inexactly
    with pytest.raises(TypeError):
        rat(value)
    with pytest.raises(TypeError):
        state(x=value)
    with pytest.raises(TypeError):
        QDomain([F(1, 2), value])
