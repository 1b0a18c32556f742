"""Backward transformer, forward semantics, and the loop oracles."""

import random
import sys
import time
from fractions import Fraction as F

import pytest

from wpengine.checks import rand_exp, rand_loop_free
from wpengine.errors import ContainsLoop, FuelExceeded
from wpengine.goedel import elem_exp, encode_state, relem_exp
from wpengine.loops import goedel_subst
from wpengine.parser import parse_bexpr, parse_exp, parse_program
from wpengine.semantics import ORACLE, State, calkin_wilf, eval_exp, state
from wpengine.series import dedekind_product, make_product, make_sum, odot
from wpengine.syntax import (
    Add,
    Arith,
    Assign,
    Guard,
    RatLit,
    Seq,
    Skip,
    SubstPlan,
    Sup,
    Var,
    VarRef,
    balanced,
    contains_loop,
    print_exp,
    print_program,
    vars_program,
)
from wpengine.wp import (
    VarSet,
    char_apply,
    char_iterates,
    forward_dist,
    kleene_iterate,
    path_sum,
    wp_loop_free,
)
from wpengine.xreal import XReal, ZERO

from debruijn import nameless
from wp_reference import wp_per_statement

GEO = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
COIN = parse_program("{x := 0} [1/3] {x := 1}")
POST_X = parse_exp("x")
VS = VarSet.of("c", "x")


def test_wp_skip_identity():
    f = parse_exp("[x < 1] * 2 + y")
    assert wp_loop_free(parse_program("skip"), f) == f


def test_wp_assignment_substitutes():
    got = wp_loop_free(parse_program("x := x + 1"), parse_exp("x"))
    assert print_exp(got) == "(x + 1)"
    assert eval_exp(got, state(x=4)) == XReal.of(5)


def test_wp_coin_convex_sum():
    got = wp_loop_free(COIN, POST_X)
    assert print_exp(got) == "1/3 * 0 + 2/3 * 1"
    for x0 in (0, 5):
        assert eval_exp(got, state(x=x0)) == XReal.of(F(2, 3))


def test_wp_rejects_loops():
    with pytest.raises(ContainsLoop):
        wp_loop_free(GEO, POST_X)


def test_wp_strictness():
    zero = Arith(RatLit(F(0)))
    for text in ("skip", "x := y + 1", "if (x < 1) { y := 2 } else { skip }"):
        prog = parse_program(text)
        pre = wp_loop_free(prog, zero)
        for x0 in (0, 1, 2):
            assert eval_exp(pre, state(x=x0, y=1)) == ZERO


def test_forward_coin():
    dist = forward_dist(COIN, state(), VarSet.of("x"), 1)
    weights = {tuple(s.items()): w for s, w in dist.items()}
    assert weights == {((Var("x"), F(1)),): F(2, 3), (): F(1, 3)}
    assert dist.mass == 1


def test_forward_skip():
    sigma = state(x=2, q=9)
    dist = forward_dist(parse_program("skip"), sigma, VarSet.of("x"), 1)
    assert dict(dist.items()) == {sigma.restrict([Var("x")]): F(1)}


def test_forward_geometric_fuel():
    dist = forward_dist(GEO, state(c=1, x=0), VS, 3)
    got = {(s[Var("c")], s[Var("x")]): w for s, w in dist.items()}
    assert got == {(F(0), F(1)): F(1, 2), (F(0), F(2)): F(1, 4),
                   (F(0), F(3)): F(1, 8)}
    assert dist.mass == F(7, 8)


def test_forward_monotone_in_fuel():
    prev = {}
    for fuel in range(6):
        dist = forward_dist(GEO, state(c=1, x=0), VS, fuel)
        for s, w in prev.items():
            assert dist.weights.get(s, F(0)) >= w
        prev = dict(dist.items())


def test_forward_cap():
    # doubling state count every round blows the cap
    prog = parse_program(
        "while (x < 100) { {y := y + 1} [1/2] {y := y + y + 2}; x := x + 1 }"
    )
    with pytest.raises(FuelExceeded):
        forward_dist(prog, state(), VarSet.of("x", "y"), 100, state_cap=50)


def test_duality_on_coin():
    pre = wp_loop_free(COIN, POST_X)
    dist = forward_dist(COIN, state(), VarSet.of("x"), 1)
    assert eval_exp(pre, state()) == dist.expectation(POST_X)


def test_assignment_into_tagged_post_keeps_its_plan():
    """Oracle-assisted, wp through ``x := x + 1`` reads the post at x + 1."""
    x = Var("x")
    inc = parse_program("x := x + 1")
    total = make_sum(parse_exp("1"), x).pure
    pre = wp_loop_free(inc, total)
    assert eval_exp(pre, state(x=3), calkin_wilf(0), mode=ORACLE) == XReal.of(5)
    product = wp_loop_free(inc, odot(POST_X, parse_exp("2")))
    assert eval_exp(product, state(x=3), calkin_wilf(0), mode=ORACLE) == XReal.of(8)
    # the composed mapping {x: x + 1, y: x + 1} binds both at once
    both = wp_loop_free(parse_program("x := x + 1; y := x"),
                        odot(POST_X, parse_exp("y")))
    assert eval_exp(both, state(x=1, y=5), calkin_wilf(0), mode=ORACLE) == XReal.of(4)
    start = time.perf_counter()
    assert eval_exp(pre, state(x=3), mode=ORACLE) == XReal.of(5)
    assert time.perf_counter() - start < 5
    # a chain of assignments composes into one plan over the original post
    step = Assign(x, Add(VarRef(x), RatLit(F(1))))
    pre = wp_loop_free(balanced(Seq, [step] * 500, Skip), total)
    assert isinstance(pre.intrinsic, SubstPlan) and pre.intrinsic.node is total
    assert eval_exp(pre, state(), calkin_wilf(0), mode=ORACLE) == XReal.of(501)


def _tagged_posts() -> list:
    """Posts whose tagged nodes evaluate through their plans.

    The variable ``z`` stands for a state code in the Goedel posts, and the
    last post binds ``$w``, the variable of the assignment ``x := $w`` that
    the tests below put around their programs.
    """
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("$w")
    return [
        dedekind_product(parse_exp("x"), parse_exp("y + 1")),
        parse_exp("3/x + 1/y"),
        make_sum(parse_exp("[$s < y] * $s + z"), x).pure,
        make_product(parse_exp("[$p < 1] * y + 1"), x).pure,
        odot(parse_exp("x + 1"), parse_exp("[y < 2] * z")),
        elem_exp(VarRef(z), VarRef(y), VarRef(x)),
        relem_exp(VarRef(z), RatLit(F(0)), VarRef(x)),
        goedel_subst(parse_exp("x + y"), VarSet.of("x"), z),
        Sup(w, Guard(parse_bexpr("$w < 1"), odot(parse_exp("$w + 1"), POST_X))),
    ]


def test_duality_over_tagged_posts():
    """Oracle-assisted ``wp_loop_free`` into tagged posts equals the
    forward distribution's expectation of the oracle-assisted post.

    One library-built assignment ``x := $w`` meets the binder ``$w`` of
    ``3/x`` and of the last post, whose tagged body then reads the renamed
    binder through its plan.
    """
    rng = random.Random(23)
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("$w")
    varset = VarSet.of("x", "y", "z", "$w")
    dom = calkin_wilf(2)
    code = encode_state(state(x=2), VarSet.of("x")).num
    posts = _tagged_posts()
    capture = Assign(x, VarRef(w))
    cases = []
    for i in range(24):
        prog = rand_loop_free(rng, [x, y, z], 3)
        if i % 2:
            prog = Seq(capture, prog) if rng.random() < 0.5 else Seq(prog, capture)
        sigmas = [State({v: rng.randint(0, 3) for v in (x, y, w)} | {z: code}),
                  State({v: rng.randint(0, 3) for v in (x, y, z, w)})]
        cases.append((prog, sigmas))
    nonzero = 0
    for post in posts:
        for prog, sigmas in cases:
            pre = wp_loop_free(prog, post)
            for sigma in sigmas:
                backward = eval_exp(pre, sigma, dom, mode=ORACLE)
                forward = ZERO
                for tau, weight in forward_dist(prog, sigma, varset, 1).items():
                    forward = forward + XReal.of(weight) * \
                        eval_exp(post, tau, dom, mode=ORACLE)
                assert backward == forward, (print_program(prog), print_exp(post))
                nonzero += backward != ZERO
    assert nonzero > 100


def test_block_substitution_matches_per_statement_reference():
    """``wp_loop_free`` substitutes each block of assignments at once; the
    reference substitutes one assignment at a time.  The two agree up to
    bound names and in value, both restricted and oracle-assisted.

    Every program meets a random post, and every other one also a tagged
    post; a third of the programs begin with ``x := $w``, which meets the
    binder ``$w`` of the last tagged post.  Restricted search over the
    hundreds of nested binders of a tagged post is exponential in the
    domain, so there it searches {0}.
    """
    rng = random.Random(5)
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("$w")
    dom = calkin_wilf(2)
    code = encode_state(state(x=2), VarSet.of("x")).num
    tagged = _tagged_posts()
    capture = Assign(x, VarRef(w))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))  # the Goedel post nests 1111 deep
    try:
        for i in range(300):
            prog = rand_loop_free(rng, [x, y, z], 4)
            if i % 3 == 0:
                prog = Seq(capture, prog)
            sigma = State({v: rng.randint(0, 3) for v in (x, y, w)} | {z: code})
            posts = [(rand_exp(rng, [x, y, z], 3), dom)]
            if i % 2:
                posts.append((rng.choice(tagged), calkin_wilf(0)))
            for post, searched in posts:
                got = wp_loop_free(prog, post)
                want = wp_per_statement(prog, post)
                assert nameless(got) == nameless(want), (i, print_program(prog))
                assert eval_exp(got, sigma, searched) == \
                    eval_exp(want, sigma, searched), (i, print_program(prog))
                assert eval_exp(got, sigma, dom, mode=ORACLE) == \
                    eval_exp(want, sigma, dom, mode=ORACLE), (i, print_program(prog))
    finally:
        sys.setrecursionlimit(limit)


def test_deep_program_needs_no_recursion_per_statement():
    """1001 swaps through a temporary, 3003 statements nested to the right:
    the walk keeps its own stack, and the block is one substitution."""
    x, y, t = Var("x"), Var("y"), Var("t")
    prog = Skip()
    for _ in range(1001):
        prog = Seq(Assign(t, VarRef(x)),
                   Seq(Assign(x, VarRef(y)), Seq(Assign(y, VarRef(t)), prog)))
    pre = wp_loop_free(prog, parse_exp("x + 2 * y"))
    assert print_exp(pre) == "y + 2 * x"


def test_branch_separates_blocks_whose_plans_compose():
    """Around a conditional, the blocks before and after it each substitute
    once, and every tagged leaf keeps one plan over the original post."""
    total = make_sum(parse_exp("1"), Var("x")).pure
    prog = parse_program(
        "x := x + 1; if (y < 1) { skip } else { x := x + 2 }; x := x + 1")
    pre = wp_loop_free(prog, total)
    for leaf in (pre.left.body, pre.right.body):
        assert isinstance(leaf.intrinsic, SubstPlan)
        assert leaf.intrinsic.node is total
    assert eval_exp(pre, state(x=0, y=0), calkin_wilf(0), mode=ORACLE) == XReal.of(3)
    assert eval_exp(pre, state(x=0, y=1), calkin_wilf(0), mode=ORACLE) == XReal.of(5)


def test_kleene_geometric_values():
    s0 = state(c=1, x=0)
    assert kleene_iterate(GEO, POST_X, s0, 0) == ZERO
    assert kleene_iterate(GEO, POST_X, s0, 2) == XReal.of(F(1, 2))
    assert kleene_iterate(GEO, POST_X, s0, 4) == XReal.of(F(11, 8))


def test_kleene_closed_form():
    # the hand path-sum: sum over i of (x0 + i) * 2^-i for i = 1..k-1
    s0 = state(c=1, x=0)
    for k in range(13):
        want = 2 - (k + 1) * F(1, 2) ** (k - 1)
        assert kleene_iterate(GEO, POST_X, s0, k) == XReal.of(want)
    # with a nonzero start the x0 part carries the accumulated mass
    s3 = state(c=1, x=3)
    for k in range(1, 13):
        want = 3 * (1 - F(1, 2) ** (k - 1)) + 2 - (k + 1) * F(1, 2) ** (k - 1)
        assert kleene_iterate(GEO, POST_X, s3, k) == XReal.of(want)


def test_kleene_monotone():
    s0 = state(c=1, x=0)
    values = [kleene_iterate(GEO, POST_X, s0, k) for k in range(10)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_kleene_guard_false():
    for k in range(1, 5):
        assert kleene_iterate(GEO, POST_X, state(c=0, x=5), k) == XReal.of(5)


def test_kleene_nested_loop():
    # the inner loop is handled by its own fueled iteration
    prog = parse_program(
        "while (x < 2) { y := 0; while (y < 2) { y := y + 1 }; x := x + 1 }"
    )
    value = kleene_iterate(prog, parse_exp("y"), state(), 8)
    assert value == XReal.of(2)


def test_kleene_cap_counts_chains_and_nested_loops():
    """A chain of states, each met once, trips the memo cap, and so does
    the memo table of a nested loop."""
    flat = parse_program("while (x < 50) { x := x + 1 }")
    nested = parse_program(
        "while (c < 1) { c := 1; while (x < 50) { x := x + 1 } }")
    for loop in (flat, nested):
        with pytest.raises(FuelExceeded):
            kleene_iterate(loop, POST_X, state(x=0), 60, state_cap=5)
        assert kleene_iterate(loop, POST_X, state(x=0), 60) == XReal.of(50)


def test_long_statement_chain_parses_without_recursion():
    prog = parse_program("; ".join(["x := 1"] * 10**4))
    assert isinstance(prog, Seq) and isinstance(prog.second, Seq)
    assert wp_loop_free(prog, POST_X) == Arith(RatLit(F(1)))


def test_long_statement_chain_walks_without_recursion():
    """The program walkers flatten a 10^4-statement chain on a stack."""
    assert sys.getrecursionlimit() == 1000
    n = 10**4
    prog = parse_program("; ".join(["x := 1"] * n))
    assert vars_program(prog) == {Var("x")}
    assert not contains_loop(prog)
    assert contains_loop(Seq(prog, parse_program("while (x < 1) { x := 1 }")))
    assert print_program(prog) == ";\n".join(["x := 1"] * n)
    assert forward_dist(prog, state(x=5), VarSet.of("x"), 1).items() == {state(x=1): F(1)}.items()


def test_path_sum_matches_kleene():
    s0 = state(c=1, x=0)
    for k in range(7):
        assert path_sum(GEO, POST_X, s0, VS, k) == kleene_iterate(GEO, POST_X, s0, k)


def test_path_sum_trivial_cases():
    assert path_sum(GEO, POST_X, state(c=0, x=5), VS, 1) == XReal.of(5)
    assert path_sum(GEO, POST_X, state(c=1, x=0), VS, 0) == ZERO


def test_char_apply_unfolds():
    once = char_apply(GEO, POST_X, Arith(RatLit(F(0))))
    # guard-false branch returns the postexpectation for every k >= 1
    for k in range(1, 4):
        unrolled = char_iterates(GEO, POST_X, k)
        assert eval_exp(unrolled, state(c=0, x=9)) == XReal.of(9)
    assert eval_exp(once, state(c=1, x=0)) == ZERO
    assert eval_exp(char_iterates(GEO, POST_X, 2), state(c=1, x=0)) == XReal.of(F(1, 2))


def test_char_apply_matches_kleene():
    s0 = state(c=1, x=0)
    for k in range(6):
        assert eval_exp(char_iterates(GEO, POST_X, k), s0) == \
            kleene_iterate(GEO, POST_X, s0, k)


def test_dist_json():
    dist = forward_dist(COIN, state(), VarSet.of("x"), 1)
    payload = dist.to_json(VarSet.of("x"))
    assert payload == {
        "entries": [
            {"state": {"x": "0"}, "weight": "1/3"},
            {"state": {"x": "1"}, "weight": "2/3"},
        ],
        "mass": "1",
    }


def test_varset_rejects_duplicates():
    with pytest.raises(ValueError):
        VarSet.of("x", "x")
