"""Loop compilation: characteristic assertions, encoded-state helpers,
the one-step template, paths, and the full encoding."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from wpengine.errors import ContainsLoop, EngineError, FreeVarsOutsideVarSet
from wpengine.goedel import encode_state, encode_state_seq
from wpengine.loops import (
    LoopEncoding,
    body_wp_template,
    encode_loop,
    goedel_apply,
    goedel_subst,
    primed,
)
from wpengine.parser import parse_exp, parse_program
from wpengine.semantics import ORACLE, calkin_wilf, eval_exp, state
from wpengine.series import make_sum, odot
from wpengine.syntax import (
    RatLit,
    Var,
    While,
    all_vars,
    print_exp,
    substitute,
)
from wpengine.wp import (
    VarSet,
    char_assertion,
    kleene_iterate,
    path_sum,
    wp_loop_free,
)
from wpengine.xreal import XReal, ZERO

GEO = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
POST_X = parse_exp("x")
VS = VarSet.of("c", "x")
DOM = calkin_wilf(0)

import functools


@functools.lru_cache(maxsize=1)
def geo_path():
    enc = LoopEncoding(GEO, POST_X, VS)
    return enc.length_var, enc.seq_var, enc.path_term


def oracle(f, sigma):
    return eval_exp(f, sigma, DOM, mode=ORACLE)


def test_char_assertion():
    ca = char_assertion(state(x=1, c=0), VS)
    assert print_exp(ca) == "[c = 0 && x = 1] * 1"
    assert eval_exp(ca, state(x=1, c=0)) == XReal.of(1)
    assert eval_exp(ca, state(x=2, c=0)) == ZERO
    # indicator of the class modulo the variable set
    assert eval_exp(ca, state(x=1, c=0, other=5)) == XReal.of(1)


def test_goedel_subst_decodes_and_substitutes():
    num = Var("$n")
    term = goedel_subst(parse_exp("x + y"), VarSet.of("x", "y"), num)
    code = encode_state(state(x=1, y=2), VarSet.of("x", "y")).num
    sigma = state(z=5).set(num, code)
    assert oracle(term, sigma) == XReal.of(3)


def test_goedel_subst_constant_unchanged():
    num = Var("$n")
    term = goedel_subst(parse_exp("7/2"), VS, num)
    code = encode_state(state(c=1, x=0), VS).num
    assert oracle(term, state().set(num, code)) == XReal.of(F(7, 2))


def test_goedel_apply_examples():
    num = Var("$n")
    term = goedel_apply(parse_exp("[!(c = 1)] * x"), VS, num)
    code = encode_state(state(c=0, x=3), VS).num
    assert oracle(term, state().set(num, code)) == XReal.of(3)
    code2 = encode_state(state(c=1, x=3), VS).num
    assert oracle(term, state().set(num, code2)) == ZERO


def test_goedel_apply_ambient_independence():
    rng = random.Random(23)
    num = Var("$n")
    term = goedel_apply(parse_exp("[!(c = 1)] * x"), VS, num)
    code = encode_state(state(c=0, x=3), VS).num
    values = set()
    for _ in range(10):
        ambient = state(c=rng.randint(0, 1), x=rng.randint(0, 9),
                        q=rng.randint(0, 3)).set(num, code)
        values.add(oracle(term, ambient))
    assert values == {XReal.of(3)}


def test_goedel_apply_requires_covered_vars():
    with pytest.raises(FreeVarsOutsideVarSet):
        goedel_apply(parse_exp("q + x"), VS, Var("$n"))


def test_goedel_subst_apply_roundtrip():
    """Substituting an encoded state agrees with evaluating there: 50 pairs,
    plus tagged targets, whose plans must survive the state term."""
    rng = random.Random(29)
    from wpengine.checks import rand_qf_exp

    num = Var("$n")
    for _ in range(10):
        f = rand_qf_exp(rng, [Var("c"), Var("x")], 2)
        applied = goedel_apply(f, VS, num)
        for _ in range(5):
            target = state(c=rng.randint(0, 1),
                           x=F(rng.randint(0, 6), rng.randint(1, 3)))
            code = encode_state(target, VS).num
            sigma = state(c=9, x=9).set(num, code)
            assert oracle(applied, sigma) == eval_exp(f, target)

    x_only = VarSet.of("x")
    sigma = state(x=9).set(num, encode_state(state(x=3), x_only).num)
    tagged = [(odot(parse_exp("x"), parse_exp("2")), XReal.of(6)),
              (make_sum(parse_exp("1"), Var("x")).pure, XReal.of(4))]
    for f, want in tagged:
        for build in (goedel_subst, goedel_apply):
            term = build(f, x_only, num)
            assert oracle(term, sigma) == want
            assert eval_exp(term, sigma, calkin_wilf(4), mode=ORACLE) == want


def test_body_template_geometric():
    g = body_wp_template(GEO, VS)
    cp, xp = primed(Var("c")), primed(Var("x"))
    # one-step transition values out of (c=1, x=0)
    into_01 = substitute(g, {cp: RatLit(F(0)), xp: RatLit(F(1))})
    assert eval_exp(into_01, state(c=1, x=0)) == XReal.of(F(1, 2))
    into_11 = substitute(g, {cp: RatLit(F(1)), xp: RatLit(F(1))})
    assert eval_exp(into_11, state(c=1, x=0)) == XReal.of(F(1, 2))
    # the skip branch keeps the state
    stay = substitute(g, {cp: RatLit(F(0)), xp: RatLit(F(5))})
    assert eval_exp(stay, state(c=0, x=5)) == XReal.of(1)
    mismatch = substitute(g, {cp: RatLit(F(1)), xp: RatLit(F(0))})
    assert eval_exp(mismatch, state(c=0, x=0)) == ZERO


def test_body_template_matches_wp_of_indicator():
    """Instantiating the primes equals the one-step transformer directly."""
    rng = random.Random(37)
    from wpengine.wp import char_assertion
    from wpengine.syntax import Ite, Skip

    g = body_wp_template(GEO, VS)
    c_iter = Ite(GEO.cond, GEO.body, Skip())
    for _ in range(25):
        target = state(c=rng.randint(0, 1), x=rng.randint(0, 4))
        source = state(c=rng.randint(0, 1), x=rng.randint(0, 4))
        instantiated = substitute(
            g, {primed(v): RatLit(target[v]) for v in VS})
        direct = wp_loop_free(c_iter, char_assertion(target, VS))
        assert eval_exp(instantiated, source) == eval_exp(direct, source)


def test_body_template_rejects_nested_loop():
    nested = While(GEO.cond, GEO)
    with pytest.raises(ContainsLoop):
        body_wp_template(nested, VS)


def test_path_trivial_single_state():
    v1, v2, path = geo_path()
    code = encode_state_seq([state(c=0, x=5)], VS)
    sigma = state().set(v1, 1).set(v2, code.num)
    assert oracle(path, sigma) == XReal.of(5)


def test_path_two_step_value():
    v1, v2, path = geo_path()
    code = encode_state_seq([state(c=1, x=0), state(c=0, x=1)], VS)
    sigma = state().set(v1, 2).set(v2, code.num)
    assert oracle(path, sigma) == XReal.of(F(1, 2))


def test_path_degenerate_lengths():
    v1, v2, path = geo_path()
    code = encode_state_seq([state(c=1, x=0), state(c=0, x=1)], VS)
    for bad_len in (F(3, 2), F(0)):
        sigma = state().set(v1, bad_len).set(v2, code.num)
        assert oracle(path, sigma) == ZERO


def test_encode_loop_requires_loop_free_body():
    nested = While(GEO.cond, GEO)
    with pytest.raises(ContainsLoop):
        encode_loop(nested, POST_X, VS)


def test_encode_loop_refuses_a_nested_loop_before_checking_the_varset():
    # the inner loop's z lies outside {c, x}; the nested loop is reported
    nested = parse_program(
        "while (c = 1) { {c := 0} [1/2] {c := 1}; while (z < 1) { z := z + 1 } }")
    assert not VS.issuperset({Var("z")})
    with pytest.raises(ContainsLoop):
        encode_loop(nested, POST_X, VS)


def test_encode_loop_requires_covering_varset():
    with pytest.raises(ValueError):
        encode_loop(GEO, POST_X, VarSet.of("x"))


def test_plan_matches_oracles_geometric():
    encoding = encode_loop(GEO, POST_X, VS)
    s0 = state(c=1, x=0)
    for k in range(9):
        plan = encoding.plan_eval(s0, k)
        assert plan == kleene_iterate(GEO, POST_X, s0, k)
        assert plan == path_sum(GEO, POST_X, s0, VS, k)


def test_plan_guard_initially_false():
    encoding = encode_loop(GEO, POST_X, VS)
    for k in range(1, 6):
        assert encoding.plan_eval(state(c=0, x=7), k) == XReal.of(7)


def test_plan_monotone_and_converges():
    encoding = encode_loop(GEO, POST_X, VS)
    s0 = state(c=1, x=0)
    values = [encoding.plan_eval(s0, k) for k in range(12)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    limit = encoding.plan_eval(s0, 30)
    assert limit is not XReal.INF
    assert abs(limit - 2) < F(1, 10 ** 6)
    # the loop's concise closed form: x + [c = 1] * 2
    concise = parse_exp("x + [c = 1] * 2")
    concise_value = eval_exp(concise, s0)
    assert concise_value is not XReal.INF
    assert abs(limit - concise_value) < F(1, 10 ** 6)


def test_pruned_enumeration_matches_unrestricted():
    """Support-pruned sequence enumeration equals the full small-domain sum.

    For a loop whose reachable values stay within a small grid, summing over
    all sequences drawn from the grid must give the same value: transitions
    outside the one-step support contribute zero factors.
    """
    prog = parse_program("while (c = 1) { {c := 0} [1/3] {x := 1 - x} }")
    post = parse_exp("x + 1")
    vs = VarSet.of("c", "x")
    encoding = encode_loop(prog, post, vs)
    sigma = state(c=1, x=0)

    import itertools

    from wpengine.semantics import State

    grid = [State({Var("c"): F(c), Var("x"): F(x)})
            for c in (0, 1) for x in (0, 1)]
    dom = calkin_wilf(0)
    rec = lambda f, s: eval_exp(f, s, dom, mode=ORACLE)
    for k in range(1, 5):
        full = ZERO
        for tail in itertools.product(grid, repeat=k - 1):
            seq = [sigma.restrict(vs)] + list(tail)
            codes = [encode_state(s, vs).num for s in seq]
            full = full + encoding.path_value(codes, rec)
        assert full == encoding.plan_eval(sigma, k)
        assert full == kleene_iterate(prog, post, sigma, k)


def test_pure_term_built_on_demand():
    encoding = encode_loop(GEO, POST_X, VS)
    assert "pure" not in vars(encoding)
    pure = encoding.pure
    from wpengine.syntax import Sup, free_vars

    assert isinstance(pure, Sup)
    assert isinstance(pure.body, Sup)
    # closed over helpers: only program variables remain free
    assert free_vars(pure) <= {Var("c"), Var("x")}


def _in_fresh_process(code: str, hash_seed: int) -> str:
    """The standard output of ``code`` run in a new interpreter whose string
    hashes are seeded by ``hash_seed``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, check=True).stdout


_GENERATED_PRELUDE = """
import hashlib
from wpengine.loops import encode_loop
from wpengine.parser import parse_exp, parse_program
from wpengine.series import dedekind_product, make_sum, odot
from wpengine.syntax import Var, _children, print_exp
from wpengine.wp import VarSet
GEO = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
CUTS = parse_exp("(sup v: [v < x] * v) + (sup v: [v < y] * v)")

def shape(node):
    # the distinct nodes in a fixed order, each with its class and variable:
    # the printed text without the repeats of shared subterms, which make
    # the text of a loop's term hundreds of megabytes long
    out, seen, stack = [], set(), [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            out.append(f"{type(n).__name__} {getattr(n, 'var', '')}")
            stack.extend(reversed(_children(n)))
    return hashlib.sha256("\\n".join(out).encode()).hexdigest()
"""


@pytest.mark.parametrize("expr", [
    "print_exp(make_sum(parse_exp('1/$s'), Var('n')).pure)",
    "print_exp(odot(parse_exp('[x < 1] * 5'), parse_exp('sup v: [v < 2] * v')))",
    "shape(encode_loop(GEO, parse_exp('x'), VarSet.of('c', 'x')).path_term)",
    "print_exp(dedekind_product(CUTS, CUTS))",
], ids=["make_sum", "odot", "path_term", "dedekind_product"])
def test_generated_terms_print_the_same_in_a_fresh_and_a_warm_process(expr):
    namespace = {}
    exec(_GENERATED_PRELUDE, namespace)
    first, second = eval(expr, namespace), eval(expr, namespace)
    assert first == second
    code = _GENERATED_PRELUDE + f"print({expr}, end='')"
    for hash_seed in (1, 2):
        assert first == _in_fresh_process(code, hash_seed), hash_seed


def test_terms_are_built_in_one_order_whichever_is_read_first():
    """``pure`` builds ``path_term`` before it takes a helper name of its
    own, so both terms get the same helpers in either read order."""
    namespace = {}
    exec(_GENERATED_PRELUDE, namespace)
    shape = namespace["shape"]
    args = parse_program("while (x < 1) { skip }"), parse_exp("x"), VarSet.of("x")
    pure_first, path_first = encode_loop(*args), encode_loop(*args)
    pure_first.pure, pure_first.path_term
    path_first.path_term, path_first.pure
    for term in ("pure", "path_term"):
        a, b = getattr(pure_first, term), getattr(path_first, term)
        assert {v.name for v in all_vars(a)} == {v.name for v in all_vars(b)}, term
        assert shape(a) == shape(b), term


def test_sum_helpers_capture_no_free_variable_of_the_body():
    code = ("from wpengine.parser import parse_exp\n"
            "from wpengine.series import make_sum\n"
            "from wpengine.syntax import Var, free_vars\n"
            "pure = make_sum(parse_exp('[$s < 1] * $num1'), Var('n')).pure\n"
            "print(sorted(v.name for v in free_vars(pure)))")
    assert _in_fresh_process(code, 1) == "['$num1', 'n']\n"


def test_reserved_variables_are_refused_in_a_loop_variable_set():
    varset = VarSet.of("$y", "c", "x")
    message = r"reserved variables in the variable set: \['\$y'\]"
    with pytest.raises(EngineError, match=message):
        body_wp_template(GEO, varset)
    with pytest.raises(EngineError, match=message):
        encode_loop(GEO, parse_exp("$y"), varset)
