"""Sequence encodings, their formulas, and the first-order translations."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from wpengine.errors import NotPrenex
from wpengine.goedel import (
    GoedelPair,
    construction,
    beta_decode,
    beta_encode,
    cantor_pair,
    cantor_unpair,
    decode_seq,
    decode_state,
    decode_state_seq,
    divides_formula,
    elem_exp,
    elem_formula,
    elem_holds,
    encode_rat_seq,
    encode_seq,
    encode_state,
    encode_state_seq,
    encstate_holds,
    expand_nat_atoms,
    fo_nat_to_rat,
    logical_var,
    fo_prenex,
    fo_to_exp,
    pair_formula,
    relem_exp,
    relem_holds,
    relprime_formula,
    robinson_nat_formula,
    rseq_holds,
    seq_formula,
    seq_holds,
    seq_minimal_bruteforce,
    stateseq_exp,
    stateseq_holds,
)
from wpengine.semantics import ORACLE, QDomain, calkin_wilf, eval_exp, eval_fo, state
from wpengine.syntax import (
    Atom,
    Exists,
    FOAnd,
    FOImplies,
    FONot,
    FOOr,
    Forall,
    Lt,
    Nat,
    RatLit,
    Var,
    VarRef,
    alit,
    avar,
    all_vars as all_vars_fo,
    eq_,
    free_vars as free_vars_fo,
    print_fo,
)
from wpengine.wp import VarSet
from wpengine.xreal import XReal, ZERO

NAT_DOM = QDomain([F(k) for k in range(30)])


def test_cantor_pair_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 2) == 8


def test_cantor_bijection_exhaustive():
    for a in range(51):
        for b in range(51):
            assert cantor_unpair(cantor_pair(a, b)) == (a, b)


def test_beta_examples():
    assert beta_decode(beta_encode([3, 1, 4]), 1) == 1
    assert beta_encode([]) == GoedelPair(0, 1)


def test_beta_roundtrip_exhaustive():
    for length in range(5):
        for seq in itertools.product(range(13), repeat=length):
            pair = beta_encode(list(seq))
            assert [beta_decode(pair, i) for i in range(length)] == list(seq)


def test_beta_moduli_pairwise_coprime():
    import math

    for seq in ([3, 1, 4], [12, 0, 7, 9], [1]):
        pair = beta_encode(seq)
        moduli = [1 + (i + 1) * pair.b for i in range(len(seq))]
        for i in range(len(moduli)):
            for j in range(i + 1, len(moduli)):
                assert math.gcd(moduli[i], moduli[j]) == 1


def test_seq_code_roundtrip_and_oracle():
    code = encode_seq([3, 1, 4])
    assert decode_seq(code.num, 3) == [3, 1, 4]
    assert seq_holds(code.num, 3)
    assert elem_holds(code.num, 1, 1)
    assert not elem_holds(code.num, 1, 2)


def test_seq_minimality_bruteforce_is_reported_not_assumed():
    """The canonical encoder need not produce the formula's least code."""
    mismatches = []
    for length in (1, 2):
        for seq in itertools.product(range(4), repeat=length):
            canonical = encode_seq(list(seq)).num
            minimal = seq_minimal_bruteforce(list(seq))
            assert minimal is not None and minimal <= canonical
            assert decode_seq(minimal, length) == list(seq)
            if minimal != canonical:
                mismatches.append((list(seq), canonical, minimal))
    # the roundtrip is what the encoder guarantees; minimality differences
    # are expected and surface in the acceptance report
    for seq, canonical, minimal in mismatches:
        assert seq_holds(canonical, len(seq))


def test_rat_seq_roundtrip():
    values = [F(1, 2), F(3), F(0)]
    code = encode_rat_seq(values)
    assert code.elements() == values
    assert rseq_holds(code.num, 3)
    assert relem_holds(code.num, 0, F(1, 2))
    assert not relem_holds(code.num, 0, F(1, 3))


def test_rat_roundtrip_small_denominators():
    rng = random.Random(2)
    for _ in range(100):
        values = [F(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(3)]
        assert encode_rat_seq(values).elements() == values


def test_state_code_roundtrip():
    vs = VarSet.of("c", "x")
    sigma = state(x=F(1, 2), c=1)
    code = encode_state(sigma, vs)
    assert decode_state(code.num, vs) == sigma.restrict(vs)
    assert encstate_holds(code.num, vs, sigma)
    assert not encstate_holds(code.num, vs, state(x=F(1, 2), c=0))


def test_equivalent_states_same_code():
    vs = VarSet.of("c", "x")
    a = encode_state(state(x=1, c=0), vs)
    b = encode_state(state(x=1, c=0, other=99), vs)
    assert a.num == b.num


def test_state_seq_roundtrip():
    vs = VarSet.of("c", "x")
    states = [state(c=1, x=0), state(c=0, x=1)]
    code = encode_state_seq(states, vs)
    assert decode_state_seq(code) == [s.restrict(vs) for s in states]
    assert stateseq_holds(code.num, vs, 2, state(c=1, x=0))
    assert not stateseq_holds(code.num, vs, 2, state(c=0, x=7))
    single = encode_state_seq([state(c=1, x=0)], vs)
    assert stateseq_holds(single.num, vs, 1, state(c=1, x=0))


# ---------------------------------------------------------------------------
# Formula constructions
# ---------------------------------------------------------------------------

def test_new_name_supply_skips_reserved_names_of_variables_only():
    """A new supply skips the reserved names of its variable, variable-set
    and tuple arguments; a domain, also a tuple, and a string give none."""
    helper = construction(lambda *args: logical_var("h"))
    taken = Var("$h0")
    assert helper(taken) == helper(VarSet((taken,))) == Var("$h1")
    assert helper((taken, Var("x")), "$h0") == Var("$h1")
    assert helper(QDomain([F(0)]), "$h0") == taken


def test_robinson_free_variables():
    k = Var("k")
    formula = robinson_nat_formula(k)
    assert free_vars_fo(formula) == {k}


def test_robinson_innermost_atom_shape():
    k = Var("k")
    formula = robinson_nat_formula(k)
    # forall a: forall b: (phi(0) && forall m: ...) -> phi(k)
    a, b = formula.var, formula.body.var
    conclusion = formula.body.body.right
    x, y, z = (conclusion.var, conclusion.body.var, conclusion.body.body.var)
    atom = conclusion.body.body.body
    expected = (
        f"2 + {a.name} * {b.name} * {k.name} * {k.name} "
        f"+ {b.name} * {z.name} * {z.name} "
        f"= {x.name} * {x.name} + {a.name} * {y.name} * {y.name}"
    )
    assert print_fo(atom) == expected


def test_nat_expansions_share_no_bound_names():
    expanded = expand_nat_atoms(FOAnd(Nat(Var("k")), Nat(Var("j"))))
    bound_one = all_vars_fo(expanded.left) - {Var("k")}
    bound_two = all_vars_fo(expanded.right) - {Var("j")}
    assert bound_one and bound_one & bound_two == set()


def test_pair_formula_decidable_matches_oracle():
    for n1 in range(4):
        for n2 in range(4):
            n = cantor_pair(n1, n2)
            sigma = state(n=n, a=n1, b=n2)
            formula = pair_formula(avar("n"), avar("a"), avar("b"))
            assert eval_fo(formula, sigma, NAT_DOM)
            assert not eval_fo(formula, sigma.set(Var("n"), n + 1), NAT_DOM)


def test_divides_and_relprime_decidable():
    dom = QDomain([F(k) for k in range(13)])
    assert eval_fo(divides_formula(alit(3), alit(12)), state(), dom)
    assert not eval_fo(divides_formula(alit(5), alit(12)), state(), dom)
    assert eval_fo(relprime_formula(alit(3), alit(4)), state(), dom)
    assert not eval_fo(relprime_formula(alit(6), alit(4)), state(), dom)


def test_elem_formula_matches_oracle_small_scale():
    """The pure element formula is decidable by bounded search for tiny codes."""
    for num in range(12):
        a, b = cantor_unpair(num)
        dom = QDomain([F(k) for k in range(max(12, num + 2))])
        for i in range(2):
            for m in range(3):
                formula = elem_formula(alit(num), alit(i), alit(m))
                assert eval_fo(formula, state(), dom) == elem_holds(num, i, m)


def test_elem_exp_oracle():
    code = encode_seq([3, 1, 4])
    emb = elem_exp(avar("n"), alit(1), alit(1))
    sigma = state(n=code.num)
    assert eval_exp(emb, sigma, calkin_wilf(0), mode=ORACLE) == XReal.of(1)
    emb2 = elem_exp(avar("n"), alit(1), alit(2))
    assert eval_exp(emb2, sigma, calkin_wilf(0), mode=ORACLE) == ZERO
    # non-natural arguments are false
    emb3 = elem_exp(avar("n"), alit(F(1, 2)), alit(1))
    assert eval_exp(emb3, sigma, calkin_wilf(0), mode=ORACLE) == ZERO


def test_relem_exp_oracle():
    code = encode_rat_seq([F(1, 2), F(3)])
    sigma = state(n=code.num)
    assert eval_exp(relem_exp(avar("n"), alit(0), alit(F(1, 2))), sigma,
                    calkin_wilf(0), mode=ORACLE) == XReal.of(1)
    assert eval_exp(relem_exp(avar("n"), alit(1), alit(F(1, 2))), sigma,
                    calkin_wilf(0), mode=ORACLE) == ZERO


def test_stateseq_exp_oracle():
    vs = VarSet.of("c", "x")
    states = [state(c=1, x=0), state(c=0, x=1)]
    code = encode_state_seq(states, vs)
    emb = stateseq_exp(vs, avar("$n"), avar("$len"))
    good = state(c=1, x=0).set(Var("$n"), code.num).set(Var("$len"), 2)
    assert eval_exp(emb, good, calkin_wilf(0), mode=ORACLE) == XReal.of(1)
    bad = state(c=0, x=0).set(Var("$n"), code.num).set(Var("$len"), 2)
    assert eval_exp(emb, bad, calkin_wilf(0), mode=ORACLE) == ZERO


def test_seq_formula_quantifies_minimality():
    formula = seq_formula(avar("n"), alit(2))
    text = print_fo(formula)
    assert "<=" in text  # the minimization clause compares candidate codes


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------

def test_fo_nat_to_rat_forall_guarded():
    p = Forall(Var("v"), Atom(Lt(VarRef(Var("v")), VarRef(Var("y")))))
    lifted = fo_nat_to_rat(p)
    assert print_fo(lifted) == "forall v: N(v) -> v < y && N(v) && N(y)"


def test_fo_nat_to_rat_atom_guards_free_vars():
    p = Atom(Lt(VarRef(Var("x1")), VarRef(Var("x2"))))
    lifted = fo_nat_to_rat(p)
    assert print_fo(lifted) == "x1 < x2 && N(x1) && N(x2)"


def test_fo_nat_to_rat_exists_left_bare():
    p = Exists(Var("v"), Atom(Lt(VarRef(Var("v")), RatLit(F(3)))))
    lifted = fo_nat_to_rat(p)
    assert isinstance(lifted, Exists)
    assert print_fo(lifted) == "exists v: v < 3 && N(v)"


def test_fo_nat_to_rat_requires_prenex():
    from wpengine.syntax import FOAnd

    p = FOAnd(Exists(Var("v"), Atom(Lt(VarRef(Var("v")), RatLit(F(1))))),
              Atom(eq_(VarRef(Var("x")), RatLit(F(0)))))
    with pytest.raises(NotPrenex):
        fo_nat_to_rat(p)


def test_fo_nat_to_rat_guarding_semantics():
    p = Atom(Lt(VarRef(Var("y")), RatLit(F(5))))
    lifted = fo_nat_to_rat(p)
    dom = calkin_wilf(8)
    assert not eval_fo(lifted, state(y=F(1, 2)), dom)
    assert eval_fo(lifted, state(y=2), dom)
    assert not eval_fo(lifted, state(y=7), dom)


def test_fo_to_exp_rows():
    from wpengine.syntax import Sup, le_, print_exp

    p = Exists(Var("v"), Atom(Lt(VarRef(Var("v")), RatLit(F(1)))))
    emb = fo_to_exp(p)
    assert isinstance(emb, Sup)
    assert print_exp(emb) == "sup v: [v < 1] * 1"
    atom = fo_to_exp(Atom(Lt(VarRef(Var("x")), RatLit(F(1)))))
    assert print_exp(atom) == "[x < 1] * 1"
    forall = fo_to_exp(Forall(Var("v"), Atom(le_(alit(0), avar("v")))))
    for size in (0, 3, 8):
        assert eval_exp(forall, state(), calkin_wilf(size)) == XReal.of(1)


def test_fo_to_exp_is_indicator():
    rng = random.Random(9)
    from wpengine.checks import rand_fo

    for _ in range(40):
        p = fo_prenex(rand_fo(rng, [Var("x")], 3))
        emb = fo_to_exp(p)
        sigma = state(x=F(rng.randint(0, 5), rng.randint(1, 3)))
        dom = calkin_wilf(4)
        value = eval_exp(emb, sigma, dom)
        assert value in (ZERO, XReal.of(1))
        # the quantitative search stops where eval_fo's any/all do, and
        # reads the same truth value
        assert (value == 1) == eval_fo(p, sigma, dom)


def test_fo_prenex_flips_through_negation():
    from wpengine.syntax import FONot

    p = FONot(Exists(Var("v"), Atom(Lt(VarRef(Var("v")), RatLit(F(1))))))
    prenexed = fo_prenex(p)
    assert isinstance(prenexed, Forall)


def test_fo_prenex_renames_binders_atoms_and_nat():
    from wpengine.parser import parse_fo

    # the binder's name is free in the input: it is primed, and so are the
    # atom and the naturalness atom below it, but not the free occurrence
    p = parse_fo("N(v) && v < 1 && (exists v: v < x && N(v))")
    assert print_fo(fo_prenex(p)) == "exists v': N(v) && v < 1 && (v' < x && N(v'))"
    # siblings and nested binders with one name: the later ones are primed
    p = parse_fo("(exists v: v < x) && (forall v: exists v: x < v)")
    assert print_fo(fo_prenex(p)) == \
        "exists v: forall v': exists v'': v < x && x < v''"
    # a priming already in the input is skipped
    p = parse_fo("(exists v: v < v') && (exists v: v < 1)")
    assert print_fo(fo_prenex(p)) == "exists v: exists v'': v < v' && v'' < 1"
    # nothing clashes: atoms come back as they are
    p = parse_fo("(exists v: v < x) && N(x)")
    out = fo_prenex(p)
    assert print_fo(out) == "exists v: v < x && N(x)"
    assert out.body.left is p.left.body and out.body.right is p.right


def _rand_clashing_fo(rng: random.Random, depth: int):
    """A formula whose binders reuse free names and each other's names, with
    one subformula object used twice."""
    from wpengine.checks import rand_bexpr

    names = [Var("x"), Var("y"), Var("v")]
    connectives = [FOAnd, FOOr, FOImplies]
    quantifiers = [Exists, Forall]
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return Nat(rng.choice(names))
        return Atom(rand_bexpr(rng, names, 1))
    match rng.randint(0, 5):
        case 0:
            return FONot(_rand_clashing_fo(rng, depth - 1))
        case 1 | 2:
            return rng.choice(connectives)(_rand_clashing_fo(rng, depth - 1),
                                           _rand_clashing_fo(rng, depth - 1))
        case 3:
            shared = _rand_clashing_fo(rng, depth - 1)
            quantified = rng.choice(quantifiers)(rng.choice(names), shared)
            return rng.choice(connectives)(shared, quantified)
        case _:
            return rng.choice(quantifiers)(rng.choice(names),
                                           _rand_clashing_fo(rng, depth - 1))


def test_fo_prenex_equivalence_fuzz():
    from wpengine.parser import parse_fo
    from wpengine.syntax import is_quantifier_free

    shared = Exists(Var("v"), Atom(Lt(avar("v"), avar("x"))))
    cases = [
        parse_fo("(exists v: v < x) && (exists v: x < v)"),
        parse_fo("x < 1 && (forall x: exists x: x < 2 && N(x))"),
        parse_fo("(exists y: y < x) -> !(forall x: exists y: x < y)"),
        FOAnd(shared, FONot(shared)),
        FOImplies(shared, FOOr(shared, Forall(Var("v"), shared))),
    ]
    rng = random.Random(5)
    cases += [_rand_clashing_fo(rng, 4) for _ in range(150)]
    names = [Var("x"), Var("y"), Var("v")]
    for p in cases:
        out = fo_prenex(p)
        q = out
        prefix = []
        while isinstance(q, (Exists, Forall)):
            prefix.append(q.var)
            q = q.body
        assert is_quantifier_free(q)
        assert len(prefix) == len(set(prefix))
        assert free_vars_fo(out) == free_vars_fo(p)
        for size in (1, 2):
            dom = calkin_wilf(size)
            for _ in range(3):
                sigma = state(**{v.name: rng.choice([F(0), F(1), F(1, 2), F(2)])
                                 for v in names})
                assert eval_fo(p, sigma, dom) == eval_fo(out, sigma, dom), \
                    print_fo(p)


def test_fo_prenex_same_in_fresh_and_warm_process():
    from wpengine.parser import parse_exp, parse_fo
    from wpengine.series import odot

    src = "(exists v: v < x) && (exists v: x < v)"
    code = ("from wpengine.goedel import fo_prenex\n"
            "from wpengine.parser import parse_fo\n"
            "from wpengine.syntax import print_fo\n"
            f"print(print_fo(fo_prenex(parse_fo({src!r}))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    fresh = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                           capture_output=True, check=True).stdout.strip()
    odot(parse_exp("x"), parse_exp("[x < 1] * 2"))
    assert print_fo(fo_prenex(parse_fo(src))) == fresh
    assert fresh == "exists v: exists v': v < x && x < v'"


def test_expand_nat_atoms_gives_robinson():
    lifted = fo_nat_to_rat(Atom(Lt(VarRef(Var("y")), RatLit(F(2)))))
    expanded = expand_nat_atoms(lifted)
    text = print_fo(expanded)
    assert "N(" not in text
    assert "2 + " in text  # the squares identity appears verbatim
