"""Pinned printer output.

A seeded corpus of terms, guards, expectations, formulas and programs,
together with the preexpectations, prenex, summation and cut forms and
formula embeddings built from them, is printed and compared with a stored
digest, so any change to the text the four printers give shows up here.
The corpus holds no term with generated helper names.  A second test
prints a long preexpectation at the default recursion limit, which a
printer that spends more than one frame per nesting level cannot do.
"""

import hashlib
import random
import sys

from wpengine.checks import (
    rand_aexpr,
    rand_bexpr,
    rand_exp,
    rand_fo,
    rand_loop_free,
)
from wpengine.goedel import fo_nat_to_rat, fo_prenex, fo_to_exp
from wpengine.normalform import dnf_recover, to_dnf, to_prenex, to_snf
from wpengine.parser import parse_exp, parse_program
from wpengine.syntax import (
    FOAnd,
    FOImplies,
    Nat,
    Var,
    print_aexpr,
    print_bexpr,
    print_exp,
    print_fo,
    print_program,
)
from wpengine.wp import wp_loop_free

CORPUS_ROUNDS = 500
CORPUS_SIZE = 6470
CORPUS_SHA256 = "2f1d74cadac2da8728537baf6b36d448aece58f8a7bdfac4580c5eb569203239"


def _formula(rng: random.Random, variables):
    """A random formula with the implications and naturalness atoms that
    ``rand_fo`` does not generate."""
    p = rand_fo(rng, variables, 3)
    q = rand_fo(rng, variables, 2)
    match rng.randint(0, 2):
        case 0:
            return FOImplies(p, q)
        case 1:
            return FOAnd(Nat(rng.choice(variables)), FOImplies(q, p))
    return p


def corpus() -> list[str]:
    rng = random.Random(20211)
    variables = [Var("x"), Var("y"), Var("z")]
    out = []
    for _ in range(CORPUS_ROUNDS):
        out.append(print_aexpr(rand_aexpr(rng, variables, 4)))
        out.append(print_bexpr(rand_bexpr(rng, variables, 3)))
        f = rand_exp(rng, variables, 4)
        out.append(print_exp(f))
        prog = rand_loop_free(rng, variables, 3)
        out.append(print_program(prog))
        out.append(print_exp(wp_loop_free(prog, f)))
        out.append(print_exp(to_prenex(f).to_exp()))
        out.append(print_exp(to_snf(f).to_exp()))
        if len(to_snf(f).summands) <= 4:
            out.append(print_exp(to_dnf(f).to_exp()))
            out.append(print_exp(dnf_recover(to_dnf(f))))
        p = _formula(rng, variables)
        out.append(print_fo(p))
        prenexed = fo_prenex(p)
        out.append(print_fo(prenexed))
        out.append(print_fo(fo_nat_to_rat(prenexed)))
        out.append(print_exp(fo_to_exp(fo_prenex(rand_fo(rng, variables, 3)))))
    return out


def test_printed_corpus_is_pinned():
    texts = corpus()
    digest = hashlib.sha256("\n\0".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == (CORPUS_SIZE, CORPUS_SHA256)


def test_long_preexpectation_prints_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    prog = parse_program(";\n".join(["x := x + 1"] * 900))
    text = print_exp(wp_loop_free(prog, parse_exp("x")))
    assert text == "(x" + " + 1" * 900 + ")"
