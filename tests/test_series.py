"""Sum and product aggregates, the two product constructions, cut lemmas."""

import math
import random
from fractions import Fraction as F

from eval_reference import xsum, xsup
from wpengine.parser import parse_exp
from wpengine.semantics import ORACLE, calkin_wilf, eval_exp, state
from wpengine.series import PROD_VAR, SUM_VAR, dedekind_product, make_product, make_sum, odot
from wpengine.syntax import Arith, Guard, Inf, RatLit, Sup, Var, VarRef, eq_, print_exp
from wpengine.xreal import ONE, XReal, ZERO

DOM = calkin_wilf(4)


def structured(f, sigma, dom=DOM):
    return eval_exp(f, sigma, dom, mode=ORACLE)


def test_harmonic_values():
    aggregate = make_sum(parse_exp("1/$s"), Var("x"))
    partial = F(0)
    for n in range(1, 9):
        partial += F(1, n)
        assert structured(aggregate.pure, state(x=n)) == XReal.of(partial)
    assert structured(aggregate.pure, state(x=3)) == XReal.of(F(11, 6))


def test_sum_of_zero_body():
    aggregate = make_sum(parse_exp("0"), Var("x"))
    for n in range(5):
        assert structured(aggregate.pure, state(x=n)) == ZERO


def test_sum_single_contribution():
    aggregate = make_sum(parse_exp("[$s = 0] * 5"), Var("n"))
    assert structured(aggregate.pure, state(n=4)) == XReal.of(5)


def test_sum_non_natural_bound_is_zero():
    aggregate = make_sum(parse_exp("1/$s"), Var("x"))
    assert structured(aggregate.pure, state(x=F(3, 2))) == ZERO


def test_structured_sum_matches_direct_iteration():
    rng = random.Random(13)
    from wpengine.checks import rand_qf_exp
    from wpengine.syntax import subst_exp

    for _ in range(25):
        body = rand_qf_exp(rng, [Var("x"), SUM_VAR], 2)
        aggregate = make_sum(body, Var("n"))
        n = rng.randint(0, 12)
        sigma = state(x=F(rng.randint(0, 4), rng.randint(1, 3)), n=n)
        want = xsum(
            eval_exp(subst_exp(body, SUM_VAR, RatLit(F(j))), sigma)
            for j in range(n + 1)
        )
        assert structured(aggregate.pure, sigma) == want


def test_factorial_product():
    aggregate = make_product(parse_exp("[$p = 0] * 1 + [1 <= $p] * $p"), Var("n"))
    for n in range(7):
        assert structured(aggregate.pure, state(n=n)) == XReal.of(math.factorial(n))


def test_product_annihilation():
    aggregate = make_product(parse_exp("[$p = 2] * 0 + [!($p = 2)] * 3"), Var("n"))
    assert structured(aggregate.pure, state(n=4)) == ZERO
    assert structured(aggregate.pure, state(n=1)) == XReal.of(9)


def test_product_mixed_factors():
    aggregate = make_product(parse_exp("[$p = 0] * 2 + [1 <= $p] * 3"), Var("n"))
    assert structured(aggregate.pure, state(n=2)) == XReal.of(18)


def test_pure_sum_term_shape():
    """The emitted term is the guessed-aggregate skeleton."""
    aggregate = make_sum(parse_exp("[$s = 0] * 1"), Var("n"))
    pure = aggregate.pure
    assert isinstance(pure, Sup)            # final aggregate
    assert isinstance(pure.body, Sup)       # sequence code
    from wpengine.syntax import Scale

    assert isinstance(pure.body.body, Scale)
    inner = pure.body.body.body
    assert isinstance(inner, Inf) and isinstance(inner.body, Inf)
    assert isinstance(inner.body.body, Sup)  # the cut witness


def test_odot_pointwise():
    od = odot(parse_exp("[x < 1] * 5"), parse_exp("3"))
    assert structured(od, state(x=0)) == XReal.of(15)
    assert structured(od, state(x=2)) == ZERO


def test_odot_annihilates_unbounded():
    od = odot(parse_exp("sup v: v"), parse_exp("0"))
    assert structured(od, state()) == ZERO
    od2 = odot(parse_exp("0"), parse_exp("sup v: v"))
    assert structured(od2, state()) == ZERO


def test_odot_restricted_sup_example():
    od = odot(parse_exp("[x < 1] * 5"), parse_exp("sup v: [v < 2] * v"))
    dom = calkin_wilf(8, {F(3, 2), F(7, 4)})
    assert structured(od, state(x=0), dom) == XReal.of(F(35, 4))


def test_odot_random_pairs():
    rng = random.Random(21)
    from wpengine.checks import rand_qf_exp

    for _ in range(50):
        f = rand_qf_exp(rng, [Var("x"), Var("y")], 2)
        g = rand_qf_exp(rng, [Var("x"), Var("y")], 2)
        sigma = state(x=F(rng.randint(0, 5), rng.randint(1, 3)),
                      y=rng.randint(0, 3))
        assert structured(odot(f, g), sigma) == \
            eval_exp(f, sigma) * eval_exp(g, sigma)


def test_odot_nested():
    od = odot(parse_exp("2"), odot(parse_exp("3"), parse_exp("[x < 1] * 4")))
    assert structured(od, state(x=0)) == XReal.of(24)


def test_dedekind_product_structured():
    dp = dedekind_product(parse_exp("2"), parse_exp("3"))
    assert structured(dp, state()) == XReal.of(6)


def test_dedekind_product_restricted_cut_semantics():
    from wpengine.semantics import QDomain

    dp = dedekind_product(parse_exp("2"), parse_exp("3"))
    dom = QDomain([F(0), F(1), F(7, 4), F(5, 2), F(11, 4), F(3)])
    # the best product of domain elements strictly below the cuts
    assert eval_exp(dp, state(), dom) == XReal.of(F(7, 4) * F(11, 4))


def test_dedekind_product_annihilates():
    dp = dedekind_product(parse_exp("0"), parse_exp("sup v: v"))
    assert structured(dp, state()) == ZERO


def test_dedekind_product_renames_shared_binders():
    from wpengine.semantics import QDomain

    dp = dedekind_product(parse_exp("sup v: [v < 2] * v"),
                          parse_exp("sup v: [v < 3] * v"))
    prefix, body = [], dp
    while isinstance(body, (Sup, Inf)):
        prefix.append(body.var.name)
        body = body.body
    assert prefix == ["$cut", "$cut'", "v", "v'"]
    dom = QDomain([F(0), F(1), F(3, 2), F(5, 2), F(3)])
    # restricted: each cut lies strictly below a witness in the domain,
    # so the best product is 1 * 3/2
    assert eval_exp(dp, state(), dom) == XReal.of(F(3, 2))
    # oracle-assisted: the product of the two restricted suprema
    assert structured(dp, state(), dom) == XReal.of(F(3, 2) * F(5, 2))


def test_dedekind_agrees_with_odot():
    rng = random.Random(31)
    from wpengine.checks import rand_qf_exp

    for _ in range(30):
        f = rand_qf_exp(rng, [Var("x")], 1)
        g = rand_qf_exp(rng, [Var("x")], 1)
        sigma = state(x=F(rng.randint(0, 4), rng.randint(1, 3)))
        assert structured(dedekind_product(f, g), sigma) == \
            structured(odot(f, g), sigma)


def test_infinite_series_prefix_monotone():
    """Truncations of the harmonic aggregate are its partial sums."""
    aggregate = make_sum(parse_exp("1/$s"), Var("k"))
    values = [structured(aggregate.pure, state(k=n)) for n in range(9)]
    partials = [ZERO]
    total = F(0)
    for n in range(1, 9):
        total += F(1, n)
        partials.append(XReal.of(total))
    assert values == partials
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_sum_by_cut_finite():
    """Sums over extended reals equal suprema of cut-representative sums."""
    rng = random.Random(17)
    for _ in range(60):
        alphas = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.2:
                alphas.append(XReal.INF)
            else:
                alphas.append(XReal.of(F(rng.randint(0, 6), rng.randint(1, 4))))
        total = xsum(alphas)
        # finite cut subsets with tight approximants: each value r gets
        # representatives {0} plus rationals r - 1/2^i below it
        reps = []
        for a in alphas:
            cuts = [F(0)]
            for i in range(1, 9):
                candidate = (a - F(1, 2 ** i)) if a is not XReal.INF else F(2 ** i)
                if a is not XReal.INF and candidate < 0:
                    continue
                if XReal.of(candidate) < a:
                    cuts.append(candidate)
            reps.append(cuts)
        import itertools

        best = xsup(XReal.of(sum(combo, F(0)))
                    for combo in itertools.product(*reps))
        if total is not XReal.INF:
            # the supremum approaches the value from below; within 4/2^8
            assert best <= total
            gap = total - best
            assert gap <= F(4, 2 ** 8)
        else:
            assert best >= XReal.of(2 ** 8)


def test_aggregation_variables_reserved():
    assert SUM_VAR.reserved and PROD_VAR.reserved
