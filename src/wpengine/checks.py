"""Randomized and exhaustive property suites.

Each suite returns a report with the number of cases run and the verbatim
counterexamples found; the command-line ``check`` subcommand and the
acceptance tests both drive these.  All suites are deterministic for a
fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import goedel
from .loops import encode_loop
from .normalform import dnf_recover, to_dnf
from .parser import parse_exp
from .semantics import ORACLE, QDomain, State, calkin_wilf, eval_exp, eval_fo, state
from .series import dedekind_product, make_product, make_sum, odot
from .syntax import (
    Add,
    AExpr,
    And,
    Arith,
    Atom,
    BExpr,
    Exists,
    Exp,
    FOAnd,
    FOFormula,
    FONot,
    FOOr,
    Forall,
    Guard,
    Inf,
    Lt,
    Monus,
    Mul,
    Not,
    PChoice,
    Plus,
    Program,
    RatLit,
    Scale,
    Seq,
    Skip,
    Sup,
    Var,
    VarRef,
    While,
    Assign,
    Ite,
    eq_,
    free_vars,
    le_,
    print_exp,
    print_program,
    subst_exp,
    fresh_var,
    print_fo,
)
from .wp import VarSet, char_iterates, forward_dist, kleene_iterate, path_sum, wp_loop_free
from .xreal import ONE, ZERO


@dataclass
class CheckReport:
    suite: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, **info):
        self.failures.append({k: str(v) for k, v in info.items()})

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

PROGRAM_VARS = [Var("x"), Var("y"), Var("z")]


def rand_rat(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.randint(0, top), rng.randint(1, top))


def rand_aexpr(rng: random.Random, variables, depth: int) -> AExpr:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return RatLit(rand_rat(rng))
        return VarRef(rng.choice(variables))
    ctor = rng.choice([Add, Mul, Monus])
    return ctor(rand_aexpr(rng, variables, depth - 1),
                rand_aexpr(rng, variables, depth - 1))


def rand_bexpr(rng: random.Random, variables, depth: int) -> BExpr:
    if depth <= 0 or rng.random() < 0.5:
        a = rand_aexpr(rng, variables, 1)
        b = rand_aexpr(rng, variables, 1)
        return rng.choice([Lt(a, b), eq_(a, b), le_(a, b)])
    if rng.random() < 0.5:
        return Not(rand_bexpr(rng, variables, depth - 1))
    return And(rand_bexpr(rng, variables, depth - 1),
               rand_bexpr(rng, variables, depth - 1))


def rand_qf_exp(rng: random.Random, variables, depth: int) -> Exp:
    if depth <= 0 or rng.random() < 0.35:
        return Arith(rand_aexpr(rng, variables, 1))
    match rng.randint(0, 2):
        case 0:
            return Guard(rand_bexpr(rng, variables, 1),
                         rand_qf_exp(rng, variables, depth - 1))
        case 1:
            return Plus(rand_qf_exp(rng, variables, depth - 1),
                        rand_qf_exp(rng, variables, depth - 1))
        case _:
            return Scale(rand_aexpr(rng, variables, 1),
                         rand_qf_exp(rng, variables, depth - 1))


def rand_exp(rng: random.Random, variables, depth: int) -> Exp:
    """Random expectation, possibly quantified."""
    if depth > 0 and rng.random() < 0.3:
        ctor = rng.choice([Sup, Inf])
        v = rng.choice([Var("v"), Var("w")] + list(variables))
        return ctor(v, rand_exp(rng, variables + [v], depth - 1))
    return rand_qf_exp(rng, variables, depth)


def rand_loop_free(rng: random.Random, variables, depth: int) -> Program:
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return Skip()
        return Assign(rng.choice(variables), rand_aexpr(rng, variables, 2))
    match rng.randint(0, 2):
        case 0:
            return Seq(rand_loop_free(rng, variables, depth - 1),
                       rand_loop_free(rng, variables, depth - 1))
        case 1:
            num = rng.randint(0, 9)
            den = rng.randint(max(1, num), 9)
            return PChoice(rand_loop_free(rng, variables, depth - 1),
                           Fraction(num, den),
                           rand_loop_free(rng, variables, depth - 1))
        case _:
            return Ite(rand_bexpr(rng, variables, 1),
                       rand_loop_free(rng, variables, depth - 1),
                       rand_loop_free(rng, variables, depth - 1))


def rand_state(rng: random.Random, variables) -> State:
    bindings = {}
    for v in variables:
        if rng.random() < 0.8:
            bindings[v] = rand_rat(rng, 6)
    return State(bindings)


def rand_loop(rng: random.Random) -> tuple[While, Exp, VarSet]:
    """A loop with a loop-free body and a bounded reachable state space.

    The counter strictly increases until a bound, so at most ``bound``
    guarded iterations can run; probabilistic branching stays modest so
    path enumeration at depth 8 remains cheap.
    """
    x, c = Var("x"), Var("c")
    bound = rng.randint(2, 5)
    flip = PChoice(Assign(c, RatLit(Fraction(0))),
                   Fraction(rng.randint(1, 3), rng.randint(3, 4)),
                   Assign(c, RatLit(Fraction(1))))
    step = Assign(x, Add(VarRef(x), RatLit(Fraction(rng.randint(1, 2)))))
    body = Seq(flip, step) if rng.random() < 0.5 else Seq(step, flip)
    guard = And(eq_(VarRef(c), RatLit(Fraction(1))),
                Lt(VarRef(x), RatLit(Fraction(bound))))
    loop = While(guard, body)
    post = rand_qf_exp(rng, [x, c], 1)
    return loop, post, VarSet.of("c", "x")


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

# The size of each suite, fixed so that a report depends on its seed alone.
DUALITY_CASES, DUALITY_STATES = 200, 20
PRENEX_CASES, PRENEX_STATES, PRENEX_DOM_SIZES = 100, 10, (0, 3, 8)
DNF_CASES, DNF_STATES, DNF_CUTS = 100, 10, 10
SERIES_ODOT_CASES, SERIES_CUT_CASES = 200, 100
LOOP_COUNT, LOOP_DEPTH = 20, 8
FO_CASES = 200


def check_duality(seed: int = 0) -> CheckReport:
    """Backward transformer vs forward distribution on loop-free programs."""
    rng = random.Random(seed)
    report = CheckReport("duality")
    for i in range(DUALITY_CASES):
        prog = rand_loop_free(rng, PROGRAM_VARS, 4)
        post = rand_qf_exp(rng, PROGRAM_VARS, 2)
        varset = VarSet.of(*[v.name for v in PROGRAM_VARS])
        pre = wp_loop_free(prog, post)
        for _ in range(DUALITY_STATES):
            sigma = rand_state(rng, PROGRAM_VARS)
            report.cases += 1
            backward = eval_exp(pre, sigma)
            forward = forward_dist(prog, sigma, varset, 1).expectation(post)
            if backward != forward:
                report.fail(case=i, program=print_program(prog),
                            post=print_exp(post), state=sigma,
                            backward=backward, forward=forward)
    return report


_PRENEX_RULES = ("plus-left", "plus-right", "scale", "guard")


def _rule_instance(rng: random.Random, rule: str, quant) -> tuple[Exp, Exp]:
    variables = [Var("x"), Var("y")]
    v = Var("v")
    inner = rand_qf_exp(rng, variables + [v], 2)
    other = rand_qf_exp(rng, variables, 2)
    fresh = fresh_var({v} | {Var("x"), Var("y")}, base="v")
    renamed = subst_exp(inner, v, VarRef(fresh))
    if rule == "plus-left":
        return Plus(quant(v, inner), other), quant(fresh, Plus(renamed, other))
    if rule == "plus-right":
        return Plus(other, quant(v, inner)), quant(fresh, Plus(other, renamed))
    if rule == "scale":
        a = rand_aexpr(rng, variables, 1)
        return Scale(a, quant(v, inner)), quant(fresh, Scale(a, renamed))
    phi = rand_bexpr(rng, variables, 1)
    return Guard(phi, quant(v, inner)), quant(fresh, Guard(phi, renamed))


def check_prenex(seed: int = 0) -> CheckReport:
    """The four pull rules, for both quantifiers, under restricted evaluation."""
    rng = random.Random(seed)
    report = CheckReport("prenex")
    per_rule = max(1, PRENEX_CASES // 8)
    for rule in _PRENEX_RULES:
        for quant in (Sup, Inf):
            for i in range(per_rule):
                lhs, rhs = _rule_instance(rng, rule, quant)
                for _ in range(PRENEX_STATES):
                    sigma = rand_state(rng, [Var("x"), Var("y")])
                    for size in PRENEX_DOM_SIZES:
                        dom = calkin_wilf(size, {rand_rat(rng)})
                        report.cases += 1
                        lv = eval_exp(lhs, sigma, dom)
                        rv = eval_exp(rhs, sigma, dom)
                        if lv != rv:
                            report.fail(rule=rule, quantifier=quant.__name__,
                                        case=i, lhs=print_exp(lhs),
                                        rhs=print_exp(rhs), state=sigma,
                                        dom=list(dom), left=lv, right=rv)
    return report


def rand_snf_exp(rng: random.Random) -> Exp:
    """Random expectation already shaped as a prefix over guarded summands."""
    variables = [Var("x"), Var("y")]
    bound = []
    for _ in range(rng.randint(0, 2)):
        v = Var(rng.choice(["v", "w"]))
        if v not in bound:
            bound.append(v)
    scope = variables + bound
    n = rng.randint(1, 3)
    matrix = None
    for _ in range(n):
        term = Guard(rand_bexpr(rng, scope, 1), Arith(rand_aexpr(rng, scope, 1)))
        matrix = term if matrix is None else Plus(matrix, term)
    out = matrix
    for v in reversed(bound):
        out = rng.choice([Sup, Inf])(v, out)
    return out


def check_dnf(seed: int = 0) -> CheckReport:
    """Indicator equivalence and recovery of the cut normal form."""
    rng = random.Random(seed)
    report = CheckReport("dnf")
    for i in range(DNF_CASES):
        f = rand_snf_exp(rng)
        d = to_dnf(f)
        de = d.to_exp()
        recovered = dnf_recover(d)
        for _ in range(DNF_STATES):
            sigma = rand_state(rng, [Var("x"), Var("y")])
            dom = calkin_wilf(6, {rand_rat(rng)})
            value = eval_exp(f, sigma, dom)
            cuts = list(dom)[:DNF_CUTS]
            for r in cuts:
                report.cases += 1
                got = eval_exp(de, sigma.set(d.cut_var, r), dom)
                if got not in (ZERO, ONE):
                    report.fail(case=i, reason="not {0,1}-valued",
                                exp=print_exp(f), got=got)
                    continue
                want = ONE if r < value else ZERO
                if got != want:
                    report.fail(case=i, exp=print_exp(f), state=sigma,
                                cut=r, value=value,
                                got=got, want=want)
            # recovery: the largest domain element strictly below the value
            report.cases += 1
            below = [q for q in dom if q < value]
            want_rec = max(below) if below else ZERO
            got_rec = eval_exp(recovered, sigma, dom)
            if got_rec != want_rec:
                report.fail(case=i, reason="recovery", exp=print_exp(f),
                            state=sigma, got=got_rec, want=want_rec)
    return report


def check_goedel(seed: int = 0) -> CheckReport:
    """Exhaustive encoding roundtrips and tiny-scale minimality search."""
    report = CheckReport("goedel")
    # pairing is a bijection below 50x50
    for a in range(50):
        for b in range(50):
            report.cases += 1
            if goedel.cantor_unpair(goedel.cantor_pair(a, b)) != (a, b):
                report.fail(kind="pairing", a=a, b=b)
    # remainder encoding roundtrips for all short sequences
    import itertools as it

    for length in range(5):
        for seq in it.product(range(13), repeat=length):
            report.cases += 1
            pair = goedel.beta_encode(list(seq))
            if [goedel.beta_decode(pair, i) for i in range(length)] != list(seq):
                report.fail(kind="beta", seq=seq)
    # rational elements roundtrip for small denominators
    rng = random.Random(seed)
    for _ in range(200):
        values = [Fraction(rng.randint(0, 9), rng.randint(1, 7))
                  for _ in range(rng.randint(0, 3))]
        code = goedel.encode_rat_seq(values)
        report.cases += 1
        if code.elements() != values:
            report.fail(kind="ratseq", values=values)
            continue
        for i, q in enumerate(values):
            report.cases += 1
            if not goedel.relem_holds(code.num, i, q):
                report.fail(kind="relem", values=values, index=i)
            if goedel.relem_holds(code.num, i, q + 1):
                report.fail(kind="relem-negative", values=values, index=i)
    # canonical codes vs the minimization formula, tiny scale
    mismatches = 0
    for length in range(1, 3):
        for seq in it.product(range(4), repeat=length):
            report.cases += 1
            canonical = goedel.encode_seq(list(seq)).num
            minimal = goedel.seq_minimal_bruteforce(list(seq))
            if minimal != canonical:
                mismatches += 1
                report.notes.append(
                    f"sequence {list(seq)}: canonical code {canonical}, "
                    f"least code {minimal}"
                )
    if mismatches:
        report.notes.append(
            f"{mismatches} canonical codes exceed the least admissible code; "
            "the canonical encoder is deterministic but not the formula minimum"
        )
    return report


def check_series(seed: int = 0) -> CheckReport:
    """Aggregates against direct iteration; both product constructions."""
    rng = random.Random(seed)
    report = CheckReport("series")
    dom = calkin_wilf(4)

    def structured(f, sigma):
        return eval_exp(f, sigma, dom, mode=ORACLE)

    harmonic = make_sum(parse_exp("1/$s"), Var("x"))
    expected = Fraction(0)
    for n in range(1, 9):
        expected += Fraction(1, n)
        report.cases += 1
        got = structured(harmonic.pure, state(x=n))
        if got != expected:
            report.fail(kind="harmonic", n=n, got=got, want=expected)

    factorial = make_product(parse_exp("[$p = 0] * 1 + [1 <= $p] * $p"), Var("n"))
    import math

    for n in range(7):
        report.cases += 1
        got = structured(factorial.pure, state(n=n))
        if got != math.factorial(max(n, 1)):
            report.fail(kind="factorial", n=n, got=got)

    variables = [Var("x"), Var("y")]
    for i in range(SERIES_ODOT_CASES):
        f = rand_qf_exp(rng, variables, 2)
        g = rand_qf_exp(rng, variables, 2)
        sigma = rand_state(rng, variables)
        report.cases += 1
        got = structured(odot(f, g), sigma)
        want = eval_exp(f, sigma) * eval_exp(g, sigma)
        if got != want:
            report.fail(kind="odot", case=i, f=print_exp(f), g=print_exp(g),
                        state=sigma, got=got, want=want)
    for i in range(SERIES_CUT_CASES):
        f = rand_qf_exp(rng, variables, 1)
        g = rand_qf_exp(rng, variables, 1)
        sigma = rand_state(rng, variables)
        report.cases += 1
        got = structured(dedekind_product(f, g), sigma)
        want = structured(odot(f, g), sigma)
        if got != want:
            report.fail(kind="cut-product", case=i, f=print_exp(f),
                        g=print_exp(g), state=sigma, got=got, want=want)
    return report


def check_loop(seed: int = 0) -> CheckReport:
    """Agreement of the loop oracles at every truncation depth.

    The fixed-point iterate, the path sum, the compiled loop's plan and the
    syntactic unrolling agree at every k, and for k >= 1 so does the
    expectation of the post under ``forward_dist`` at fuel k - 1 (the posts
    are quantifier-free).  Each loop is swept k = 0, 1, ... from one start
    under the default cap, so the path sum, the plan and ``forward_dist``
    continue their last forward pass at each k: the start matches, the
    kept pass is no deeper than asked and the cap is the one it was built
    under (a pass past ``DEFAULT_STATE_CAP`` entries would not be kept).
    """
    rng = random.Random(seed)
    report = CheckReport("loop")
    for i in range(LOOP_COUNT):
        loop, post, varset = rand_loop(rng)
        sigma = State({Var("c"): Fraction(1), Var("x"): Fraction(rng.randint(0, 2))})
        encoding = encode_loop(loop, post, varset)
        phi_values = []
        for k in range(LOOP_DEPTH + 1):
            report.cases += 1
            kleene = kleene_iterate(loop, post, sigma, k)
            paths = path_sum(loop, post, sigma, varset, k)
            plan = encoding.plan_eval(sigma, k)
            unrolled = eval_exp(char_iterates(loop, post, k), sigma)
            fwd = (forward_dist(loop, sigma, varset, k - 1).expectation(post)
                   if k >= 1 else None)
            phi_values.append(kleene)
            if not (kleene == paths == plan == unrolled
                    and (k == 0 or fwd == kleene)):
                report.fail(case=i, k=k, program=print_program(loop),
                            post=print_exp(post), state=sigma, kleene=kleene,
                            paths=paths, plan=plan, unrolled=unrolled, fwd=fwd)
        if any(a > b for a, b in zip(phi_values, phi_values[1:])):
            report.fail(case=i, reason="not monotone",
                        values=[str(v) for v in phi_values])
    return report


def rand_fo(rng: random.Random, variables, depth: int) -> FOFormula:
    if depth <= 0 or rng.random() < 0.4:
        return Atom(rand_bexpr(rng, variables, 1))
    match rng.randint(0, 4):
        case 0:
            return FOAnd(rand_fo(rng, variables, depth - 1),
                         rand_fo(rng, variables, depth - 1))
        case 1:
            return FOOr(rand_fo(rng, variables, depth - 1),
                        rand_fo(rng, variables, depth - 1))
        case 2:
            return FONot(rand_fo(rng, variables, depth - 1))
        case _:
            v = rng.choice([Var("v"), Var("w")])
            ctor = rng.choice([Exists, Forall])
            return ctor(v, rand_fo(rng, variables + [v], depth - 1))


def check_fo(seed: int = 0) -> CheckReport:
    """{0,1}-valuedness of embeddings; guarding of the naturals translation."""
    rng = random.Random(seed)
    report = CheckReport("fo")
    variables = [Var("x"), Var("y")]
    for i in range(FO_CASES):
        p = goedel.fo_prenex(rand_fo(rng, variables, 3))
        emb = goedel.fo_to_exp(p)
        sigma = rand_state(rng, variables)
        dom = calkin_wilf(4, {rand_rat(rng)})
        report.cases += 1
        value = eval_exp(emb, sigma, dom)
        if value not in (ZERO, ONE):
            report.fail(case=i, reason="not {0,1}", formula=print_fo(p), got=value)
            continue
        want = eval_fo(p, sigma, dom)
        if (value == ONE) != want:
            report.fail(case=i, reason="embedding disagrees", formula=print_fo(p),
                        got=value, want=want)
    # naturalness guarding: quantifier-free and bounded-quantifier instances
    y = Var("y")
    for i in range(FO_CASES // 2):
        qf = rand_bexpr(rng, [y], 1)
        bound = rng.randint(1, 3)
        v = Var("v")
        p = Forall(v, FONot(FOAnd(Atom(Lt(VarRef(v), RatLit(Fraction(bound)))),
                                  FONot(Atom(rand_bexpr(rng, [v, y], 1))))))
        for formula in (Atom(qf), p):
            lifted = goedel.fo_nat_to_rat(goedel.fo_prenex(formula))
            dom = calkin_wilf(6, set(range(bound + 2)))
            # non-natural assignment: always false
            report.cases += 1
            if Var("y") in free_vars(formula):
                bad = state(y=Fraction(1, 2))
                if eval_fo(lifted, bad, dom):
                    report.fail(case=i, reason="guarding failed",
                                formula=print_fo(formula))
            # natural assignments: agreement with truth over the naturals
            sigma = state(y=rng.randint(0, 3))
            nat_dom = QDomain([Fraction(k) for k in range(bound + 2)])
            report.cases += 1
            want = eval_fo(formula, sigma, nat_dom)
            got = eval_fo(lifted, sigma, dom)
            if got != want:
                report.fail(case=i, reason="agreement failed",
                            formula=print_fo(formula), state=sigma,
                            got=got, want=want)
    return report


SUITES = {
    "duality": check_duality,
    "prenex": check_prenex,
    "dnf": check_dnf,
    "goedel": check_goedel,
    "series": check_series,
    "loop": check_loop,
    "fo": check_fo,
}
