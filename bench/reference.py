"""Reference computations and seeded input generators for the benchmark.

Nothing here imports ``wpengine``: the benchmark checks the engine's answers
against these computations, so they must not share its code.  Inputs are
small tuple trees that print to the engine's concrete syntax:

* terms:        ("lit", q) | ("var", name) | ("add"|"mul"|"sub", a, b)
* guards:       ("lt"|"le"|"eq", a, b) | ("and", p, q) | ("not", p)
* expectations: ("ar", a) | ("guard", b, e) | ("plus", e, f)
                | ("scale", a, e) | ("sup"|"inf", name, e)
* programs:     ("skip",) | ("assign", name, a) | ("seq", p, q)
                | ("flip", p, prob, q) | ("ite", b, p, q)

``sub`` is subtraction truncated at zero, as in the engine's language.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Printing to the engine's concrete syntax
# ---------------------------------------------------------------------------

def fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def print_term(a) -> str:
    match a:
        case ("lit", q):
            return fmt_rat(q)
        case ("var", name):
            return name
        case (op, l, r):
            sym = {"add": "+", "mul": "*", "sub": "-"}[op]
            return f"({print_term(l)} {sym} {print_term(r)})"
    raise ValueError(a)


def print_guard(b) -> str:
    match b:
        case ("and", p, q):
            return f"({print_guard(p)} && {print_guard(q)})"
        case ("not", p):
            return f"!({print_guard(p)})"
        case (op, l, r):
            sym = {"lt": "<", "le": "<=", "eq": "="}[op]
            return f"{print_term(l)} {sym} {print_term(r)}"
    raise ValueError(b)


def print_expectation(e) -> str:
    match e:
        case ("ar", a):
            return print_term(a)
        case ("guard", b, body):
            return f"[{print_guard(b)}] * ({print_expectation(body)})"
        case ("plus", l, r):
            return f"{print_expectation(l)} + {print_expectation(r)}"
        case ("scale", a, body):
            return f"{print_term(a)} * ({print_expectation(body)})"
        case (("sup" | "inf") as q, name, body):
            return f"({q} {name}: {print_expectation(body)})"
    raise ValueError(e)


def print_prog(p) -> str:
    match p:
        case ("skip",):
            return "skip"
        case ("assign", name, a):
            return f"{name} := {print_term(a)}"
        case ("seq", first, second):
            return f"{print_prog(first)}; {print_prog(second)}"
        case ("flip", left, prob, right):
            return f"{{{print_prog(left)}}} [{fmt_rat(prob)}] {{{print_prog(right)}}}"
        case ("ite", b, then, orelse):
            return f"if ({print_guard(b)}) {{{print_prog(then)}}} else {{{print_prog(orelse)}}}"
    raise ValueError(p)


# ---------------------------------------------------------------------------
# Evaluation (states are dicts from names to Fractions; unbound reads 0)
# ---------------------------------------------------------------------------

def eval_term(a, env) -> Fraction:
    match a:
        case ("lit", q):
            return q
        case ("var", name):
            return env.get(name, ZERO)
        case ("add", l, r):
            return eval_term(l, env) + eval_term(r, env)
        case ("mul", l, r):
            return eval_term(l, env) * eval_term(r, env)
        case ("sub", l, r):
            return max(eval_term(l, env) - eval_term(r, env), ZERO)
    raise ValueError(a)


def eval_guard(b, env) -> bool:
    match b:
        case ("lt", l, r):
            return eval_term(l, env) < eval_term(r, env)
        case ("le", l, r):
            return eval_term(l, env) <= eval_term(r, env)
        case ("eq", l, r):
            return eval_term(l, env) == eval_term(r, env)
        case ("and", p, q):
            return eval_guard(p, env) and eval_guard(q, env)
        case ("not", p):
            return not eval_guard(p, env)
    raise ValueError(b)


def eval_expectation(e, env, domain=()) -> Fraction:
    """Value of a finite-valued expectation; quantifiers range over ``domain``."""
    match e:
        case ("ar", a):
            return eval_term(a, env)
        case ("guard", b, body):
            return eval_expectation(body, env, domain) if eval_guard(b, env) else ZERO
        case ("plus", l, r):
            return eval_expectation(l, env, domain) + eval_expectation(r, env, domain)
        case ("scale", a, body):
            factor = eval_term(a, env)
            return ZERO if factor == 0 else factor * eval_expectation(body, env, domain)
        case ("sup", name, body):
            return max(eval_expectation(body, {**env, name: q}, domain) for q in domain)
        case ("inf", name, body):
            return min(eval_expectation(body, {**env, name: q}, domain) for q in domain)
    raise ValueError(e)


def run_prog(p, env) -> dict[tuple, Fraction]:
    """Final-state distribution by enumerating every coin flip outcome.

    Keys are sorted (name, value) tuples without zero bindings.
    """
    out: dict[tuple, Fraction] = {}

    def go(prog, env, weight, rest):
        match prog:
            case ("skip",):
                finish(env, weight, rest)
            case ("assign", name, a):
                finish({**env, name: eval_term(a, env)}, weight, rest)
            case ("seq", first, second):
                go(first, env, weight, [second] + rest)
            case ("flip", left, prob, right):
                if prob != 0:
                    go(left, env, weight * prob, rest)
                if prob != 1:
                    go(right, env, weight * (1 - prob), rest)
            case ("ite", b, then, orelse):
                go(then if eval_guard(b, env) else orelse, env, weight, rest)
            case _:
                raise ValueError(prog)

    def finish(env, weight, rest):
        if rest:
            go(rest[0], env, weight, rest[1:])
        else:
            key = tuple(sorted((k, v) for k, v in env.items() if v != 0))
            out[key] = out.get(key, ZERO) + weight

    go(p, env, Fraction(1), [])
    return out


def expected_value(p, post, env) -> Fraction:
    return sum((w * eval_expectation(post, dict(s)) for s, w in run_prog(p, env).items()), ZERO)


# ---------------------------------------------------------------------------
# The two loop families: dynamic programming over (steps left, state)
# ---------------------------------------------------------------------------

WALK_TEXT = "while (x < 40) { {x := x + 1} [1/2] {x := x + 2} }"
GEO_TEXT = "while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }"
HALF = Fraction(1, 2)


def walk_steps(x: Fraction):
    """Successors of one guarded iteration of the walk, with probabilities."""
    if x >= 40:
        return [(x, Fraction(1))]
    return [(x + 1, HALF), (x + 2, HALF)]


def geo_steps(s):
    c, x = s
    if c != 1:
        return [(s, Fraction(1))]
    return [((Fraction(0), x + 1), HALF), ((Fraction(1), x + 1), HALF)]


LOOPS = {
    # name: (guard holds, one guarded iteration, value of post x)
    "walk": (lambda x: x < 40, walk_steps, lambda x: x),
    "geo": (lambda s: s[0] == 1, geo_steps, lambda s: s[1]),
}


def loop_values(loop: str, start, max_k: int) -> list[Fraction]:
    """k-th fixed-point iterate from zero at ``start``, for k = 0..max_k.

    V_0 = 0; V_k(s) = post(s) where the guard fails, else the expected
    V_{k-1} over one iteration.
    """
    holds, steps, post = LOOPS[loop]
    memo: dict = {}

    def value(k, s):
        if k == 0:
            return ZERO
        key = (k, s)
        if key not in memo:
            if holds(s):
                memo[key] = sum((p * value(k - 1, t) for t, p in steps(s)), ZERO)
            else:
                memo[key] = post(s)
        return memo[key]

    return [value(k, start) for k in range(max_k + 1)]


def path_counts(loop: str, start, k: int) -> tuple[int, int]:
    """(length-k state sequences from ``start``, distinct (step, state) pairs).

    Sequences follow positive-probability steps of the guarded iteration (a
    stopped run stays put), which is what a path enumeration visits; the
    pairs are what a dynamic program over (step, state) visits.
    """
    _, steps, _ = LOOPS[loop]
    layer = {start: 1}
    pairs = 1
    for _ in range(k - 1):
        nxt: dict = {}
        for s, n in layer.items():
            for t, _p in steps(s):
                nxt[t] = nxt.get(t, 0) + n
        layer = nxt
        pairs += len(layer)
    return sum(layer.values()), pairs


def geo_closed_form(k: int) -> Fraction:
    """k-th iterate of the geometric loop at c=1, x=0."""
    return 2 - (k + 1) * HALF ** (k - 1)


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), ZERO)


def factorial(n: int) -> int:
    return math.factorial(n)


def calkin_wilf_prefix(k: int) -> list[Fraction]:
    """0 followed by the first k rationals of the Calkin-Wilf sequence."""
    out, q = [ZERO], Fraction(1)
    for _ in range(k):
        out.append(q)
        q = 1 / (2 * math.floor(q) - q + 1)
    return out


def encode_loop_line(k: int) -> str:
    """Expected ``encode-loop`` output line for the geometric loop at c=1,x=0."""
    return f"k={k}: {fmt_rat(geo_closed_form(k) if k else ZERO)}"


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def rand_rat(rng: random.Random, top: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(0, top * den), rng.randint(1, den))


def rand_frac_part(rng: random.Random) -> Fraction:
    """A rational in [0, 1) with a small denominator."""
    d = rng.randint(2, 7)
    return Fraction(rng.randint(0, d - 1), d)


def lit(q) -> tuple:
    return ("lit", Fraction(q))


def var(name: str) -> tuple:
    return ("var", name)


def rand_atom(rng, names, top=4):
    return var(rng.choice(names)) if rng.random() < 0.6 else lit(rng.randint(0, top))


def rand_term(rng, names) -> tuple:
    """One operator over two atoms, never a product of two constants."""
    op = rng.choice(("add", "add", "mul", "sub"))
    return (op, var(rng.choice(names)), rand_atom(rng, names))


def rand_compare(rng, names) -> tuple:
    return (rng.choice(("lt", "le", "eq")), var(rng.choice(names)), lit(rng.randint(0, 4)))


def rand_guard(rng, names) -> tuple:
    cmp = rand_compare(rng, names)
    roll = rng.random()
    if roll < 0.25:
        return ("not", cmp)
    if roll < 0.5:
        return ("and", cmp, ("lt", var(rng.choice(names)), rand_atom(rng, names, 6)))
    return cmp


def rand_qf_exp(rng, names) -> tuple:
    """Sum of three summands: a term, a guarded term, a scaled guarded term."""
    return ("plus",
            ("ar", rand_term(rng, names)),
            ("plus",
             ("guard", rand_guard(rng, names), ("ar", rand_term(rng, names))),
             ("scale", lit(rand_rat(rng, 2, 3) + 1),
              ("guard", rand_guard(rng, names), ("ar", var(rng.choice(names)))))))


def rand_factor(rng, names) -> tuple:
    """A term plus a guarded term, with a single comparison as the guard."""
    return ("plus", ("ar", rand_term(rng, names)),
            ("guard", rand_compare(rng, names), ("ar", rand_term(rng, names))))


def rand_assign(rng, names) -> tuple:
    """``v := w op c``: one variable and a constant, so that substituting
    the right-hand side never multiplies the occurrences of a variable and
    the preexpectation grows by the same amount whatever the seed."""
    op = rng.choice(("add", "add", "mul", "sub"))
    return ("assign", rng.choice(names), (op, var(rng.choice(names)), lit(rng.randint(1, 4))))


LOOP_FREE_SHAPE = ("assign",) * 4 + ("flip",) * 2 + ("ite",) * 2


def rand_loop_free(rng, names) -> tuple:
    """A straight-line program with a fixed count of each statement kind.

    The count fixes the number of branch points, so every seed costs about
    the same; the order and contents are random.
    """
    kinds = list(LOOP_FREE_SHAPE)
    rng.shuffle(kinds)
    stmts = []
    for kind in kinds:
        if kind == "assign":
            stmts.append(rand_assign(rng, names))
        elif kind == "flip":
            prob = Fraction(rng.randint(1, 5), 6)
            stmts.append(("flip", rand_assign(rng, names), prob, rand_assign(rng, names)))
        else:
            stmts.append(("ite", rand_guard(rng, names), rand_assign(rng, names), ("skip",)))
    prog = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        prog = ("seq", stmt, prog)
    return prog


def rand_state(rng, names) -> dict[str, Fraction]:
    return {name: rand_rat(rng, 4, 3) for name in names}


def rand_quantified(rng, names) -> tuple:
    """Guarded sum with one sup and one inf summand, for the normal forms.

    Every guard is a single comparison: the cut form repeats each guard in
    all 2^4 conjuncts, so a compound guard would double the query's cost.
    """
    v, w = "v", "w"
    sup_part = ("sup", v, ("guard", ("lt", var(v), rand_atom(rng, names)),
                           ("ar", (rng.choice(("add", "mul")), var(v), rand_atom(rng, names)))))
    inf_part = ("inf", w, ("plus", ("ar", var(w)),
                           ("guard", ("lt", var(w), rand_atom(rng, names)),
                            ("ar", lit(rng.randint(1, 3))))))
    return ("plus", sup_part,
            ("plus", ("guard", rand_compare(rng, names), inf_part),
             ("guard", rand_compare(rng, names), ("ar", rand_term(rng, names)))))
