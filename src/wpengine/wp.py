"""The weakest-preexpectation transformer and its semantic cross-checks.

``wp_loop_free`` is purely syntactic: it rewrites a postexpectation
backwards through a loop-free program.  Loops are handled semantically by
three mutually independent oracles that must agree at every depth k:

* ``kleene_iterate`` -- k-fold application of the loop's characteristic
  function, computed by memoized recursion over states;
* ``path_sum`` -- the k-truncated sum over state sequences, each weighted by
  the product of one-step transition values, computed by one forward pass
  over (step, state) pairs;
* ``char_apply`` iterated syntactically from the zero expectation.

The path sum reads the one-step support and transition values from the
loop's ``StepKernel``, which is cached on the loop node, so a k-sweep over
one loop computes each of them once; the loop encoding's plan shares the
support.  The Kleene iterate, the syntactic unrolling and ``forward_dist``
never read the kernel, so they stay independent of it.

``forward_dist`` is the forward (distribution-transformer) semantics used to
validate the backward transformer via the duality between the two views.
All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContainsLoop, FuelExceeded
from .semantics import State, eval_aexpr, eval_bexpr, eval_exp
from .syntax import (
    AExpr,
    And,
    Arith,
    Assign,
    Exp,
    Guard,
    Ite,
    Not,
    PChoice,
    Plus,
    Program,
    RatLit,
    Scale,
    Seq,
    Skip,
    Var,
    VarRef,
    While,
    balanced,
    contains_loop,
    eq_,
    free_vars,
    statements,
    substitute,
    true_,
    vars_program,
)
from .xreal import XReal, ZERO, format_rat

DEFAULT_STATE_CAP = 100_000


@dataclass(frozen=True)
class VarSet:
    """Ordered, duplicate-free list of relevant variables.

    The order is significant: it indexes positional encodings of states.
    """

    variables: tuple[Var, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variables in variable set")

    @staticmethod
    def of(*names) -> "VarSet":
        return VarSet(tuple(Var(n) if isinstance(n, str) else n for n in names))

    @staticmethod
    def for_program(prog: Program, *exps: Exp) -> "VarSet":
        seen = vars_program(prog)
        for f in exps:
            seen |= free_vars(f)
        return VarSet(tuple(sorted(seen)))

    def __iter__(self):
        return iter(self.variables)

    def __len__(self):
        return len(self.variables)

    def __contains__(self, var: Var) -> bool:
        return var in self.variables

    def issuperset(self, other) -> bool:
        return set(self.variables) >= set(other)


class Dist:
    """Finite subdistribution over states with exact rational weights.

    Keys are states restricted to the relevant variables; zero-weight
    entries are dropped and the total mass never exceeds 1.
    """

    __slots__ = ("weights", "mass")

    def __init__(self, weights: dict[State, Fraction]):
        cleaned = {s: w for s, w in weights.items() if w != 0}
        mass = sum(cleaned.values(), Fraction(0))
        if any(w < 0 for w in cleaned.values()) or mass > 1:
            raise ValueError("weights must be non-negative with mass <= 1")
        self.weights = cleaned
        self.mass = mass

    def expectation(self, f: Exp) -> XReal:
        """Expected value of a quantifier-free postexpectation."""
        total = ZERO
        for sigma, weight in self.weights.items():
            total = total + XReal.of(weight) * eval_exp(f, sigma)
        return total

    def items(self):
        return self.weights.items()

    def __len__(self):
        return len(self.weights)

    def to_json(self, varset: VarSet) -> dict:
        entries = []
        for sigma in sorted(self.weights, key=lambda s: tuple(s[v] for v in varset)):
            entries.append(
                {
                    "state": {v.name: format_rat(sigma[v]) for v in varset},
                    "weight": format_rat(self.weights[sigma]),
                }
            )
        return {"entries": entries, "mass": format_rat(self.mass)}


# ---------------------------------------------------------------------------
# Syntactic transformer
# ---------------------------------------------------------------------------

def wp_loop_free(prog: Program, post: Exp) -> Exp:
    """Backward transform of ``post`` through a loop-free program.

    One walk over the statements from last to first, with ``Seq`` flattened
    by ``statements``, so deep sequencing costs no recursion.  skip
    keeps the postexpectation.  Each maximal run of assignments
    ``x1 := e1; ...; xn := en`` (skips aside) is one parallel substitution
    whose mapping is built forward, ``m[xi] = ei[m]``: by the substitution
    lemma it is the chain ``post[xn/en]...[x1/e1]``, and a tagged post is
    rebuilt once per run.  Both kinds of branching form convex sums of the
    branches' transforms, with the guard as the Iverson weight in the
    conditional case.  A branch separates two runs; on a tagged post their
    ``SubstPlan``s compose into one.
    """
    stack, block = statements(prog), []  # block: the current run, last first
    while True:
        stmt = stack.pop() if stack else None  # None: the program's start
        if isinstance(stmt, Assign):
            block.append(stmt)
        elif not isinstance(stmt, Skip):
            mapping: dict[Var, AExpr] = {}
            for assign in reversed(block):
                mapping[assign.var] = substitute(assign.expr, mapping)
            post, block = substitute(post, mapping), []
            match stmt:
                case None:
                    return post
                case PChoice(left, p, right):
                    post = Plus(Scale(RatLit(p), wp_loop_free(left, post)),
                                Scale(RatLit(1 - p), wp_loop_free(right, post)))
                case Ite(cond, then, orelse):
                    post = Plus(Guard(cond, wp_loop_free(then, post)),
                                Guard(Not(cond), wp_loop_free(orelse, post)))
                case While():
                    raise ContainsLoop("wp_loop_free cannot transform a while loop")
                case _:
                    raise TypeError(stmt)


def char_apply(loop: While, post: Exp, current: Exp) -> Exp:
    """[!guard] * post + [guard] * wp(body)(current), syntactically."""
    if contains_loop(loop.body):
        raise ContainsLoop("characteristic function needs a loop-free body")
    return Plus(
        Guard(Not(loop.cond), post),
        Guard(loop.cond, wp_loop_free(loop.body, current)),
    )


def char_iterates(loop: While, post: Exp, k: int) -> Exp:
    """The k-th syntactic unrolling, starting from the zero expectation."""
    current: Exp = Arith(RatLit(Fraction(0)))
    for _ in range(k):
        current = char_apply(loop, post, current)
    return current


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------

def forward_dist(prog: Program, sigma: State, varset: VarSet, fuel: int,
                 state_cap: int = DEFAULT_STATE_CAP) -> Dist:
    """Exact subdistribution over final states reachable within ``fuel``.

    ``fuel`` bounds the number of guarded iterations of every loop
    (including nested ones); in-flight mass beyond the bound is dropped, so
    weights grow monotonically with fuel.  For a loop with a loop-free
    body, the expectation under fuel k equals the Kleene iterate k + 1,
    which also allows k executions of the body before the final guard test.
    """
    result = _forward(prog, {sigma.restrict(varset): Fraction(1)}, varset,
                      fuel, state_cap)
    return Dist(result)


def _check_cap(frontier: dict, state_cap: int):
    if len(frontier) > state_cap:
        raise FuelExceeded(
            f"state set reached {len(frontier)} states, above the cap of {state_cap}"
        )


def _forward(prog: Program, frontier: dict[State, Fraction], varset: VarSet,
             fuel: int, state_cap: int) -> dict[State, Fraction]:
    match prog:
        case Skip():
            return dict(frontier)
        case Assign(var, expr):
            out: dict[State, Fraction] = {}
            for sigma, w in frontier.items():
                tau = sigma.set(var, eval_aexpr(expr, sigma)).restrict(varset)
                out[tau] = out.get(tau, Fraction(0)) + w
            _check_cap(out, state_cap)
            return out
        case Seq():
            for stmt in statements(prog):
                frontier = _forward(stmt, frontier, varset, fuel, state_cap)
            return frontier
        case PChoice(left, p, right):
            out = {}
            branches = []
            if p != 0:
                branches.append((left, p))
            if p != 1:
                branches.append((right, 1 - p))
            for branch, weight in branches:
                scaled = {s: w * weight for s, w in frontier.items()}
                for s, w in _forward(branch, scaled, varset, fuel, state_cap).items():
                    out[s] = out.get(s, Fraction(0)) + w
            _check_cap(out, state_cap)
            return out
        case Ite(cond, then, orelse):
            true_part = {s: w for s, w in frontier.items() if eval_bexpr(cond, s)}
            false_part = {s: w for s, w in frontier.items() if s not in true_part}
            out = _forward(then, true_part, varset, fuel, state_cap) if true_part else {}
            if false_part:
                for s, w in _forward(orelse, false_part, varset, fuel, state_cap).items():
                    out[s] = out.get(s, Fraction(0)) + w
            _check_cap(out, state_cap)
            return out
        case While(cond, body):
            done: dict[State, Fraction] = {}
            alive = dict(frontier)

            def split():
                nonlocal alive
                still = {}
                for s, w in alive.items():
                    if eval_bexpr(cond, s):
                        still[s] = w
                    else:
                        done[s] = done.get(s, Fraction(0)) + w
                alive = still

            split()
            for _ in range(fuel):
                if not alive:
                    break
                alive = _forward(body, alive, varset, fuel, state_cap)
                _check_cap(alive, state_cap)
                split()
            return done
    raise TypeError(prog)


# ---------------------------------------------------------------------------
# Semantic backward interpreter and fixed-point iteration
# ---------------------------------------------------------------------------

def _sem_wp(prog: Program, cont, sigma: State, fuel: int, state_cap: int) -> XReal:
    """Apply the backward transformer to a semantic continuation.

    ``cont`` maps states to extended reals.  While loops are approximated by
    their own ``fuel``-fold iteration (the documented approximation knob for
    nested loops), each with its own memo table under ``state_cap``.
    """
    match prog:
        case Skip():
            return cont(sigma)
        case Assign(var, expr):
            return cont(sigma.set(var, eval_aexpr(expr, sigma)))
        case Seq(first, second):
            rest = lambda tau: _sem_wp(second, cont, tau, fuel, state_cap)
            return _sem_wp(first, rest, sigma, fuel, state_cap)
        case PChoice(left, p, right):
            total = ZERO
            for branch, weight in ((left, p), (right, 1 - p)):
                if weight:
                    total = total + XReal.of(weight) * _sem_wp(
                        branch, cont, sigma, fuel, state_cap)
            return total
        case Ite(cond, then, orelse):
            branch = then if eval_bexpr(cond, sigma) else orelse
            return _sem_wp(branch, cont, sigma, fuel, state_cap)
        case While():
            return _kleene_value(prog, cont, sigma, fuel, state_cap)
    raise TypeError(prog)


def _kleene_value(loop: While, cont, sigma: State, fuel: int, state_cap: int) -> XReal:
    """The ``fuel``-th iterate at ``sigma``, memoized over (level, state)."""
    cache: dict[tuple[int, State], XReal] = {}
    met = 0

    def go(level: int, s: State) -> XReal:
        nonlocal met
        if level == 0:
            return ZERO
        key = (level, s)
        if key in cache:
            return cache[key]
        met += 1  # an entry counts when first met, so a chain trips the cap
        if met > state_cap:
            raise FuelExceeded(
                f"memo table reached {met} entries, above the cap of {state_cap}"
            )
        if eval_bexpr(loop.cond, s):
            value = _sem_wp(loop.body, lambda tau: go(level - 1, tau), s, fuel,
                            state_cap)
        else:
            value = cont(s)
        cache[key] = value
        return value

    return go(fuel, sigma)


def kleene_iterate(loop: While, post: Exp, sigma: State, k: int,
                   state_cap: int = DEFAULT_STATE_CAP) -> XReal:
    """Value at ``sigma`` of the k-th fixed-point iterate from zero.

    Monotone and nondecreasing in k; ``post`` must be quantifier-free so
    evaluation is exact.
    """
    cont = lambda tau: eval_exp(post, tau)
    return _kleene_value(loop, cont, sigma, k, state_cap)


# ---------------------------------------------------------------------------
# Path-sum oracle
# ---------------------------------------------------------------------------

def char_assertion(sigma: State, varset: VarSet) -> Exp:
    """{0,1} indicator of the states that agree with sigma on the variables."""
    conj = balanced(And, [eq_(VarRef(v), RatLit(sigma[v])) for v in varset], true_)
    return Guard(conj, Arith(RatLit(Fraction(1))))


def bounded(table: dict) -> dict:
    """``table``, emptied first if one more entry would pass
    ``DEFAULT_STATE_CAP``: the bound on every memo table that outlives a
    call."""
    if len(table) >= DEFAULT_STATE_CAP:
        table.clear()
    return table


class StepKernel:
    """One-step facts of a loop's guarded iteration over a variable set.

    The one-step support of a state (the targets of ``forward_dist(c_iter,
    s, varset, 1)``) and ``path_sum``'s one-step factor of a transition
    s -> t (``wp_loop_free(c_iter, char_assertion(t))`` evaluated at s)
    depend on the loop, the variable set and the states alone, so a k-sweep
    computes each of them once.  ``step_kernel`` keeps one kernel per
    variable set on the loop node itself, so it is freed with the loop.
    Each table empties itself once it would grow past ``DEFAULT_STATE_CAP``
    entries, so memory stays bounded in a long-running process.
    """

    def __init__(self, loop: While, varset: VarSet):
        self.c_iter = Ite(loop.cond, loop.body, Skip())
        self.varset = varset
        self.support: dict[State, tuple[State, ...]] = {}
        self.factors: dict[tuple[State, State], Fraction] = {}

    def successors(self, s: State) -> tuple[State, ...]:
        """Targets of one guarded iteration from the restricted state s."""
        try:
            return self.support[s]
        except KeyError:
            pass
        out = tuple(forward_dist(self.c_iter, s, self.varset, 1).weights)
        bounded(self.support)[s] = out
        return out

    def factor(self, s: State, t: State) -> Fraction:
        """One-step value of s -> t, read off the syntactic transformer."""
        key = (s, t)
        try:
            return self.factors[key]
        except KeyError:
            pass
        into = wp_loop_free(self.c_iter, char_assertion(t, self.varset))
        out = eval_exp(into, s).finite
        bounded(self.factors)[key] = out
        return out


def step_kernel(loop: While, varset: VarSet) -> StepKernel:
    """The loop's one-step kernel over ``varset``, cached on the loop node.

    The kernels live in an attribute outside the node's dataclass fields,
    set with ``object.__setattr__``, so they die with the loop and no table
    is process-global.  ``kleene_iterate``, ``char_iterates`` and
    ``forward_dist`` never read it: they are the oracles it is checked
    against.
    """
    try:
        kernels = loop._kernels
    except AttributeError:
        kernels = {}
        object.__setattr__(loop, "_kernels", kernels)
    kernel = kernels.get(varset)
    if kernel is None:
        kernel = kernels[varset] = StepKernel(loop, varset)
    return kernel


def path_frontiers(loop: While, varset: VarSet, start: State, factor, unit,
                   steps: int, cap: int = DEFAULT_STATE_CAP) -> list[dict]:
    """Weights of the supported state sequences, summed by last state.

    Entry n maps each state t to the total weight of the supported state
    sequences of length n + 1 from ``start`` (restricted to ``varset``) that
    end in t, for n = 0, ..., ``steps``; a sequence's weight is ``unit``
    times ``factor(s, t)`` for each of its transitions s -> t.  Weight is
    pushed only along the one-step support of the guarded iteration, taken
    from the loop's ``step_kernel``: the omitted transitions would
    contribute zero factors.  This is one forward pass over (step, state),
    so the cost follows the distinct (step, state) pairs, not the number of
    sequences.  Raises ``FuelExceeded`` once more than ``cap`` (step, state)
    entries have been made; the kernel's own tables do not count.
    """
    successors = step_kernel(loop, varset).successors
    frontiers = [{start: unit}]
    entries = 1
    for n in range(1, steps + 1):
        frontier: dict = {}
        for s, w in frontiers[-1].items():
            for t in successors(s):
                pushed = w * factor(s, t)
                frontier[t] = frontier[t] + pushed if t in frontier else pushed
        entries += len(frontier)
        if entries > cap:
            raise FuelExceeded(
                f"path oracle reached {entries} (step, state) entries at "
                f"step {n}, above the cap of {cap}"
            )
        frontiers.append(frontier)
    return frontiers


def path_sum(loop: While, post: Exp, sigma: State, varset: VarSet, k: int,
             path_cap: int = DEFAULT_STATE_CAP) -> XReal:
    """Truncated sum over length-k state sequences from ``sigma``.

    Each sequence contributes the final value of [!guard] * post weighted by
    the product of one-step values of the guarded iteration, where a step's
    value is read off the syntactic transformer applied to the target
    state's indicator; the loop's ``step_kernel`` keeps each step's value,
    so a k-sweep computes it once.  The sum is computed by
    ``path_frontiers`` as sum_s w(s) * ([!guard] * post)(s) over the
    sequence weights w summed by last state, which distributes the final
    factor over the sequences, so its cost follows the (step, state) pairs
    rather than the 2^k paths.  ``path_cap`` bounds the (step, state)
    entries.
    """
    if not varset.issuperset(vars_program(loop) | free_vars(post)):
        raise ValueError("variable set must cover the loop and postexpectation")
    if k <= 0:
        return ZERO
    factor = step_kernel(loop, varset).factor
    last = path_frontiers(loop, varset, sigma.restrict(varset), factor,
                          Fraction(1), k - 1, path_cap)[-1]
    final_guard = Guard(Not(loop.cond), post)
    total = ZERO
    for s, weight in last.items():
        total = total + XReal.of(weight) * eval_exp(final_guard, s)
    return total
