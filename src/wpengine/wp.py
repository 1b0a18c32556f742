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

A k-sweep also shares the forward passes themselves.  The path sum, the
compiled loop's plan and ``forward_dist`` of a loop each keep their last
pass, keyed on its start and state cap, and continue it by the one rule
stated in ``_resume_pass``.
"""

from __future__ import annotations

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
from .xreal import ONE, XReal, ZERO, add, mul, sub, xadd, xmul

DEFAULT_STATE_CAP = 100_000


class VarSet(tuple):
    """Ordered, duplicate-free tuple of relevant variables.

    The order is significant: it indexes positional encodings of states.
    """

    __slots__ = ()

    def __new__(cls, variables):
        out = super().__new__(cls, variables)
        if len(set(out)) != len(out):
            raise ValueError("duplicate variables in variable set")
        return out

    @staticmethod
    def of(*names) -> "VarSet":
        return VarSet(Var(n) if isinstance(n, str) else n for n in names)

    @staticmethod
    def for_program(prog: Program, *exps: Exp) -> "VarSet":
        seen = vars_program(prog)
        for f in exps:
            seen |= free_vars(f)
        return VarSet(sorted(seen))

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(self)

    def issuperset(self, other) -> bool:
        return set(self) >= set(other)


class Dist:
    """Finite subdistribution over states with exact rational weights.

    Keys are states restricted to the relevant variables; zero-weight
    entries are dropped and the total mass never exceeds 1.
    """

    __slots__ = ("weights", "mass")

    def __init__(self, weights: dict[State, Fraction]):
        cleaned = {s: w for s, w in weights.items() if w != 0}
        mass = ZERO
        for w in cleaned.values():
            mass = add(mass, w)
        if any(w < 0 for w in cleaned.values()) or mass > 1:
            raise ValueError("weights must be non-negative with mass <= 1")
        self.weights = cleaned
        self.mass = mass

    def expectation(self, f: Exp) -> XReal:
        """Expected value of a quantifier-free postexpectation."""
        total = ZERO
        for sigma, weight in self.weights.items():
            total = xadd(total, xmul(weight, eval_exp(f, sigma)))
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
                    "state": {v.name: str(sigma[v]) for v in varset},
                    "weight": str(self.weights[sigma]),
                }
            )
        return {"entries": entries, "mass": str(self.mass)}


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
    lemma it is the chain ``post[xn/en]...[x1/e1]``.  The substitution into
    the post is delayed (``syntax.substitute``): it walks nothing, so the
    cost follows the program and not the post, and evaluation reads the
    post under each run's mapping; printing or walking the result builds
    it, to the same node as substituting at once.  Both kinds of branching
    form convex sums of the branches' transforms, with the guard as the
    Iverson weight in the conditional case.  A branch separates two runs;
    built, their plans on a tagged post compose into one.
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
                                Scale(RatLit(sub(ONE, p)), wp_loop_free(right, post)))
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

def _resume_pass(owner, attr: str, key, depth: int, first, step, size):
    """Run a forward pass from ``key`` to ``depth``, continuing the last one.

    This is the one resume rule of the loop oracles.  ``owner.<attr>``
    keeps the last pass as (key, depth, carry): the key holds the pass's
    start and its state cap, and the carry is what the next step needs.  A
    call continues the kept pass when the key matches, cap included, and
    the pass is no deeper than ``depth``; otherwise it starts over, and the
    new pass replaces the kept one.  Every kept step passed that same cap,
    and later steps count entries as a cold pass does, so a warm call
    returns the value, weights and ``FuelExceeded`` message of a cold one.
    ``first(carry)`` makes the working carry from a kept carry, which is
    never written, or from None at the start.  ``step(n, carry)`` makes
    step n and returns the new carry, or None when no later step changes
    it.  A pass whose ``size(carry)`` is above ``DEFAULT_STATE_CAP`` is not
    kept, nor is one that raises; a negative depth is depth 0.
    """
    depth = max(depth, 0)
    kept = getattr(owner, attr, None)
    if kept is not None and kept[0] == key and kept[1] <= depth:
        n, carry = kept[1], first(kept[2])
    else:
        n, carry = 0, first(None)
    for n in range(n + 1, depth + 1):
        stepped = step(n, carry)
        if stepped is None:
            break
        carry = stepped
    if size(carry) <= DEFAULT_STATE_CAP:
        object.__setattr__(owner, attr, (key, depth, carry))
    return carry


def forward_dist(prog: Program, sigma: State, varset: VarSet, fuel: int,
                 state_cap: int = DEFAULT_STATE_CAP) -> Dist:
    """Exact subdistribution over final states reachable within ``fuel``.

    ``fuel`` bounds the number of guarded iterations of every loop
    (including nested ones); in-flight mass beyond the bound is dropped, so
    weights grow monotonically with fuel.  For a loop with a loop-free
    body, the expectation under fuel k equals the Kleene iterate k + 1,
    which also allows k executions of the body before the final guard test.

    For such a loop the ``While`` node keeps the last pass, keyed on the
    start, the variable set and ``state_cap``: the iterations made, and the
    mass still running and done after them.  A call continues it by
    ``_resume_pass``'s rule, so a fuel sweep runs each iteration once.  A
    body with a loop of its own always runs cold, since its inner loops
    also read ``fuel``.
    """
    start = sigma.restrict(varset)
    if isinstance(prog, While) and not contains_loop(prog.body):
        def first(kept):
            if kept is None:
                done: dict[State, Fraction] = {}
                return _exits(prog.cond, {start: Fraction(1)}, done), done
            alive, done = kept
            return alive, dict(done)  # the kept pass is never written

        def iterate(n, carry):
            alive, done = carry
            if not alive:
                return None  # no mass left to run: every later depth is this one
            return _iterate(prog, alive, done, varset, fuel, state_cap), done

        _, done = _resume_pass(prog, "_forward_pass", (start, varset, state_cap),
                               fuel, first, iterate,
                               lambda carry: len(carry[0]) + len(carry[1]))
        return Dist(done)
    return Dist(_forward(prog, {start: Fraction(1)}, varset, fuel, state_cap))


def _check_cap(frontier: dict, state_cap: int):
    if len(frontier) > state_cap:
        raise FuelExceeded(
            f"state set reached {len(frontier)} states, above the cap of {state_cap}"
        )


def _add_weight(dist: dict[State, Fraction], s: State, w: Fraction) -> None:
    """Add ``w`` to the weight of ``s`` in ``dist``; a first weight is
    stored as it is."""
    old = dist.get(s)
    dist[s] = w if old is None else add(old, w)


def _forward(prog: Program, frontier: dict[State, Fraction], varset: VarSet,
             fuel: int, state_cap: int) -> dict[State, Fraction]:
    match prog:
        case Skip():
            return dict(frontier)
        case Assign(var, expr):
            # the frontier is restricted already, and a compiled term gives
            # a valid value
            kept = var in varset
            out: dict[State, Fraction] = {}
            for sigma, w in frontier.items():
                tau = sigma._bind(var, eval_aexpr(expr, sigma))
                if not kept:
                    tau = tau.restrict(varset)
                _add_weight(out, tau, w)
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
                branches.append((right, sub(ONE, p)))
            for branch, weight in branches:
                scaled = {s: mul(w, weight) for s, w in frontier.items()}
                for s, w in _forward(branch, scaled, varset, fuel, state_cap).items():
                    _add_weight(out, s, w)
            _check_cap(out, state_cap)
            return out
        case Ite(cond, then, orelse):
            true_part = {s: w for s, w in frontier.items() if eval_bexpr(cond, s)}
            false_part = {s: w for s, w in frontier.items() if s not in true_part}
            out = _forward(then, true_part, varset, fuel, state_cap) if true_part else {}
            if false_part:
                for s, w in _forward(orelse, false_part, varset, fuel, state_cap).items():
                    _add_weight(out, s, w)
            _check_cap(out, state_cap)
            return out
        case While(cond):
            done: dict[State, Fraction] = {}
            alive = _exits(cond, frontier, done)
            for _ in range(fuel):
                if not alive:
                    break
                alive = _iterate(prog, alive, done, varset, fuel, state_cap)
            return done
    raise TypeError(prog)


def _exits(cond, alive: dict[State, Fraction], done: dict[State, Fraction]):
    """Move the mass of the states that fail ``cond`` into ``done``; return
    the rest."""
    still = {}
    for s, w in alive.items():
        if eval_bexpr(cond, s):
            still[s] = w
        else:
            _add_weight(done, s, w)
    return still


def _iterate(loop: While, alive: dict[State, Fraction],
             done: dict[State, Fraction], varset: VarSet, fuel: int,
             state_cap: int) -> dict[State, Fraction]:
    """One guarded iteration of the mass still running: the body, then the
    exits into ``done``.  ``alive`` is not written."""
    alive = _forward(loop.body, alive, varset, fuel, state_cap)
    _check_cap(alive, state_cap)
    return _exits(loop.cond, alive, done)


# ---------------------------------------------------------------------------
# Semantic backward interpreter and fixed-point iteration
# ---------------------------------------------------------------------------

def _sem_wp(todo, cont, sigma: State, fuel: int, state_cap: int) -> XReal:
    """Apply the backward transformer to a semantic continuation.

    ``todo`` is the statements still to run, as a linked stack of
    (statement, rest) pairs ending in None, and ``cont`` maps final states
    to extended reals.  Assignments update the state in place and ``;``
    and conditionals push statements, so only coin flips and loops
    recurse, not a chain's length.  While loops are approximated by their
    own ``fuel``-fold iteration (the documented approximation knob for
    nested loops), each with its own memo table under ``state_cap``.
    """
    while todo is not None:
        prog, todo = todo
        match prog:
            case Skip():
                pass
            case Assign(var, expr):
                sigma = sigma._bind(var, eval_aexpr(expr, sigma))
            case Seq(first, second):
                todo = (first, (second, todo))
            case Ite(cond, then, orelse):
                todo = (then if eval_bexpr(cond, sigma) else orelse, todo)
            case PChoice(left, p, right):
                total = ZERO
                for branch, weight in ((left, p), (right, sub(ONE, p))):
                    if weight:
                        total = xadd(total, xmul(weight, _sem_wp(
                            (branch, todo), cont, sigma, fuel, state_cap)))
                return total
            case While():
                after = lambda tau: _sem_wp(todo, cont, tau, fuel, state_cap)
                return _kleene_value(prog, after, sigma, fuel, state_cap)
            case _:
                raise TypeError(prog)
    return cont(sigma)


def _kleene_value(loop: While, cont, sigma: State, fuel: int, state_cap: int) -> XReal:
    """The ``fuel``-th iterate at ``sigma``, memoized over (level, state)."""
    cache: dict[tuple[int, State], XReal] = {}
    met = 0

    def go(level: int, s: State) -> XReal:
        nonlocal met
        if level <= 0:
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
            value = _sem_wp((loop.body, None), lambda tau: go(level - 1, tau), s,
                            fuel, state_cap)
        else:
            value = cont(s)
        cache[key] = value
        return value

    return go(fuel, sigma)


def kleene_iterate(loop: While, post: Exp, sigma: State, k: int,
                   state_cap: int = DEFAULT_STATE_CAP) -> XReal:
    """Value at ``sigma`` of the k-th fixed-point iterate from zero.

    Monotone and nondecreasing in k.  Each exit state reads
    [!guard] * post, as ``path_sum`` and the compiled loop's plan do, so a
    quantified post is searched over the same default domain, which holds
    the guard's constants too.
    """
    final_guard = Guard(Not(loop.cond), post)
    cont = lambda tau: eval_exp(final_guard, tau)
    return _kleene_value(loop, cont, sigma, k, state_cap)


# ---------------------------------------------------------------------------
# Path-sum oracle
# ---------------------------------------------------------------------------

def char_assertion(sigma: State, varset: VarSet) -> Exp:
    """{0,1} indicator of the states that agree with sigma on the variables."""
    conj = balanced(And, [eq_(VarRef(v), RatLit(sigma[v])) for v in varset], true_)
    return Guard(conj, Arith(RatLit(Fraction(1))))


class Memo(dict):
    """A memo table that fills a missing entry with ``compute(key)`` and
    empties itself first if one more entry would pass
    ``DEFAULT_STATE_CAP``: the bound on every memo table that outlives a
    call.  A table of step factors also keeps in ``last`` the last pass
    ``path_frontier`` made with it, so the pass lives and dies with the
    table's owner; emptying the table keeps the pass, whose weights do not
    depend on the entries kept."""

    __slots__ = ("compute", "last")

    def __init__(self, compute):
        self.compute = compute
        self.last = None

    def __missing__(self, key):
        value = self.compute(key)
        if len(self) >= DEFAULT_STATE_CAP:
            self.clear()
        self[key] = value
        return value


class StepKernel:
    """One-step facts of a loop's guarded iteration over a variable set.

    ``support[s]`` is the one-step support of a state (the targets of
    ``forward_dist(c_iter, s, varset, 1)``), and ``factors[s, t]`` is
    ``path_sum``'s one-step factor of a transition s -> t
    (``wp_loop_free(c_iter, char_assertion(t))`` evaluated at s).  Both
    depend on the loop, the variable set and the states alone, so a k-sweep
    computes each of them once.  ``step_kernel`` keeps one kernel per
    variable set on the loop node itself, so it is freed with the loop.
    Both tables are ``Memo``s, so memory stays bounded in a long-running
    process, and ``factors.last`` keeps ``path_sum``'s last forward pass.
    """

    def __init__(self, loop: While, varset: VarSet):
        c_iter = Ite(loop.cond, loop.body, Skip())
        self.support = Memo(
            lambda s: tuple(forward_dist(c_iter, s, varset, 1).weights))
        self.factors = Memo(lambda pair: eval_exp(
            wp_loop_free(c_iter, char_assertion(pair[1], varset)), pair[0]))


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


def path_frontier(loop: While, varset: VarSet, start: State, factors: Memo,
                  steps: int, cap: int = DEFAULT_STATE_CAP) -> dict:
    """Weights of the supported state sequences, summed by last state.

    Maps each state t to the total weight of the supported state sequences
    of length ``steps`` + 1 from ``start`` (restricted to ``varset``) that
    end in t; a sequence's weight is the product of ``factors[s, t]`` over
    its transitions s -> t, read from a ``Memo``.  Weight is pushed only
    along the one-step support of the guarded iteration, ``support[s]`` of
    the loop's ``step_kernel``: the omitted transitions would contribute
    zero factors.  This is one forward pass over (step, state), so the cost
    follows the distinct (step, state) pairs, not the number of sequences.
    Raises ``FuelExceeded`` once more than ``cap`` (step, state) entries
    have been made; the kernel's own tables do not count.

    ``factors.last`` keeps the last pass, keyed on (start, cap), as its
    last frontier and its cumulative entry count, and a call continues it
    by ``_resume_pass``'s rule.  A pass of more than ``DEFAULT_STATE_CAP``
    entries is not kept.  The frontier is shared with the kept pass: read
    it, do not write it.
    """
    support = step_kernel(loop, varset).support

    def first(kept):
        return ({start: ONE}, 1) if kept is None else kept  # never written

    def push(n, carry):
        last, entries = carry
        frontier: dict = {}
        for s, w in last.items():
            for t in support[s]:
                pushed = mul(w, factors[s, t])
                frontier[t] = add(frontier[t], pushed) if t in frontier else pushed
        entries += len(frontier)
        if entries > cap:
            raise FuelExceeded(
                f"path oracle reached {entries} (step, state) entries at "
                f"step {n}, above the cap of {cap}"
            )
        return frontier, entries

    return _resume_pass(factors, "last", (start, cap), steps, first, push,
                        lambda carry: carry[1])[0]


def path_sum(loop: While, post: Exp, sigma: State, varset: VarSet, k: int,
             state_cap: int = DEFAULT_STATE_CAP) -> XReal:
    """Truncated sum over length-k state sequences from ``sigma``.

    Each sequence contributes the final value of [!guard] * post weighted by
    the product of one-step values of the guarded iteration, where a step's
    value is read off the syntactic transformer applied to the target
    state's indicator; the loop's ``step_kernel`` keeps each step's value,
    so a k-sweep computes it once.  The sum is computed from
    ``path_frontier`` as sum_s w(s) * ([!guard] * post)(s) over the
    sequence weights w summed by last state, which distributes the final
    factor over the sequences, so its cost follows the (step, state) pairs
    rather than the 2^k paths.  ``state_cap`` bounds the (step, state)
    entries.  The kernel's factor table keeps the last pass, which a call
    continues by ``_resume_pass``'s rule, so a k-sweep from one start makes
    each step once.
    """
    if not varset.issuperset(vars_program(loop) | free_vars(post)):
        raise ValueError("variable set must cover the loop and postexpectation")
    if k <= 0:
        return ZERO
    factors = step_kernel(loop, varset).factors
    last = path_frontier(loop, varset, sigma.restrict(varset), factors,
                         k - 1, state_cap)
    final_guard = Guard(Not(loop.cond), post)
    total = ZERO
    for s, weight in last.items():
        total = xadd(total, xmul(weight, eval_exp(final_guard, s)))
    return total
