"""Compiling loops into closed-form syntactic expectations.

A loop's preexpectation is the supremum over path lengths of a sum over
encoded state sequences: each sequence contributes the postexpectation at
its final state (where the guard must have failed) times the product of
one-step transition values along it.  The pieces are

* the characteristic assertion of a state (a {0,1} indicator over the
  relevant variables);
* a state term that reads variable values out of an encoded state and
  puts them in for the relevant variables (or their primed copies) of a
  target expectation; state application is the same term over a target
  whose free variables are all relevant, so its value does not depend on
  the ambient state;
* a one-step template: the backward transform of the primed characteristic
  assertion through one guarded iteration, with the primed copies standing
  for the target state's values;
* the path expectation combining the final-state factor with the product of
  one-step factors read off the encoded sequence.

The path term (with its one-step factor) and the pure term are built on
first read, in one fixed order: the path term first.  Evaluating the pure
terms by restricted quantifier search is hopeless (the witnesses are
astronomical sequence codes), so each carries a plan whose step-k
truncation mirrors the construction equation by equation and agrees
exactly with the k-fold fixed-point iterate and the explicit path sum.
The loop's plan runs over states; the term plans read an encoded state by
binding its decoded values in the state.  Helper variables live in the
reserved ``$`` namespace, which user programs and the loop's variable set
cannot mention, and one encoding's come from one name supply (``goedel``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce

from .errors import ContainsLoop, EngineError, FreeVarsOutsideVarSet
from .goedel import (
    NAME_SUPPLY,
    construction,
    decode_seq,
    decode_state,
    elem_exp,
    logical_var,
    relem_exp,
    seq_element,
    stateseq_exp,
    within,
)
from .semantics import State, eval_exp
from .series import PROD_VAR, SUM_VAR, make_product, make_sum, odot
from .syntax import (
    Add,
    And,
    Arith,
    Exp,
    Guard,
    Ite,
    Lt,
    Not,
    Plus,
    RatLit,
    Skip,
    Sup,
    Var,
    VarRef,
    While,
    balanced,
    contains_loop,
    eq_,
    free_vars,
    le_,
    quantify,
    substitute,
    true_,
    vars_program,
    with_intrinsic,
)
from .wp import (
    DEFAULT_STATE_CAP,
    Memo,
    VarSet,
    char_assertion,  # re-exported: the indicator lives in wp
    path_frontiers,
    wp_loop_free,
)
from .xreal import XReal, ZERO, is_natural


def primed(var: Var) -> Var:
    """The reserved primed copy of a program variable."""
    return Var(f"${var.name}'")


# ---------------------------------------------------------------------------
# Encoded-state substitution and application
# ---------------------------------------------------------------------------

def _bind_decoded(sigma: State, decoded: State, variables: tuple[Var, ...],
                 slots: tuple[Var, ...]) -> State:
    """``sigma`` with each slot bound to its variable's decoded value."""
    for v, slot in zip(variables, slots):
        sigma = sigma.set(slot, decoded[v])
    return sigma


@construction
def _state_term(target: Exp, variables: tuple[Var, ...], num: Var,
                slots: tuple[Var, ...]) -> Exp:
    """sup over helpers: [each helper is the coded value] (x)
    target[slots := helpers], tagged with the plan that binds the slots.

    The plan decodes the state code bound at ``num`` and binds each decoded
    value to its slot (the variable itself or its primed copy); every other
    variable keeps its ambient binding, so it reads only the node's free
    variables.  A code that is not a state yields 0.
    """
    helpers = [logical_var(v.name) for v in variables]
    embeds = [relem_exp(VarRef(num), RatLit(Fraction(i)), VarRef(h))
              for i, h in enumerate(helpers)]
    bracket = reduce(odot, embeds) if embeds else Arith(RatLit(Fraction(1)))
    replaced = substitute(target, {s: VarRef(h) for s, h in zip(slots, helpers)})
    term = quantify([(Sup, h) for h in helpers], odot(bracket, replaced))

    def state_plan(sigma: State, rec) -> XReal:
        code = sigma[num]
        if not is_natural(code):
            return ZERO
        decoded = decode_state(code.numerator, variables)
        if decoded is None:
            return ZERO
        return rec(target, _bind_decoded(sigma, decoded, variables, slots))

    return with_intrinsic(term, state_plan)


def goedel_subst(f: Exp, varset: VarSet, num: Var) -> Exp:
    """Substitution of the relevant variables by an encoded state's values.

    With the code variable bound to a state's number, structurally
    equivalent to ``f`` with each relevant variable replaced by that
    state's value for it.
    """
    variables = tuple(varset)
    return _state_term(f, variables, num, variables)


def goedel_apply(f: Exp, varset: VarSet, num: Var) -> Exp:
    """Evaluation of ``f`` at an encoded state.

    Requires the free variables of ``f`` to lie inside the variable set, so
    the value does not depend on the ambient state; it is then the
    substitution of every free variable.
    """
    extra = free_vars(f) - set(varset)
    if extra:
        raise FreeVarsOutsideVarSet(
            f"free variables outside the variable set: {sorted(v.name for v in extra)}"
        )
    return goedel_subst(f, varset, num)


# ---------------------------------------------------------------------------
# One-step template
# ---------------------------------------------------------------------------

def body_wp_template(loop: While, varset: VarSet) -> Exp:
    """Backward transform of the primed indicator through one guarded step.

    The result mentions the relevant variables and their primed copies;
    substituting a target state's values for the primed copies yields the
    one-step transition value into that state's equivalence class.
    """
    if contains_loop(loop.body):
        raise ContainsLoop("the loop body must be loop-free")
    reserved = [v.name for v in varset if v.reserved]
    if reserved:
        raise EngineError(f"reserved variables in the variable set: {reserved}")
    variables = tuple(varset)
    post = Guard(
        balanced(And, [eq_(VarRef(v), VarRef(primed(v))) for v in variables], true_),
        Arith(RatLit(Fraction(1))),
    )
    c_iter = Ite(loop.cond, loop.body, Skip())
    return wp_loop_free(c_iter, post)


# ---------------------------------------------------------------------------
# Path expectation and the full compilation
# ---------------------------------------------------------------------------

class LoopEncoding:
    """A loop compiled to a single syntactic expectation plus its plan.

    ``pure`` is the closed-form term; ``path_term`` the per-path piece with
    the length variable ``length_var`` and the sequence-code variable
    ``seq_var`` free, and ``pair_factor`` the one-step factor its product
    aggregate ranges over; ``body_template`` the one-step template over
    primed copies.  The terms are built on first read and in one order,
    whichever is read first: ``path_term`` with ``pair_factor``, then
    ``pure``.  Their helpers come from the name supply the encoding was
    built in, so they share one construction and print the same however
    they are read.

    The plan needs only the template and the final-state expectation, and
    works on states: its one-step and final values are the ``Memo``s
    ``_factor_cache[s, t]`` and ``_finals[s]``, and ``_factor_cache.last``
    keeps its last forward pass, so a k-sweep from one start makes each
    step once (``wp.path_frontiers``).  Codes are decoded only
    where the term holds them, in ``path_plan`` (through ``path_value``)
    and ``pair_factor_plan``.

    The sequence code is the sum aggregation variable: ``pure`` sums the
    path over all candidate codes, and the validity indicator keeps
    exactly the encodings of the sequences starting at the current state.
    """

    seq_var = SUM_VAR

    @construction
    def __init__(self, loop: While, post: Exp, varset: VarSet):
        self.length_var = logical_var("length")
        # the template refuses a nested loop first, and the variable set
        # is checked against the loop only once it is known to be loop-free
        self.body_template = body_wp_template(loop, varset)
        if not varset.issuperset(vars_program(loop) | free_vars(post)):
            raise ValueError("variable set must cover the loop and postexpectation")
        self.loop = loop
        self.post = post
        self.varset = varset
        self._primed = tuple(primed(v) for v in varset)
        self._final_exp = Guard(Not(loop.cond), post)

        # the compute functions close over the values they read, not over
        # self, so reference counting alone frees the encoding.  The
        # template transforms an untagged, quantifier-free indicator, so its
        # value is the same in both modes and over any domain; its variables
        # take the source state's values and its primes the target's.
        template, slots, final_exp = (self.body_template, self._primed,
                                      self._final_exp)
        self._factor_cache = Memo(lambda pair: eval_exp(
            template, _bind_decoded(pair[0], pair[1], varset, slots)))
        self._finals = Memo(
            lambda s: eval_exp(final_exp, s, mode="oracle_assisted"))
        self._num_final = logical_var("num")
        self._num1, self._num2 = logical_var("num"), logical_var("num")
        self._names = NAME_SUPPLY.get()

    @cached_property
    def _path_terms(self) -> tuple[Exp, Exp]:
        """``path_term`` and ``pair_factor``, built together."""
        return within(self._names, self._build_path_term)

    @property
    def path_term(self) -> Exp:
        return self._path_terms[0]

    @property
    def pair_factor(self) -> Exp:
        return self._path_terms[1]

    @cached_property
    def pure(self) -> Exp:
        return within(self._names, self._build_pure)

    def _build_pure(self) -> Exp:
        path = self.path_term  # first, so its helpers keep their names
        v1, nums = self.length_var, logical_var("nums")
        body = odot(stateseq_exp(self.varset, VarRef(self.seq_var), VarRef(v1)),
                    path)
        return Sup(v1, Sup(nums, make_sum(body, VarRef(nums)).pure))

    def _build_path_term(self) -> tuple[Exp, Exp]:
        v1, v2 = self.length_var, self.seq_var

        # last-state factor: sup num: sup v: [v+1 = v1] * [Elem(v2, v, num)]
        # (x) apply([!guard] * post at num)
        idx = logical_var("v")
        last_piece = Sup(
            self._num_final,
            Sup(
                idx,
                Guard(
                    eq_(Add(VarRef(idx), RatLit(Fraction(1))), VarRef(v1)),
                    odot(elem_exp(VarRef(v2), VarRef(idx), VarRef(self._num_final)),
                         goedel_apply(self._final_exp, self.varset,
                                      self._num_final)),
                ),
            ),
        )

        # one-step factor at aggregation index i: codes at i and i+1; the
        # template's primes read the second code, its variables the first
        pair_factor = with_intrinsic(Sup(
            self._num1,
            Sup(
                self._num2,
                odot(
                    odot(
                        elem_exp(VarRef(v2), VarRef(PROD_VAR), VarRef(self._num1)),
                        elem_exp(VarRef(v2),
                                 Add(VarRef(PROD_VAR), RatLit(Fraction(1))),
                                 VarRef(self._num2)),
                    ),
                    _state_term(
                        _state_term(self.body_template, self.varset,
                                    self._num2, self._primed),
                        self.varset, self._num1, self.varset,
                    ),
                ),
            ),
        ), self.pair_factor_plan)

        # Product(pair_factor, v1 - 2), with the index arithmetic expanded
        # through a fresh bound variable rather than monus
        bound = logical_var("v")
        product = make_product(pair_factor, VarRef(bound)).pure
        products = Sup(
            bound,
            Guard(eq_(Add(VarRef(bound), RatLit(Fraction(2))), VarRef(v1)), product),
        )

        path = Plus(
            Guard(Lt(VarRef(v1), RatLit(Fraction(2))), last_piece),
            Guard(le_(RatLit(Fraction(2)), VarRef(v1)),
                  odot(last_piece, products)),
        )
        return with_intrinsic(path, self.path_plan), pair_factor

    # -- plan machinery -----------------------------------------------------

    def path_plan(self, sigma: State, rec) -> XReal:
        """``path_value`` of the decoded sequence; non-natural or zero lengths
        yield 0.  Reads only the length and the sequence code: the decoded
        states bind every other variable the factors read."""
        length = sigma[self.length_var]
        code = sigma[self.seq_var]
        if not (is_natural(length) and is_natural(code)) or length == 0:
            return ZERO
        return self.path_value(decode_seq(code.numerator, length.numerator), rec)

    def pair_factor_plan(self, sigma: State, rec) -> XReal:
        """One product factor: decode two adjacent state codes and apply.
        Reads only the sequence code and the product index."""
        seq_code = sigma[self.seq_var]
        index = sigma[PROD_VAR]
        if not (is_natural(seq_code) and is_natural(index)):
            return ZERO
        i = index.numerator
        source, target = (decode_state(seq_element(seq_code.numerator, j), self.varset)
                          for j in (i, i + 1))
        if source is None or target is None:
            return ZERO
        return self._factor_cache[source, target]

    def path_value(self, codes: list[int], rec) -> XReal:
        """([!guard] * post) at the last state, times the step factors.

        A code that is not a state makes the value 0.  Canonicality of
        the codes is the sequence-validity indicator's business, not the
        path's: the path reads elements only.
        """
        states = [decode_state(code, self.varset) for code in codes]
        if any(s is None for s in states):
            return ZERO
        value = rec(self._final_exp, states[-1])
        for source, target in zip(states, states[1:]):
            if value == ZERO:
                return ZERO
            value = value * self._factor_cache[source, target]
        return value

    def plan_truncations(self, sigma: State, max_k: int, *,
                         state_cap: int = DEFAULT_STATE_CAP) -> list[XReal]:
        """Truncation values for k = 0, ..., ``max_k`` from one forward pass.

        Truncation k sums the path values of the supported length-k
        sequences.  ``path_frontiers`` sums the step-factor products of the
        length-k sequences by last state, so truncation k is
        sum_s w(s) * final(s), with final(s) the value of ([!guard] * post)
        at s: the final factor distributes over the sequences, and the cost
        follows the (step, state) pairs rather than the 2^k paths.  The
        one-step support comes from the loop's ``step_kernel`` through
        ``path_frontiers``, and the one-step factors from ``_factor_cache``.
        Quantifiers range over ``eval_exp``'s default domain at each state,
        as in ``path_sum`` and ``kleene_iterate``, so ``_finals`` keeps each
        final factor per state and a k-sweep computes it once.
        ``state_cap`` bounds the (step, state) entries.
        """
        if max_k <= 0:
            return [ZERO] * (max_k + 1)
        return [ZERO] + [self._truncation(frontier) for frontier in
                         self._frontiers(sigma, max_k - 1, state_cap)]

    def plan_eval(self, sigma: State, k: int, *,
                  state_cap: int = DEFAULT_STATE_CAP) -> XReal:
        """Truncation-k value: the sum over supported length-k sequences.

        Only frontier k - 1 is summed.  ``_factor_cache`` keeps the plan's
        last forward pass, so a k-sweep from one start continues it and
        makes each step once; a call from another start, at a smaller k or
        under a smaller ``state_cap`` than the pass was last built under
        starts over, so every value and cap error is that of a cold pass.
        A pass of more than ``DEFAULT_STATE_CAP`` entries is not kept
        (``path_frontiers``).
        """
        if k <= 0:
            return ZERO
        return self._truncation(self._frontiers(sigma, k - 1, state_cap)[-1])

    def _frontiers(self, sigma: State, steps: int, state_cap: int) -> list[dict]:
        return path_frontiers(self.loop, self.varset, sigma.restrict(self.varset),
                              self._factor_cache, steps, state_cap)

    def _truncation(self, frontier: dict) -> XReal:
        finals = self._finals
        return sum((w * finals[s] for s, w in frontier.items()), ZERO)


def encode_loop(loop: While, post: Exp, varset: VarSet) -> LoopEncoding:
    """Compile a loop into its closed-form syntactic expectation."""
    return LoopEncoding(loop, post, varset)
