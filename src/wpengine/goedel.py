"""Sequence encodings and the first-order-arithmetic embedding.

Finite sequences of naturals are packed into single naturals with the
classic remainder trick: a pair (a, b) represents the sequence whose i-th
element is ``a mod (1 + (i+1)*b)``.  Choosing ``b`` as a multiple of
lcm(1..len) makes the moduli pairwise coprime, so the Chinese remainder
theorem yields the least witness ``a``; the pair is then folded into one
number with the Cantor pairing polynomial.  Sequences of non-negative
rationals ride on top by pairing coprime numerator/denominator pairs (zero
is represented by (0, 1)), and program states and state sequences stack two
more levels of the same construction.

Every encoding has two faces: a *formula* (first-order arithmetic over the
non-negative rationals, built from the definitions and never evaluated
structurally) and a concrete *oracle* (an executable decision procedure for
the same relation).  The recurring pieces are the pairing relation, the
sequence-element relation, its rational variant, canonical (minimal)
sequence codes, state codes, and state-sequence codes.  Naturalness of a
rational is expressible with Robinson's squares trick; the construction is
emitted verbatim but only the opaque ``Nat`` atom is ever decided.

Each construction numbers its helper variables from 0 and skips the names
of its inputs (``construction``).  Formulas are prenexed by
``syntax.prenex``, the pass expectations use too: a binder is renamed when
its name is free in the formula or already in the prefix, so generated
formulas keep their helpers' names.  The prenex matrix lowers to an Iverson
guard through ``syntax.GUARD_OF``, the guard constructor of each connective.
"""

from __future__ import annotations

import functools
import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import NotPrenex
from .semantics import State, eval_aexpr
from .syntax import (
    Add,
    AExpr,
    Arith,
    Atom,
    BExpr,
    Exists,
    Exp,
    FOAnd,
    FOFormula,
    FOImplies,
    FOOr,
    Forall,
    GUARD_OF,
    Guard,
    Inf as InfExp,
    Lt,
    Mul,
    Nat,
    Prefix,
    RatLit,
    Sup,
    Var,
    VarRef,
    _children,
    aexpr,
    all_vars,
    balanced,
    eq_,
    free_vars,
    is_quantifier_free,
    le_,
    prenex,
    quantify,
    split_prefix,
    true_,
    with_intrinsic,
)
from .xreal import ONE, XReal, ZERO, is_natural

# The name supply of the construction under way (see ``construction``): the
# reserved names taken, its arguments' and its helpers', and a counter.
NAME_SUPPLY = ContextVar("name supply")


def logical_var(base: str) -> Var:
    """A reserved helper variable, new in the construction under way."""
    taken, counter = NAME_SUPPLY.get()
    while (name := f"${base}{next(counter)}") in taken:
        pass
    taken.add(name)  # ``$n11`` may be base ``n`` or ``n1``
    return Var(name)


def within(supply: tuple, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with ``supply`` as the name supply."""
    token = NAME_SUPPLY.set(supply)
    try:
        return fn(*args, **kwargs)
    finally:
        NAME_SUPPLY.reset(token)


def construction(fn):
    """Run a function that issues helper names, or combines the results of
    several calls that do, in the name supply under way, or else in a new
    one that counts from 0 and skips the reserved names, free or bound, of
    the syntax nodes, variables and variable sets among its arguments."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        supply = NAME_SUPPLY.get(None)
        if supply is None:
            names = set()
            for arg in (*args, *kwargs.values()):
                if isinstance(arg, (AExpr, BExpr, Exp, FOFormula)):
                    names |= all_vars(arg)
                elif isinstance(arg, Var):
                    names.add(arg)
                elif isinstance(arg, tuple):  # of variables, not of values
                    names.update(v for v in arg if isinstance(v, Var))
            supply = {v.name for v in names if v.reserved}, itertools.count()
        return within(supply, fn, *args, **kwargs)

    return run


# ---------------------------------------------------------------------------
# Pairing and the sequence-element map
# ---------------------------------------------------------------------------

def cantor_pair(n1: int, n2: int) -> int:
    if n1 < 0 or n2 < 0:
        raise ValueError("pairing is defined on naturals")
    s = n1 + n2
    return s * (s + 1) // 2 + n2


def cantor_unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("unpairing is defined on naturals")
    w = (isqrt(8 * n + 1) - 1) // 2
    n2 = n - w * (w + 1) // 2
    return w - n2, n2


@dataclass(frozen=True)
class GoedelPair:
    """Base pair of the remainder encoding."""

    a: int
    b: int


def beta_encode(seq: list[int]) -> GoedelPair:
    """Encode a finite sequence of naturals; the empty sequence is (0, 1).

    ``b`` is the least multiple of lcm(1..len) exceeding every element
    (which keeps the moduli ``1 + (i+1)b`` pairwise coprime and large
    enough), and ``a`` is the least remainder-witness, via the Chinese
    remainder construction.
    """
    if not seq:
        return GoedelPair(0, 1)
    if any(n < 0 for n in seq):
        raise ValueError("sequence elements must be naturals")
    base = lcm(*range(1, len(seq) + 1))
    top = max(seq)
    b = base * (top // base + 1)
    a, modulus = 0, 1
    for i, element in enumerate(seq):
        m = 1 + (i + 1) * b
        t = ((element - a) * pow(modulus, -1, m)) % m
        a += modulus * t
        modulus *= m
    return GoedelPair(a, b)


def beta_decode(pair: GoedelPair, i: int) -> int:
    if i < 0:
        raise IndexError("sequence index must be a natural")
    return pair.a % (1 + (i + 1) * pair.b)


def seq_element(num: int, i: int) -> int:
    """Element ``i`` of the sequence coded by ``num``, a paired remainder pair."""
    return beta_decode(GoedelPair(*cantor_unpair(num)), i)


# ---------------------------------------------------------------------------
# Canonical sequence codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeqCode:
    """Canonical single-number code of a sequence of naturals."""

    num: int
    length: int

    def element(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range for length {self.length}")
        return seq_element(self.num, i)

    def elements(self) -> list[int]:
        pair = GoedelPair(*cantor_unpair(self.num))
        return [beta_decode(pair, i) for i in range(self.length)]


def encode_seq(seq: list[int]) -> SeqCode:
    pair = beta_encode(seq)
    return SeqCode(cantor_pair(pair.a, pair.b), len(seq))


def decode_seq(num: int, length: int) -> list[int]:
    return SeqCode(num, length).elements()


def elem_holds(num: int, i: int, m: int) -> bool:
    """Oracle for the element relation on plain naturals."""
    if num < 0 or i < 0 or m < 0:
        return False
    return seq_element(num, i) == m


def seq_holds(num: int, length: int) -> bool:
    """Whether ``num`` is the canonical code of its own first elements.

    Canonicality stands in for the minimization formula; brute-force
    minimality is only checked at tiny scale (see ``seq_minimal_bruteforce``).
    """
    if num < 0 or length < 0:
        return False
    return encode_seq(decode_seq(num, length)).num == num


def seq_minimal_bruteforce(seq: list[int], bound: int | None = None) -> int | None:
    """Least code agreeing with ``seq`` on its first elements, by search.

    Searches 0..bound (default: the canonical code, which is always a valid
    witness).  Exponentially expensive; only sensible for tiny sequences.
    """
    if bound is None:
        bound = encode_seq(seq).num
    for num in range(bound + 1):
        if decode_seq(num, len(seq)) == seq:
            return num
    return None


# ---------------------------------------------------------------------------
# Rational sequences
# ---------------------------------------------------------------------------

def rat_to_nat(q: Fraction) -> int:
    """Pair a non-negative rational's coprime numerator/denominator."""
    if q < 0:
        raise ValueError("rationals must be non-negative")
    return cantor_pair(q.numerator, q.denominator)


def nat_to_rat(n: int) -> Fraction | None:
    """Inverse of ``rat_to_nat``; None for pairs that are not in normal form."""
    n1, n2 = cantor_unpair(n)
    if n2 == 0:
        return None
    if n1 == 0 and n2 != 1:
        return None
    if gcd(n1, n2) != 1:
        return None
    return Fraction(n1, n2)


@dataclass(frozen=True)
class RatSeqCode:
    """Canonical code of a sequence of non-negative rationals."""

    num: int
    length: int

    def elements(self) -> list[Fraction] | None:
        values = []
        for n in decode_seq(self.num, self.length):
            q = nat_to_rat(n)
            if q is None:
                return None
            values.append(q)
        return values


def encode_rat_seq(values: list[Fraction]) -> RatSeqCode:
    code = encode_seq([rat_to_nat(q) for q in values])
    return RatSeqCode(code.num, code.length)


def relem_holds(num: int, i: int, value: Fraction) -> bool:
    """Oracle for the rational element relation."""
    if num < 0 or i < 0 or value < 0:
        return False
    q = nat_to_rat(seq_element(num, i))
    return q is not None and q == value


def rseq_holds(num: int, length: int) -> bool:
    """Canonical rational-sequence codes: valid elements, minimal num."""
    if not seq_holds(num, length):
        return False
    return RatSeqCode(num, length).elements() is not None


# ---------------------------------------------------------------------------
# States and state sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateCode:
    num: int
    variables: tuple[Var, ...]


@dataclass(frozen=True)
class StateSeqCode:
    num: int
    variables: tuple[Var, ...]
    length: int


def encode_state(sigma: State, varset) -> StateCode:
    """Code of a state restricted to the ordered relevant variables.

    Equivalent states (equal on the variable set) get the same number.
    """
    variables = tuple(varset)
    values = [sigma[v] for v in variables]
    return StateCode(encode_rat_seq(values).num, variables)


def decode_state(num: int, varset) -> State | None:
    variables = tuple(varset)
    values = RatSeqCode(num, len(variables)).elements()
    if values is None:
        return None
    return State(dict(zip(variables, values)))


def encstate_holds(num: int, varset, sigma: State) -> bool:
    """Whether ``num`` encodes a state equal to ``sigma`` on the variable set."""
    variables = tuple(varset)
    if not rseq_holds(num, len(variables)):
        return False
    decoded = decode_state(num, variables)
    return decoded == sigma.restrict(variables)


def encode_state_seq(states: list[State], varset) -> StateSeqCode:
    variables = tuple(varset)
    nums = [encode_state(s, variables).num for s in states]
    return StateSeqCode(encode_seq(nums).num, variables, len(states))


def decode_state_seq(code: StateSeqCode) -> list[State] | None:
    states = []
    for num in decode_seq(code.num, code.length):
        decoded = decode_state(num, code.variables)
        if decoded is None or not rseq_holds(num, len(code.variables)):
            return None
        states.append(decoded)
    return states


def stateseq_holds(num: int, varset, length: int, sigma: State) -> bool:
    """Oracle for the state-sequence relation.

    Holds when ``num`` canonically encodes ``length`` state codes whose
    first state agrees with the ambient state on the variable set.
    """
    variables = tuple(varset)
    if length <= 0 or not seq_holds(num, length):
        return False
    states = decode_state_seq(StateSeqCode(num, variables, length))
    if states is None:
        return False
    return states[0] == sigma.restrict(variables)


# ---------------------------------------------------------------------------
# First-order formula constructions
# ---------------------------------------------------------------------------

@construction
def robinson_nat_formula(k: Var) -> FOFormula:
    """Naturalness of ``k`` via the squares identity, quantifying over Q>=0.

    The two-variable inner assertion states that 2 + a*b*k*k + b*z*z equals
    x*x + a*y*y for some witnesses; closing it under successor from zero and
    quantifying the parameters universally pins down exactly the naturals.
    Construction only; semantic evaluation is out of scope.
    """
    a, b = logical_var("a"), logical_var("b")

    def phi(karg: AExpr) -> FOFormula:
        x, y, z = logical_var("x"), logical_var("y"), logical_var("z")
        lhs = Add(
            Add(RatLit(Fraction(2)),
                Mul(Mul(Mul(VarRef(a), VarRef(b)), karg), karg)),
            Mul(Mul(VarRef(b), VarRef(z)), VarRef(z)),
        )
        rhs = Add(Mul(VarRef(x), VarRef(x)),
                  Mul(Mul(VarRef(a), VarRef(y)), VarRef(y)))
        return Exists(x, Exists(y, Exists(z, Atom(eq_(lhs, rhs)))))

    m = logical_var("m")
    closed = FOAnd(
        phi(RatLit(Fraction(0))),
        Forall(m, FOImplies(phi(VarRef(m)), phi(Add(VarRef(m), RatLit(Fraction(1)))))),
    )
    return Forall(a, Forall(b, FOImplies(closed, phi(VarRef(k)))))


@construction
def divides_formula(d: AExpr, n: AExpr) -> FOFormula:
    q = logical_var("q")
    return Exists(q, Atom(eq_(Mul(d, VarRef(q)), n)))


@construction
def relprime_formula(n1: AExpr, n2: AExpr) -> FOFormula:
    d = logical_var("d")
    return Forall(
        d,
        FOImplies(
            FOAnd(divides_formula(VarRef(d), n1), divides_formula(VarRef(d), n2)),
            Atom(eq_(VarRef(d), RatLit(Fraction(1)))),
        ),
    )


def pair_formula(n: AExpr, n1: AExpr, n2: AExpr) -> FOFormula:
    """The pairing polynomial, with the halving cleared by doubling."""
    s = Add(n1, n2)
    lhs = Mul(RatLit(Fraction(2)), n)
    rhs = Add(Mul(s, Add(s, RatLit(Fraction(1)))), Mul(RatLit(Fraction(2)), n2))
    return Atom(eq_(lhs, rhs))


@construction
def elem_formula(num: AExpr, i: AExpr, m: AExpr) -> FOFormula:
    """Element relation over naturals: m is the i-th remainder of num's pair."""
    num, i, m = aexpr(num), aexpr(i), aexpr(m)
    a, b, q = logical_var("a"), logical_var("b"), logical_var("q")
    modulus = Add(RatLit(Fraction(1)), Mul(Add(i, RatLit(Fraction(1))), VarRef(b)))
    residue = FOAnd(
        Exists(q, Atom(eq_(Add(Mul(VarRef(q), modulus), m), VarRef(a)))),
        Atom(Lt(m, modulus)),
    )
    return Exists(a, Exists(b, FOAnd(pair_formula(num, VarRef(a), VarRef(b)), residue)))


@construction
def relem_formula(num: AExpr, i: AExpr, r: AExpr) -> FOFormula:
    """Rational element relation, built over the natural-number core.

    The natural-number part (pairing, element, coprimality) is lifted into
    the rational setting with naturalness guards; the value equation
    ``n2 * r = n1`` stays at the rational level.
    """
    num, i, r = aexpr(num), aexpr(i), aexpr(r)
    n, n1, n2 = logical_var("n"), logical_var("n1"), logical_var("n2")
    core = balanced(
        FOAnd,
        [
            pair_formula(VarRef(n), VarRef(n1), VarRef(n2)),
            elem_formula(num, i, VarRef(n)),
            FOOr(
                relprime_formula(VarRef(n1), VarRef(n2)),
                FOAnd(
                    Atom(eq_(VarRef(n1), RatLit(Fraction(0)))),
                    Atom(eq_(VarRef(n2), RatLit(Fraction(1)))),
                ),
            ),
        ],
        lambda: Atom(true_()),
    )
    lifted = fo_nat_to_rat(fo_prenex(core))
    value = Atom(eq_(Mul(VarRef(n2), r), VarRef(n1)))
    return Exists(n, Exists(n1, Exists(n2, FOAnd(lifted, value))))


def lifted_elem_formula(num: AExpr, i: AExpr, m: AExpr) -> FOFormula:
    """The element relation embedded into the rational setting."""
    return fo_nat_to_rat(fo_prenex(elem_formula(num, i, m)))


@construction
def _seq_skeleton(num: AExpr, length: AExpr, element) -> FOFormula:
    """Shared shape of the canonical-sequence predicates (rational setting).

    Every natural index below the length has an element, and the code is
    minimal among natural codes that agree on those elements.  Universally
    quantified helpers carry naturalness guards (they stand for
    natural-number quantifiers); the element witness stays bare, since its
    sort is decided by the element relation itself.
    """
    num, length = aexpr(num), aexpr(length)
    u, w = logical_var("u"), logical_var("w")
    total = Forall(
        u,
        FOImplies(
            FOAnd(Nat(u), Atom(Lt(VarRef(u), length))),
            Exists(w, element(num, VarRef(u), VarRef(w))),
        ),
    )
    num2, u2, w2 = logical_var("num'"), logical_var("u"), logical_var("w")
    agree = Forall(
        u2,
        FOImplies(
            FOAnd(Nat(u2), Atom(Lt(VarRef(u2), length))),
            Exists(
                w2,
                FOAnd(
                    element(num, VarRef(u2), VarRef(w2)),
                    element(VarRef(num2), VarRef(u2), VarRef(w2)),
                ),
            ),
        ),
    )
    minimal = Forall(
        num2, FOImplies(FOAnd(Nat(num2), agree), Atom(le_(num, VarRef(num2))))
    )
    return FOAnd(total, minimal)


def seq_formula(num: AExpr, length: AExpr) -> FOFormula:
    return _seq_skeleton(num, length, lifted_elem_formula)


def rseq_formula(num: AExpr, length: AExpr) -> FOFormula:
    return _seq_skeleton(num, length, relem_formula)


@construction
def encstate_formula(varset, num: AExpr) -> FOFormula:
    """``num`` encodes the values of the relevant variables in order."""
    variables = tuple(varset)
    num = aexpr(num)
    parts = [rseq_formula(num, RatLit(Fraction(len(variables))))]
    for index, var in enumerate(variables):
        parts.append(relem_formula(num, RatLit(Fraction(index)), VarRef(var)))
    return balanced(FOAnd, parts, lambda: Atom(true_()))


@construction
def stateseq_formula(varset, num: AExpr, length: AExpr) -> FOFormula:
    """``num`` encodes a sequence of state codes starting at the current state."""
    variables = tuple(varset)
    num, length = aexpr(num), aexpr(length)
    v1 = logical_var("v")
    head = Exists(
        v1, FOAnd(lifted_elem_formula(num, RatLit(Fraction(0)), VarRef(v1)),
                  encstate_formula(variables, VarRef(v1)))
    )
    u, v2 = logical_var("u"), logical_var("v")
    all_states = Forall(
        u,
        Forall(
            v2,
            FOImplies(
                FOAnd(Atom(Lt(VarRef(u), length)),
                      lifted_elem_formula(num, VarRef(u), VarRef(v2))),
                rseq_formula(VarRef(v2), RatLit(Fraction(len(variables)))),
            ),
        ),
    )
    return balanced(FOAnd, [seq_formula(num, length), head, all_states],
                    lambda: Atom(true_()))


# ---------------------------------------------------------------------------
# Translations between the formula layers
# ---------------------------------------------------------------------------

def _map_fo(p: FOFormula, leaf) -> FOFormula:
    """Rebuild a formula with each atom mapped by ``leaf``."""
    prefix, q = split_prefix(p)
    if isinstance(q, (Atom, Nat)):
        return quantify(prefix, leaf(q))
    return quantify(prefix, type(q)(*(_map_fo(c, leaf) for c in _children(q))))


@construction
def expand_nat_atoms(p: FOFormula) -> FOFormula:
    """Replace each opaque naturalness atom by its verbatim construction."""
    return _map_fo(
        p, lambda q: robinson_nat_formula(q.var) if isinstance(q, Nat) else q
    )


_TO_EXP = {Exists: Sup, Forall: InfExp}


def fo_prenex(p: FOFormula) -> FOFormula:
    """Equivalent prenex form: a quantifier block over a quantifier-free
    matrix, by ``syntax.prenex``.  Generated formulas use distinct reserved
    names and come back with their binders as they are."""
    return quantify(*prenex(p))


def fo_prenex_split(p: FOFormula) -> tuple[Prefix, FOFormula]:
    """Split an already-prenex formula into its prefix of (Exists|Forall,
    variable) pairs and its matrix."""
    prefix, matrix = split_prefix(p)
    if not is_quantifier_free(matrix):
        raise NotPrenex("quantifier below a connective")
    return prefix, matrix


def fo_nat_to_rat(p: FOFormula) -> FOFormula:
    """Embed a prenex natural-number formula into the rational setting.

    Universal quantifiers are guarded by naturalness of the bound variable,
    existentials are left bare, and the matrix is conjoined with naturalness
    of each of its free variables, so the embedded formula is false whenever
    a non-natural value sneaks in.
    """
    prefix, matrix = fo_prenex_split(p)
    guards = [Nat(v) for v in sorted(free_vars(matrix))]
    out: FOFormula = matrix
    for g in guards:
        out = FOAnd(out, g)
    for quant, var in reversed(prefix):
        out = quant(var, out if quant is Exists else FOImplies(Nat(var), out))
    return out


def _matrix_to_bexpr(p: FOFormula) -> BExpr:
    """The guard of a quantifier-free formula, each connective lowered
    through ``GUARD_OF``."""
    if isinstance(p, Atom):
        return p.pred
    if isinstance(p, Nat):
        raise NotPrenex(f"naturalness atom N({p.var}) must be expanded before embedding")
    return GUARD_OF[type(p)](*map(_matrix_to_bexpr, _children(p)))


def fo_to_exp(p: FOFormula) -> Exp:
    """Embed a prenex rational formula as a {0,1}-valued expectation.

    Existentials become suprema, universals become infima, and the matrix
    becomes an Iverson guard over the constant one.
    """
    prefix, matrix = fo_prenex_split(p)
    return quantify([(_TO_EXP[quant], var) for quant, var in prefix],
                    Guard(_matrix_to_bexpr(matrix), Arith(RatLit(Fraction(1)))))


# ---------------------------------------------------------------------------
# Oracle-tagged embeddings
# ---------------------------------------------------------------------------

def embed_formula(p: FOFormula, holds) -> Exp:
    """Pure embedding of ``p`` (naturalness expanded verbatim), with a plan
    that decides it concretely: ``holds(sigma)`` must return the truth
    value of the formula at the state, reading only its free variables."""
    pure = fo_to_exp(fo_prenex(expand_nat_atoms(p)))

    def formula_plan(sigma: State, rec) -> XReal:
        return ONE if holds(sigma) else ZERO

    return with_intrinsic(pure, formula_plan)


def _nat_value(sigma: State, term: AExpr) -> int | None:
    value = eval_aexpr(term, sigma)
    return value.numerator if is_natural(value) else None


def elem_exp(num: AExpr, i: AExpr, m: AExpr) -> Exp:
    num, i, m = aexpr(num), aexpr(i), aexpr(m)

    def holds(sigma: State) -> bool:
        ne, ie, me = (_nat_value(sigma, t) for t in (num, i, m))
        return ne is not None and ie is not None and me is not None \
            and elem_holds(ne, ie, me)

    return embed_formula(lifted_elem_formula(num, i, m), holds)


def relem_exp(num: AExpr, i: AExpr, r: AExpr) -> Exp:
    num, i, r = aexpr(num), aexpr(i), aexpr(r)

    def holds(sigma: State) -> bool:
        ne, ie = _nat_value(sigma, num), _nat_value(sigma, i)
        return ne is not None and ie is not None \
            and relem_holds(ne, ie, eval_aexpr(r, sigma))

    return embed_formula(relem_formula(num, i, r), holds)


def stateseq_exp(varset, num: AExpr, length: AExpr) -> Exp:
    variables = tuple(varset)
    num, length = aexpr(num), aexpr(length)

    def holds(sigma: State) -> bool:
        ne, le = _nat_value(sigma, num), _nat_value(sigma, length)
        return ne is not None and le is not None \
            and stateseq_holds(ne, variables, le, sigma)

    return embed_formula(stateseq_formula(variables, num, length), holds)
