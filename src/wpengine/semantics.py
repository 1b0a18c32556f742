"""Exact evaluation of terms, guards, and expectations over program states.

States map variables to non-negative rationals and read 0 for unbound
names, so each state is a finite object.  Quantifiers are evaluated over a
finite stand-in for the non-negative rationals (a ``QDomain``, by default a
Calkin-Wilf prefix enriched with the constants in sight); this restriction
is neither a sound lower nor upper bound for mixed quantifier prefixes and
is documented as the desk-scale approximation it is.  Quantifier-free
expectations evaluate exactly, independent of the domain, and without
building one.  Values are plain Fractions, and ``XReal.INF`` where an inf
searches an empty domain or a plan gives it (a reciprocal's at 0/0); a
sum with a zero side is its other side, without a Fraction addition.
An ``inf`` search stops once it reaches 0, the least value, so the
domain values after that one are not evaluated; the value is the same.

``eval_exp`` has two modes: ``restricted`` ignores intrinsic tags, while
``oracle_assisted`` lets a tagged subtree delegate to its plan, a function
``plan(sigma, rec)`` of the state that evaluates subterms through ``rec``
(untagged quantifiers still fall back to the domain).  In both modes the
default domain is built only when a quantifier is searched, and a delayed
substitution (``syntax.substitute``) is evaluated without being built.

Terms and guards are compiled once per node into closures over a state
(Feeley and Lapalme, "Using closures for code generation", 1987) and the
closure is cached on the node, so it is freed with the node; a quantifier
search re-runs the closures instead of re-dispatching on the syntax.  A
chain of ``&&`` compiles into one closure over its conjuncts, and a ``<``
between variables and literals reads the bindings itself.  When the
chain's clauses share atoms, as the 2^n sign patterns of a cut form share
their n summand guards, the closure keeps a table of atom values for the
call and evaluates each atom at most once (see ``_conjunction``).  Such a
closure pays for what its calls read: its trie of clauses grows as calls
reach it, so a clause is flattened only as far as a call reads it, and
each atom compiles when a call first reads it, so a call of a cut form's
matrix compiles one ``$cut < total`` atom of 2^n.  An addition of a
literal 0 compiles to the closure of its other side, which is exact and
leaves the syntax as it is.  States key their bindings on variable names,
so a compiled read is a dict lookup on a string that runs in C; the
``State`` API takes and returns ``Var``s.
``eval_aexpr`` and ``eval_bexpr`` compile, then call.  ``eval_exp``'s own
walk over expectation nodes stays structural.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le, lt
from typing import Callable, Iterable, Iterator, Literal, Mapping

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
    FOImplies,
    FONot,
    FOOr,
    FOFormula,
    Forall,
    Guard,
    Inf,
    Lt,
    Monus,
    Mul,
    Nat,
    Not,
    Plus,
    RatLit,
    Scale,
    Sup,
    Var,
    VarRef,
    constants,
)
from .xreal import XReal, ZERO, is_natural, rat

Mode = Literal["restricted", "oracle_assisted"]

RESTRICTED: Mode = "restricted"
ORACLE: Mode = "oracle_assisted"


class State:
    """Immutable finite map from variables to non-negative rationals.

    Unbound variables read as 0 (one shared zero); bindings with value 0
    are dropped so that states equal modulo zero-padding compare equal.
    The bindings are keyed on variable names, strings that cache their
    hash, while every method takes and returns ``Var``s.
    The hash is computed on first use, since most states are never hashed.
    ``set`` and ``restrict`` start from bindings that are already valid, so
    they skip the constructor's check of every binding; the quantifier
    loops bind domain values, validated by ``QDomain``, through ``_bind``.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Mapping[Var, Fraction] | None = None):
        items = {}
        if bindings:
            for var, value in bindings.items():
                value = rat(value)
                if value != 0:
                    items[var.name] = value
        object.__setattr__(self, "_bindings", items)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, items: dict[str, Fraction]) -> "State":
        """A state over ``items``, which must be valid, nonzero bindings
        keyed on names."""
        out = object.__new__(cls)
        object.__setattr__(out, "_bindings", items)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, *_):
        raise AttributeError("State is immutable")

    def __getitem__(self, var: Var) -> Fraction:
        return self._bindings.get(var.name, ZERO)

    def set(self, var: Var, value) -> "State":
        return self._bind(var, rat(value))

    def _bind(self, var: Var, value: Fraction) -> "State":
        """``set`` for a ``value`` that is already a valid rational, such as
        a quantifier domain's, so it is not checked again."""
        updated = dict(self._bindings)
        if value:
            updated[var.name] = value
        else:
            updated.pop(var.name, None)
        return State._of(updated)

    def restrict(self, variables: Iterable[Var]) -> "State":
        keep = {v.name for v in variables}
        items = {n: q for n, q in self._bindings.items() if n in keep}
        if len(items) == len(self._bindings):
            return self
        return State._of(items)

    def items(self) -> Iterator[tuple[Var, Fraction]]:
        return ((Var(n), q) for n, q in sorted(self._bindings.items()))

    def variables(self) -> set[Var]:
        return {Var(n) for n in self._bindings}

    def values(self) -> set[Fraction]:
        return set(self._bindings.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._bindings.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={q}" for v, q in self.items())
        return f"State({inner})"


def state(**bindings) -> State:
    """Convenience constructor: ``state(x=1, c=Fraction(1, 2))``."""
    return State({Var(name): rat(value) for name, value in bindings.items()})


# ---------------------------------------------------------------------------
# Quantifier domains
# ---------------------------------------------------------------------------

class QDomain(tuple):
    """Finite, deduplicated, deterministically ordered set of rationals: the
    tuple of its validated values, the first of equal values kept."""

    __slots__ = ()

    def __new__(cls, values: Iterable[Fraction]):
        return super().__new__(cls, dict.fromkeys(map(rat, values)))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"QDomain({list(self)})"


def calkin_wilf_stream() -> Iterator[Fraction]:
    """The Calkin-Wilf enumeration 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ..."""
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def calkin_wilf(k: int, extra: Iterable[Fraction] = ()) -> QDomain:
    """0, the first ``k`` Calkin-Wilf rationals, and ``extra``, deduplicated."""
    if k < 0:
        raise ValueError("k must be non-negative")
    stream = calkin_wilf_stream()
    prefix = [Fraction(0)] + [next(stream) for _ in range(k)]
    return QDomain(prefix + sorted(rat(q) for q in extra))


DEFAULT_DEPTH = 32


def default_domain(f: Exp, sigma: State, k: int = DEFAULT_DEPTH) -> QDomain:
    """A Calkin-Wilf prefix of size ``k`` enriched with the constants of
    ``f`` and ``sigma``.

    Including the constants in sight greatly improves guard hits under the
    restricted quantifier semantics.
    """
    return calkin_wilf(k, constants(f) | sigma.values())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _zero(s: State) -> Fraction:
    """The closure of every literal 0, by which ``_term`` folds additions."""
    return ZERO


def _term(a: AExpr) -> Callable[[State], Fraction]:
    """The closure that evaluates the term ``a`` at a state.

    Compiled on first use and cached on the node as ``_fn``, a slot
    outside its dataclass fields (``syntax._Cached``): a shared subterm is
    compiled once, and the closure is freed with its node.  Rewrites build
    new nodes, which compile afresh.

    Every literal 0 compiles to ``_zero``, and an ``Add`` with a side that
    compiled to it is the other side's closure: ``a + 0`` is ``a`` exactly,
    and a cut form's totals add the 0 of each negated summand.  This folds
    closures only; the node keeps its syntax.
    """
    try:
        return a._fn
    except AttributeError:
        pass
    match a:
        case RatLit(q) if not q:
            fn = _zero
        case RatLit(q):
            def fn(s):
                return q
        case VarRef(v):
            name = v.name

            def fn(s):
                return s._bindings.get(name, ZERO)
        case Add(l, r):
            lf, rf = _term(l), _term(r)
            if lf is _zero:
                fn = rf
            elif rf is _zero:
                fn = lf
            else:
                def fn(s):
                    return lf(s) + rf(s)
        case Mul(l, r):
            lf, rf = _term(l), _term(r)

            def fn(s):
                return lf(s) * rf(s)
        case Monus(l, r):
            lf, rf = _term(l), _term(r)

            def fn(s):
                x, y = lf(s), rf(s)
                if x.numerator * y.denominator > y.numerator * x.denominator:
                    return x - y
                return ZERO
        case _:
            raise TypeError(a)
    object.__setattr__(a, "_fn", fn)
    return fn


def _guard(phi: BExpr) -> Callable[[State], bool]:
    """The closure that decides the guard ``phi`` at a state, cached like
    ``_term``'s.

    ``<`` compares by integer cross-multiplication (denominators are
    positive), with a literal side's numerator and denominator read once.
    A negation over a ``<`` or over an ``&&`` chain is folded into that
    node's closure: ``!(a < b)`` is compiled as ``b <= a``.
    """
    try:
        return phi._fn
    except AttributeError:
        pass
    match phi:
        case Lt(l, r):
            fn = _less(l, r, lt)
        case Not(Lt(l, r)):
            fn = _less(r, l, le)
        case And():
            fn = _conjunction(phi, False)
        case Not(And() as chain):
            fn = _conjunction(chain, True)
        case Not(arg):
            af = _guard(arg)

            def fn(s):
                return not af(s)
        case _:
            raise TypeError(phi)
    object.__setattr__(phi, "_fn", fn)
    return fn


def _less(l: AExpr, r: AExpr,
          cmp: Callable[[int, int], bool]) -> Callable[[State], bool]:
    """The closure for ``l < r`` (``cmp`` is ``lt``) or ``l <= r`` (``le``).

    A side that is a variable or a literal is read in place, so ``x < 3``
    or ``x < y`` makes one call per evaluation.
    """
    match l, r:
        case RatLit(p), RatLit(q):
            holds = cmp(p, q)

            def fn(s):
                return holds
        case VarRef(u), VarRef(v):
            lname, rname = u.name, v.name

            def fn(s):
                b = s._bindings
                x, y = b.get(lname, ZERO), b.get(rname, ZERO)
                return cmp(x.numerator * y.denominator, y.numerator * x.denominator)
        case VarRef(v), RatLit(q):
            name, n, d = v.name, q.numerator, q.denominator

            def fn(s):
                x = s._bindings.get(name, ZERO)
                return cmp(x.numerator * d, n * x.denominator)
        case RatLit(q), VarRef(v):
            name, n, d = v.name, q.numerator, q.denominator

            def fn(s):
                y = s._bindings.get(name, ZERO)
                return cmp(n * y.denominator, y.numerator * d)
        case _, RatLit(q):
            lf, n, d = _term(l), q.numerator, q.denominator

            def fn(s):
                x = lf(s)
                return cmp(x.numerator * d, n * x.denominator)
        case RatLit(q), _:
            rf, n, d = _term(r), q.numerator, q.denominator

            def fn(s):
                y = rf(s)
                return cmp(n * y.denominator, y.numerator * d)
        case _:
            lf, rf = _term(l), _term(r)

            def fn(s):
                x, y = lf(s), rf(s)
                return cmp(x.numerator * y.denominator, y.numerator * x.denominator)
    return fn


def _conjuncts(chain: And) -> Iterator[BExpr]:
    """The distinct conjuncts of the maximal ``&&`` chain rooted at
    ``chain``, left to right, flattened with an explicit stack as they are
    asked for.

    Guards are pure, so a conjunct or shared sub-chain met a second time is
    left out: it held the first time, or the chain stopped before reaching
    it.
    """
    seen = set()  # ids of nodes alive through chain
    stack = [chain]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, And):
                stack.append(node.right)
                stack.append(node.left)
            else:
                yield node


def _literal(phi: BExpr) -> tuple[BExpr, bool]:
    """``phi`` as an atom and the value of the atom at which ``phi`` holds:
    negations peel off, so ``phi`` and ``!phi`` share one atom."""
    value = True
    while isinstance(phi, Not):
        phi, value = phi.arg, not value
    return phi, value


def _clause(c: BExpr) -> Iterator[tuple[BExpr, bool]]:
    """The literals of the conjunct ``c`` read as a clause, which holds when
    one of them does, flattened as they are asked for.

    A conjunct ``!(a1 && ... && ak)``, which is what implications and
    disjunctions lower to, holds when some ``ai`` is false; any other
    conjunct is a clause of one literal.
    """
    if isinstance(c, Not) and isinstance(c.arg, And):
        return map(_falsified, _conjuncts(c.arg))
    return iter((_literal(c),))


def _falsified(phi: BExpr) -> tuple[BExpr, bool]:
    """``phi`` as an atom and the value of the atom at which ``phi`` fails."""
    atom, value = _literal(phi)
    return atom, not value


def _shares_atoms(conjuncts: list[BExpr]) -> bool:
    """Whether an atom occurs in two of the clauses (``_clause``) that
    ``conjuncts`` are; the clauses are read only up to the first such
    atom."""
    first: dict[int, int] = {}  # id of an atom (alive through conjuncts) -> clause
    for j, c in enumerate(conjuncts):
        for atom, _ in _clause(c):
            if first.setdefault(id(atom), j) != j:
                return True
    return False


def _conjunction(phi: And, negated: bool) -> Callable[[State], bool]:
    """One closure for the maximal chain of ``&&`` rooted at ``phi``, or
    for its negation.

    The chain is flattened by ``_conjuncts``, so a chain of any length
    compiles without recursion, and its inner ``And`` nodes get no closure
    of their own.  The conjuncts run left to right and the first false one
    stops the chain.

    A chain is also a conjunction of clauses over atoms (``_clause``).
    When an atom occurs in two or more clauses, as the summand guards do in
    each of the 2^n sign patterns of a cut form, the chain runs over its
    clauses (``_clause_table``) with a table of atom values local to the
    call, so each atom runs at most once per call (the way a BDD evaluates
    a shared node once: Bryant, "Graph-Based Algorithms for Boolean
    Function Manipulation", 1986).  Atoms give exact ``bool``s and guards
    are pure and total, so neither the order nor the short-circuit changes
    a value.  A chain without shared atoms, and every negated chain, runs
    its conjuncts' own closures.
    """
    conjuncts = list(_conjuncts(phi))
    if not negated and _shares_atoms(conjuncts):
        return _clause_table(conjuncts)
    fns = tuple(_guard(c) for c in conjuncts)
    holds = not negated

    def fn(s):
        for f in fns:
            if not f(s):
                return negated
        return holds
    return fn


def _clause_table(conjuncts: list[BExpr]) -> Callable[[State], bool]:
    """The closure for a conjunction of clauses that share atoms.

    Each literal reads its atom's slot in a table of the call's own, and
    runs the atom only when the slot is still empty.  Clauses that begin
    with the same literals share them in a trie: an edge is a literal and
    the clauses that go on through it, so a literal that holds settles all
    of them at once, and a cut form's 2^n sign patterns cost about 2n
    literal reads per call in place of about 2^(n+1).  The trie is walked
    depth first, in the order of the clauses, with an explicit stack.

    The closure pays for what its calls read.  The trie grows as calls
    reach it: an edge keeps the unread rest of each clause that goes on
    through it, and the first call that goes below the edge takes the next
    literal of each (``grow``), so a clause is flattened only as far as
    some call reads it.  An atom compiles when a call first reads its
    slot, into a list of closures by slot that this closure owns.  A call
    of a cut form's matrix reads about 2n of its 2^n + n atoms, so most
    ``$cut < total`` atoms and their sums are never flattened or compiled.
    A call that an exception stops while it grows the trie drops the
    trie, whose clauses it may have read in part, and the next call
    starts a new one.
    """
    slots: dict[int, int]  # id of an atom (alive through the chain) -> slot
    atoms: list[BExpr]  # the atom of each slot
    fns: list  # the closure of each slot's atom, once a call read it

    def grow(edge: list) -> None:
        """Fill the edges below ``edge`` from the next literal of each
        clause waiting there."""
        below: dict[tuple[int, bool], list] = {}
        for clause in edge[4]:
            literal = next(clause, None)
            if literal is None:
                edge[2] = True
                continue
            atom, value = literal
            i = slots.get(id(atom))
            if i is None:
                i = slots[id(atom)] = len(atoms)
                atoms.append(atom)
                fns.append(None)
            child = below.get((i, value))
            if child is None:
                # slot, value, a clause ends here, the edges below, the
                # clauses waiting to grow them (None once grown)
                child = below[i, value] = [i, value, False, [], []]
                edge[3].append(child)
            child[4].append(clause)
        edge[4] = None

    def start() -> list:
        """The root's edges of a new trie, over new slots."""
        nonlocal slots, atoms, fns
        slots, atoms, fns = {}, [], []
        top = [None, None, False, [], list(map(_clause, conjuncts))]
        grow(top)
        return top[3]

    root = start()

    def fn(s):
        nonlocal root
        if root is None:
            root = start()
        known = [None] * len(atoms)
        stack = [iter(root)]
        while stack:
            for edge in stack[-1]:
                i, value, ends, rest, waiting = edge
                v = known[i]
                if v is None:
                    f = fns[i]
                    if f is None:
                        f = fns[i] = _guard(atoms[i])
                    v = known[i] = f(s)
                if v is not value:
                    if waiting is not None:
                        try:
                            grow(edge)
                        except BaseException:
                            # an interrupt or a RecursionError may leave
                            # clauses read in part: the next call starts anew
                            root = None
                            raise
                        ends = edge[2]
                        known += [None] * (len(atoms) - len(known))
                    if ends:
                        return False
                    stack.append(iter(rest))
                    break
            else:
                stack.pop()
        return True
    return fn


def eval_aexpr(a: AExpr, sigma: State) -> Fraction:
    return _term(a)(sigma)


def eval_bexpr(phi: BExpr, sigma: State) -> bool:
    return _guard(phi)(sigma)


def eval_exp(f: Exp, sigma: State, dom: QDomain | None = None,
             mode: Mode = RESTRICTED) -> XReal:
    """Evaluate an expectation to an extended non-negative rational.

    Quantifiers range over ``dom`` (default: ``default_domain(f, sigma)``,
    built when evaluation first searches a quantifier, so quantifier-free
    terms never build it).  A sup over the empty domain is 0 and an inf
    over the empty domain is infinity.  Iverson guards contribute a factor
    of 0 or 1, and 0 * inf = 0 throughout.

    An inf stops at the first domain value where its body is 0.  The body
    is not evaluated at the values after that one, so an error it would
    raise there, such as a plan's ``FuelExceeded``, is not raised.

    Oracle-assisted, a tagged node is worth ``plan(sigma, rec)`` for its
    plan: a function of the node's free variables in ``sigma``, which
    evaluates any subterm through ``rec`` and so over the same domain.

    In both modes a delayed substitution that is not built yet is worth
    its original at ``sigma`` with every mapped variable bound, all at
    once, to its term's value at ``sigma`` (the substitution lemma).  That
    is exact because the domain is fixed for the whole call; only the
    default domain builds ``f``, as it reads the constants of ``f``.
    """

    def domain() -> QDomain:
        nonlocal dom
        if dom is None:
            dom = default_domain(f, sigma)
        return dom

    oracle = mode == ORACLE

    # compiled terms give validated non-negative Fractions, which are
    # values as they are
    def rec(g: Exp, sig: State) -> XReal:
        while (delay := g._delay) is not None:
            g, mapping = delay
            bound = sig
            for x, a in mapping.items():
                bound = bound._bind(x, _term(a)(sig))
            sig = bound
        if oracle and g.intrinsic is not None:
            return g.intrinsic(sig, rec)
        match g:
            case Arith(a):
                return _term(a)(sig)
            case Guard(cond, body):
                if _guard(cond)(sig):
                    return rec(body, sig)
                return ZERO
            case Plus(l, r):
                # a zero side gives the other side: most sums of guarded
                # terms add 0, and a Fraction sum reduces by a gcd
                left, right = rec(l, sig), rec(r, sig)
                return left + right if left and right else left or right
            case Scale(a, body):
                factor = _term(a)(sig)
                if not factor:
                    return ZERO
                return factor * rec(body, sig)
            case Sup(v, body):
                best = ZERO
                for q in domain():
                    candidate = rec(body, sig._bind(v, q))
                    if best < candidate:
                        best = candidate
                return best
            case Inf(v, body):
                best = XReal.INF
                for q in domain():
                    candidate = rec(body, sig._bind(v, q))
                    if candidate < best:
                        best = candidate
                        if not best:
                            break
                return best
        raise TypeError(g)

    return rec(f, sigma)


def eval_fo(p: FOFormula, sigma: State, dom: QDomain) -> bool:
    """Restricted-domain truth of a first-order formula.

    Quantifiers range over ``dom``; ``Nat`` atoms are decided exactly.  This
    is the bounded-model-checking stand-in used by the Goedelization oracles.
    """
    match p:
        case Atom(pred):
            return eval_bexpr(pred, sigma)
        case Nat(v):
            return is_natural(sigma[v])
        case FOAnd(l, r):
            return eval_fo(l, sigma, dom) and eval_fo(r, sigma, dom)
        case FOOr(l, r):
            return eval_fo(l, sigma, dom) or eval_fo(r, sigma, dom)
        case FONot(arg):
            return not eval_fo(arg, sigma, dom)
        case FOImplies(l, r):
            return (not eval_fo(l, sigma, dom)) or eval_fo(r, sigma, dom)
        case Exists(v, body):
            return any(eval_fo(body, sigma._bind(v, q), dom) for q in dom)
        case Forall(v, body):
            return all(eval_fo(body, sigma._bind(v, q), dom) for q in dom)
    raise TypeError(p)
