"""Exact evaluation of terms, guards, and expectations over program states.

States map variables to non-negative rationals and read 0 for unbound
names, so each state is a finite object.  Quantifiers are evaluated over a
finite stand-in for the non-negative rationals (a ``QDomain``, by default a
Calkin-Wilf prefix enriched with the constants in sight); this restriction
is neither a sound lower nor upper bound for mixed quantifier prefixes and
is documented as the desk-scale approximation it is.  Quantifier-free
expectations evaluate exactly, independent of the domain, and without
building one.

``eval_exp`` has two modes: ``restricted`` ignores intrinsic tags, while
``oracle_assisted`` lets a tagged subtree delegate to its attached
evaluation plan (untagged quantifiers still fall back to the domain).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Literal, Mapping

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

_ZERO = Fraction(0)


class State:
    """Immutable finite map from variables to non-negative rationals.

    Unbound variables read as 0 (one shared zero); bindings with value 0
    are dropped so that states equal modulo zero-padding compare equal.
    The hash is computed on first use, since most states are never hashed.
    ``set`` and ``restrict`` start from bindings that are already valid, so
    they skip the constructor's check of every binding.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Mapping[Var, Fraction] | None = None):
        items = {}
        if bindings:
            for var, value in bindings.items():
                value = rat(value)
                if value != 0:
                    items[var] = value
        object.__setattr__(self, "_bindings", items)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, items: dict[Var, Fraction]) -> "State":
        """A state over ``items``, which must be valid, nonzero bindings."""
        out = object.__new__(cls)
        object.__setattr__(out, "_bindings", items)
        object.__setattr__(out, "_hash", None)
        return out

    def __setattr__(self, *_):
        raise AttributeError("State is immutable")

    def __getitem__(self, var: Var) -> Fraction:
        return self._bindings.get(var, _ZERO)

    def set(self, var: Var, value) -> "State":
        value = rat(value)
        updated = dict(self._bindings)
        if value:
            updated[var] = value
        else:
            updated.pop(var, None)
        return State._of(updated)

    def restrict(self, variables: Iterable[Var]) -> "State":
        keep = set(variables)
        items = {v: q for v, q in self._bindings.items() if v in keep}
        if len(items) == len(self._bindings):
            return self
        return State._of(items)

    def items(self) -> Iterator[tuple[Var, Fraction]]:
        return iter(sorted(self._bindings.items()))

    def variables(self) -> set[Var]:
        return set(self._bindings)

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

class QDomain:
    """Finite, deduplicated, deterministically ordered set of rationals."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Fraction]):
        seen = []
        taken = set()
        for q in values:
            q = rat(q)
            if q not in taken:
                taken.add(q)
                seen.append(q)
        object.__setattr__(self, "values", tuple(seen))

    def __setattr__(self, *_):
        raise AttributeError("QDomain is immutable")

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, q) -> bool:
        return rat(q) in self.values

    def __repr__(self) -> str:
        return f"QDomain({list(self.values)})"


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


def default_domain(f: Exp, sigma: State, k: int = 32) -> QDomain:
    """A Calkin-Wilf prefix enriched with the constants of ``f`` and ``sigma``.

    Including the constants in sight greatly improves guard hits under the
    restricted quantifier semantics.
    """
    return calkin_wilf(k, constants(f) | sigma.values())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_aexpr(a: AExpr, sigma: State) -> Fraction:
    match a:
        case RatLit(q):
            return q
        case VarRef(v):
            return sigma[v]
        case Add(l, r):
            return eval_aexpr(l, sigma) + eval_aexpr(r, sigma)
        case Mul(l, r):
            return eval_aexpr(l, sigma) * eval_aexpr(r, sigma)
        case Monus(l, r):
            lv, rv = eval_aexpr(l, sigma), eval_aexpr(r, sigma)
            return lv - rv if lv >= rv else Fraction(0)
    raise TypeError(a)


def eval_bexpr(phi: BExpr, sigma: State) -> bool:
    match phi:
        case Lt(a, b):
            return eval_aexpr(a, sigma) < eval_aexpr(b, sigma)
        case And(l, r):
            return eval_bexpr(l, sigma) and eval_bexpr(r, sigma)
        case Not(arg):
            return not eval_bexpr(arg, sigma)
    raise TypeError(phi)


def eval_exp(f: Exp, sigma: State, dom: QDomain | None = None,
             mode: Mode = RESTRICTED) -> XReal:
    """Evaluate an expectation to an extended non-negative rational.

    Quantifiers range over ``dom`` (default: ``default_domain(f, sigma)``,
    built when evaluation first meets a quantifier or, in oracle-assisted
    mode, an intrinsic plan, so quantifier-free terms never build it).  A
    sup over the empty domain is 0 and an inf over the empty domain is
    infinity.  Iverson guards contribute a factor of 0 or 1, and
    0 * inf = 0 throughout.
    """

    def domain() -> QDomain:
        nonlocal dom
        if dom is None:
            dom = default_domain(f, sigma)
        return dom

    def rec(g: Exp, sig: State) -> XReal:
        if mode == ORACLE and g.intrinsic is not None:
            return g.intrinsic.evaluate(g, sig, domain(), rec)
        match g:
            case Arith(a):
                return XReal.of(eval_aexpr(a, sig))
            case Guard(cond, body):
                if eval_bexpr(cond, sig):
                    return rec(body, sig)
                return ZERO
            case Plus(l, r):
                return rec(l, sig) + rec(r, sig)
            case Scale(a, body):
                factor = XReal.of(eval_aexpr(a, sig))
                if factor == ZERO:
                    return ZERO
                return factor * rec(body, sig)
            case Sup(v, body):
                best = ZERO
                for q in domain():
                    candidate = rec(body, sig.set(v, q))
                    if best < candidate:
                        best = candidate
                return best
            case Inf(v, body):
                best = XReal.INF
                for q in domain():
                    candidate = rec(body, sig.set(v, q))
                    if candidate < best:
                        best = candidate
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
            return any(eval_fo(body, sigma.set(v, q), dom) for q in dom)
        case Forall(v, body):
            return all(eval_fo(body, sigma.set(v, q), dom) for q in dom)
    raise TypeError(p)
