"""Abstract syntax for terms, guards, programs, expectations, and formulas.

All AST values are immutable (frozen dataclasses) and safe to share between
threads.  Boolean sugar (true, false, or, implication, equality, <=) is
lowered at construction time so that guard trees only ever contain the three
core connectives ``<``, ``&&``, ``!``.  Expectations may carry an *intrinsic*
tag: an evaluation plan attached by higher layers, a function
``plan(sigma, rec)`` of the state that is ignored by printing, equality,
and hashing.  Substitution into an expectation is delayed (see ``_Exp``).

The analysis walkers and substitution read each node's children from one
table, ``_CHILDREN``.  A quantifier prefix is a list of (quantifier class,
variable) pairs, outermost first, for ``Sup``/``Inf`` and
``Exists``/``Forall`` alike: ``split_prefix`` takes it off, ``quantify``
puts it back.

Generated terms share subterms heavily, so they are DAGs in memory.  The
variable, constant and substitution walkers visit each distinct node once
per call, keying their memos on the nodes of their own input, which stay
alive for the whole walk; the memos die with the walk.  The only facts kept
across calls are cached on the node itself, in slots (``_Cached``), so that
they are freed with the node, and each takes memory linear in the term: the
variable set of a term or guard, on the node it was asked for only, which
also lets substitution skip a subterm that mentions no mapped variable;
and its compiled evaluator (see ``semantics``).

Identifiers match ``\\$?[a-zA-Z_][a-zA-Z0-9_']*``; the ``$`` prefix marks the
reserved namespace used for machine-generated helper variables, which the
program parser rejects.
"""

from __future__ import annotations

import re
from collections import Counter
from operator import attrgetter, is_
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import ProbabilityOutOfRange
from .xreal import rat

_IDENT_RE = re.compile(r"\$?[a-zA-Z_][a-zA-Z0-9_']*\Z")


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")

    @property
    def reserved(self) -> bool:
        return self.name.startswith("$")

    def __str__(self) -> str:
        return self.name


def fresh_var(avoid: Iterable[Var], base: str = "v") -> Var:
    """Return a variable not in ``avoid``, priming ``base`` as needed.

    The scheme is deterministic: ``v``, ``v'``, ``v''``, ... so generated
    terms are stable across runs.
    """
    taken = {v.name for v in avoid}
    name = base
    while name in taken:
        name += "'"
    return Var(name)


def balanced(join, parts: list, empty):
    """Join ``parts`` left to right as a balanced tree (keeps depth logarithmic).

    ``join`` is a binary constructor such as ``Add``, ``And`` or ``FOAnd``;
    ``empty()`` gives the result for no parts.
    """
    if not parts:
        return empty()
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return join(balanced(join, parts[:mid], empty), balanced(join, parts[mid:], empty))


# ---------------------------------------------------------------------------
# Arithmetic expressions
# ---------------------------------------------------------------------------

class _Cached:
    """Base of terms and guards: a slot for each fact cached on a node, its
    variable set here and its compiled evaluator in ``semantics``.  As
    plain attributes they would give most nodes a dictionary of their own
    (CPython 3.11 keeps one attribute added after ``__init__`` inline, and
    a second one makes a dictionary), which costs memory and one more
    object for the cyclic collector per node."""

    __slots__ = ("_vars", "_fn", "__weakref__")


@dataclass(frozen=True, slots=True)
class RatLit(_Cached):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", rat(self.value))


@dataclass(frozen=True, slots=True)
class VarRef(_Cached):
    var: Var


@dataclass(frozen=True, slots=True)
class Add(_Cached):
    left: "AExpr"
    right: "AExpr"


@dataclass(frozen=True, slots=True)
class Mul(_Cached):
    left: "AExpr"
    right: "AExpr"


@dataclass(frozen=True, slots=True)
class Monus(_Cached):
    """Subtraction truncated at zero."""

    left: "AExpr"
    right: "AExpr"


AExpr = Union[RatLit, VarRef, Add, Mul, Monus]


def alit(value) -> RatLit:
    return RatLit(rat(value))


def avar(name: str | Var) -> VarRef:
    return VarRef(name if isinstance(name, Var) else Var(name))


def aexpr(value) -> AExpr:
    """Coerce ints, Fractions, strings, and Vars into arithmetic terms."""
    if isinstance(value, (RatLit, VarRef, Add, Mul, Monus)):
        return value
    if isinstance(value, Var):
        return VarRef(value)
    if isinstance(value, str):
        return VarRef(Var(value))
    return alit(value)


# ---------------------------------------------------------------------------
# Boolean expressions (core: <, &&, !)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Lt(_Cached):
    left: AExpr
    right: AExpr


@dataclass(frozen=True, slots=True)
class And(_Cached):
    left: "BExpr"
    right: "BExpr"


@dataclass(frozen=True, slots=True)
class Not(_Cached):
    arg: "BExpr"


BExpr = Union[Lt, And, Not]


def false_() -> BExpr:
    return Lt(alit(0), alit(0))


def true_() -> BExpr:
    return Not(false_())


def or_(phi: BExpr, psi: BExpr) -> BExpr:
    return Not(And(Not(phi), Not(psi)))


def implies_(phi: BExpr, psi: BExpr) -> BExpr:
    # phi -> psi  ==  !(phi && !psi)
    return Not(And(phi, Not(psi)))


def le_(a: AExpr, b: AExpr) -> BExpr:
    return Not(Lt(b, a))


def eq_(a: AExpr, b: AExpr) -> BExpr:
    return And(Not(Lt(a, b)), Not(Lt(b, a)))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    var: Var
    expr: AExpr


@dataclass(frozen=True)
class Seq:
    first: "Program"
    second: "Program"


@dataclass(frozen=True)
class PChoice:
    left: "Program"
    prob: Fraction
    right: "Program"

    def __post_init__(self):
        p = rat(self.prob)
        if not 0 <= p <= 1:
            raise ProbabilityOutOfRange(f"probability {p} not in [0, 1]")
        object.__setattr__(self, "prob", p)


@dataclass(frozen=True)
class Ite:
    cond: BExpr
    then: "Program"
    orelse: "Program"


@dataclass(frozen=True)
class While:
    cond: BExpr
    body: "Program"


Program = Union[Skip, Assign, Seq, PChoice, Ite, While]


def statements(prog: Program) -> list[Program]:
    """The statements of a ``;`` chain, first to last, with ``Seq`` flattened
    on an explicit stack, so a chain of any length costs no recursion; any
    other program is a chain of one."""
    out, stack = [], [prog]
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, Seq):
            stack += (stmt.second, stmt.first)
        else:
            out.append(stmt)
    return out


def contains_loop(prog: Program) -> bool:
    stack = [prog]
    while stack:
        match stack.pop():
            case While():
                return True
            case Seq(a, b) | PChoice(a, _, b) | Ite(_, a, b):
                stack += (a, b)
    return False


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Exp:
    """Base of expectations.  A node is *built*, with its fields set, or
    *delayed*: an explicit substitution (Abadi, Cardelli, Curien and Lévy,
    "Explicit Substitutions", JFP 1991) whose ``_delay`` holds (original,
    mapping) and which has no fields yet.  A delayed node is an instance
    of its class's delayed twin, a subclass (``_Delayed``) in which the
    first read of a field, ``==``, ``hash`` or ``repr`` builds the node
    (``_build``) and turns it into an instance of the class itself.  So
    printing, the walkers and ``match`` patterns see the node that the
    eager walk makes, and built nodes pay nothing for the mechanism;
    ``eval_exp`` reads ``_delay`` and builds nothing.  An expectation is
    also a plan: a node tagged with ``e`` is worth ``e``.
    """

    intrinsic: Optional[object] = field(default=None, compare=False,
                                        repr=False, kw_only=True)
    _delay = None  # (original, mapping) while the node is delayed

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not issubclass(cls, _Delayed):
            cls._twin = type(cls.__name__, (_Delayed, cls), {})

    def __call__(self, sigma, rec):
        return rec(self, sigma)


class _Delayed:
    """Mixin of the delayed twin of an expectation class."""

    def __getattribute__(self, name):
        if name in type(self).__dataclass_fields__:
            _build(self)
        return object.__getattribute__(self, name)

    # the dataclass methods would compare, hash and print the twin class,
    # and pickle would look the twin up by the class's name
    def __eq__(self, other):
        _build(self)
        return self == other

    def __hash__(self):
        _build(self)
        return hash(self)

    def __repr__(self):
        _build(self)
        return repr(self)

    def __reduce_ex__(self, protocol):
        _build(self)
        return self.__reduce_ex__(protocol)


@dataclass(frozen=True)
class Arith(_Exp):
    expr: AExpr


@dataclass(frozen=True)
class Guard(_Exp):
    """[cond] * body: the Iverson-guarded expectation."""

    cond: BExpr
    body: "Exp"


@dataclass(frozen=True)
class Plus(_Exp):
    left: "Exp"
    right: "Exp"


@dataclass(frozen=True)
class Scale(_Exp):
    """factor * body, where the factor is an arithmetic term."""

    factor: AExpr
    body: "Exp"


@dataclass(frozen=True)
class Sup(_Exp):
    var: Var
    body: "Exp"


@dataclass(frozen=True)
class Inf(_Exp):
    var: Var
    body: "Exp"


Exp = Union[Arith, Guard, Plus, Scale, Sup, Inf]


def with_intrinsic(node: Exp, tag: object) -> Exp:
    return replace(node, intrinsic=tag)


def quantify(prefix: Prefix, body):
    """Wrap an expectation or formula in a prefix of (quantifier class,
    variable) pairs, outermost first: the inverse of ``split_prefix``."""
    for quant, var in reversed(prefix):
        body = quant(var, body)
    return body


# ---------------------------------------------------------------------------
# First-order arithmetic formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    pred: BExpr


@dataclass(frozen=True)
class Nat:
    """Assertion that a variable denotes a natural number.

    Kept as an opaque atom so translated formulas stay decidable by the
    oracle evaluator; ``goedel.expand_nat_atoms`` replaces it by the
    first-order construction over squares when a primitive formula is needed.
    """

    var: Var


@dataclass(frozen=True)
class FOAnd:
    left: "FOFormula"
    right: "FOFormula"


@dataclass(frozen=True)
class FOOr:
    left: "FOFormula"
    right: "FOFormula"


@dataclass(frozen=True)
class FONot:
    arg: "FOFormula"


@dataclass(frozen=True)
class FOImplies:
    left: "FOFormula"
    right: "FOFormula"


@dataclass(frozen=True)
class Exists:
    var: Var
    body: "FOFormula"


@dataclass(frozen=True)
class Forall:
    var: Var
    body: "FOFormula"


FOFormula = Union[Atom, Nat, FOAnd, FOOr, FONot, FOImplies, Exists, Forall]

# The guard constructor of each formula connective: a quantifier-free
# formula lowers to a guard through it (``goedel.fo_to_exp``), and the parser
# climbs one connective ladder for guards and formulas with it.
GUARD_OF = {FOImplies: implies_, FOOr: or_, FOAnd: And, FONot: Not}


# ---------------------------------------------------------------------------
# Node shapes and the walkers over them
# ---------------------------------------------------------------------------

_QF_TYPES = (RatLit, VarRef, Add, Mul, Monus, Lt, And, Not)
_SUBST_TYPES = (*_QF_TYPES, Arith, Guard, Plus, Scale)  # rebuilt from children
_BINDERS = (Sup, Inf, Exists, Forall)
_NO_VARS: frozenset[Var] = frozenset()

_leaf = lambda node: ()
_pair = attrgetter("left", "right")
_body = lambda node: (node.body,)
_arg = lambda node: (node.arg,)

# The child nodes of each term, guard, expectation and formula class, left
# to right: the one place a walker learns the shape of a node.
_CHILDREN = {
    RatLit: _leaf, VarRef: _leaf, Add: _pair, Mul: _pair, Monus: _pair,
    Lt: _pair, And: _pair, Not: _arg,
    Arith: lambda node: (node.expr,), Guard: attrgetter("cond", "body"),
    Plus: _pair, Scale: attrgetter("factor", "body"), Sup: _body, Inf: _body,
    Atom: lambda node: (node.pred,), Nat: _leaf, FOAnd: _pair, FOOr: _pair,
    FONot: _arg, FOImplies: _pair, Exists: _body, Forall: _body,
}


def _lookup(table: dict, node):
    """The entry of the nearest class of ``node`` in a table keyed on node
    classes: a subclass of a node class has its node class's entry."""
    entry = next((table[c] for c in type(node).__mro__ if c in table), None)
    if entry is None:
        # the type alone: the repr of a shared term can be astronomical
        raise TypeError(type(node).__name__)
    return entry


def _children(node) -> tuple:
    """The child nodes of a term, guard, expectation or formula, left to
    right."""
    return (_CHILDREN.get(type(node)) or _lookup(_CHILDREN, node))(node)


Prefix = list[tuple[type, Var]]  # (Sup | Inf | Exists | Forall, variable)


def split_prefix(node) -> tuple[Prefix, object]:
    """Split the leading binders off an expectation or formula: their
    (quantifier class, variable) pairs, outermost first, and the body.

    Quantifier prefixes are the one place trees grow deep (generated
    encodings stack hundreds of binders), so walkers split them off in a
    loop instead of recursing; ``quantify`` puts a prefix back.
    """
    prefix: Prefix = []
    while isinstance(node, _BINDERS):
        var = node.var  # builds a delayed node before its class is read
        prefix.append((type(node), var))
        node = node.body
    return prefix, node


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, reusing an operand that already contains the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _qf_vars(node) -> frozenset[Var]:
    """Variables of a term or guard.

    The set is cached on ``node`` itself, in a slot of ``_Cached``, so it
    is computed once and freed with the node.  It is computed in one
    iterative pass over the distinct subterms, which reads off a set
    already cached on a subterm but caches none on them: a guard of n
    variables under d nested connectives keeps n elements, not about
    n * d.
    """
    try:
        return node._vars
    except AttributeError:
        pass
    found: set[Var] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        known = getattr(n, "_vars", None)
        if known is not None:
            found.update(known)
        elif isinstance(n, VarRef):
            found.add(n.var)
        else:
            stack.extend(_children(n))
    out = frozenset(found) if found else _NO_VARS
    object.__setattr__(node, "_vars", out)
    return out


def _vars(node, free: bool, memo: dict) -> frozenset[Var]:
    """Free (or free and bound) variables of any term, guard, expectation
    or formula.

    Sets of expectations and formulas live in ``memo``, which belongs to
    one walk, and only for the head of each quantifier spine: caching them
    on the nodes would keep one set per binder alive, and generated spines
    stack hundreds of binders, which makes that quadratic in memory.
    """
    if isinstance(node, _QF_TYPES):
        return _qf_vars(node)
    hit = memo.get(id(node))
    if hit is not None:
        return hit
    root = node
    bound = []  # not ``split_prefix``: a pair per binder of a long spine wakes the
    # cyclic collector, and ``free_vars`` of a compiled loop took 1.8x as long
    while isinstance(node, _BINDERS):
        bound.append(node.var)
        node = node.body
    out = frozenset((node.var,)) if isinstance(node, Nat) else _NO_VARS
    for child in _children(node):
        out = _union(out, _vars(child, free, memo))
    if bound:
        out = out.difference(bound) if free else out.union(bound)
    memo[id(root)] = out
    return out


def free_vars(node) -> frozenset[Var]:
    """Free variables of a term, guard, expectation or formula."""
    return _vars(node, True, {})


def all_vars(node) -> frozenset[Var]:
    """Free and bound variables of a term, guard, expectation or formula."""
    return _vars(node, False, {})


def vars_program(prog: Program) -> set[Var]:
    out: set[Var] = set()
    stack = [prog]
    while stack:
        match stack.pop():
            case Skip():
                pass
            case Assign(v, e):
                out.add(v)
                out |= free_vars(e)
            case Seq(a, b) | PChoice(a, _, b):
                stack += (a, b)
            case Ite(cond, a, b):
                out |= free_vars(cond)
                stack += (a, b)
            case While(cond, body):
                out |= free_vars(cond)
                stack.append(body)
            case other:
                raise TypeError(other)
    return out


def constants(node) -> set[Fraction]:
    """Rational literals occurring anywhere in a term, guard, expectation
    or formula.

    Iterative, and each distinct node is visited once, so the cost follows
    the in-memory structure, not its tree expansion.
    """
    found: set[Fraction] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, RatLit):
            found.add(n.value)
        stack.extend(_children(n))
    return found


def is_quantifier_free(node) -> bool:
    """Whether an expectation or formula contains no quantifier.

    Iterative, and each distinct node is visited once; terms and guards,
    which cannot hold a quantifier, are not entered.
    """
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, _QF_TYPES) or id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, _BINDERS):
            return False
        stack.extend(_children(n))
    return True


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

# A substitution context: (mapping, keys, results under it, contexts
# derived from it, the walk's free-variable memo).  The helpers do not close
# over each other, so a walk leaves no reference cycle behind.

def _context(m: dict[Var, AExpr], fv_memo: dict) -> tuple:
    return m, frozenset(m), {}, {}, fv_memo


def _derive(ctx: tuple, v: Var, v2: Var | None) -> tuple:
    """The mapping without ``v``, then with ``v`` renamed to ``v2``."""
    out = ctx[3].get((v, v2))
    if out is None:
        m = {k: a for k, a in ctx[0].items() if k != v}
        if v2 is not None:
            m[v] = VarRef(v2)
        out = ctx[3][v, v2] = _context(m, ctx[4])
    return out


def _delayed(node: Exp, mapping: dict[Var, AExpr]) -> Exp:
    """``node`` with each mapped variable replaced by its term, delayed."""
    out = object.__new__(type(node)._twin)
    object.__setattr__(out, "_delay", (node, mapping))
    return out


def _build(node: Exp) -> None:
    """Set the fields of a delayed node to those of the eager walk of its
    original, then drop the original and the mapping.

    The delayed nodes below it are built first, each after those below
    it, in a post-order pass on an explicit stack, so each walk meets only
    built nodes, as eager substitution did, and nested delays cost no
    recursion.  Two threads may both build a node: they set equal fields.
    """
    pending, seen, stack = [], set(), [(node, False)]
    while stack:
        n, below_done = stack.pop()
        if below_done:
            pending.append(n)
        elif id(n) not in seen:
            seen.add(id(n))
            delay = n._delay
            if delay is not None:
                stack += ((n, True), (delay[0], False))
            else:
                stack += ((c, False) for c in _children(n) if isinstance(c, _Exp))
    for n in pending:
        delay = n._delay
        if delay is None:  # built by another thread meanwhile
            continue
        out = _walk(delay[0], _context(delay[1], {}))
        for name in type(out).__dataclass_fields__:
            object.__setattr__(n, name, getattr(out, name))
        object.__setattr__(n, "__class__", type(out))
        try:
            object.__delattr__(n, "_delay")
        except AttributeError:  # another thread built it meanwhile
            pass


def _plan(g: Exp, ctx: tuple) -> Exp | None:
    """The plan of ``g`` rebuilt under ``ctx``: ``g`` delayed under the
    mapping in force, or, if ``g``'s plan is such a delay, its original
    under the two mappings composed."""
    tag = g.intrinsic
    if tag is None:
        return None
    delay = getattr(tag, "_delay", None)
    if delay is None:
        return _delayed(g, ctx[0])
    original, mapping = delay
    inner = {x: _walk(a, ctx) for x, a in mapping.items()}
    return _delayed(original, {**ctx[0], **inner})


def _walk(g, ctx: tuple):
    m, keys, memo, _, _ = ctx
    qf = isinstance(g, _QF_TYPES)
    if qf:
        # a variable set already cached on ``g`` may prove that it mentions
        # no mapped variable; none is computed here
        known = getattr(g, "_vars", None)
        if known is not None and known.isdisjoint(keys):
            return g
    out = memo.get(id(g))
    if out is not None:
        return out
    if isinstance(g, VarRef):
        out = m.get(g.var, g)
    elif isinstance(g, (Sup, Inf)):
        out = _under_binders(g, ctx)
    elif isinstance(g, _SUBST_TYPES):
        kids = _children(g)
        new = [_walk(child, ctx) for child in kids]
        if all(map(is_, new, kids)):
            out = g
        elif qf:
            out = type(g)(*new)
        else:
            out = type(g)(*new, intrinsic=_plan(g, ctx))
    else:
        raise TypeError(g)
    memo[id(g)] = out
    return out


def _under_binders(g: Exp, ctx: tuple) -> Exp:
    if _vars(g, True, ctx[4]).isdisjoint(ctx[1]):
        return g
    spine = []
    while isinstance(g, (Sup, Inf)):
        spine.append(g)
        g = g.body
    matrix_fv = _vars(g, True, ctx[4])
    below = Counter(b.var for b in spine)  # binders under the current one
    heads = []
    for b in spine:
        v, tag = b.var, _plan(b, ctx)
        below[v] -= 1
        if v in ctx[1]:
            ctx = _derive(ctx, v, None)
        # terms coming in for the variables free in this binder's body
        incoming = [ctx[0][k] for k in ctx[1] & matrix_fv if not below[k]]
        if any(v in _qf_vars(a) for a in incoming):
            avoid = {u for u in matrix_fv if not below[u]} | {v}
            for a in incoming:
                avoid |= _qf_vars(a)
            v2 = fresh_var(avoid, base=v.name)
            ctx = _derive(ctx, v, v2)
            v = v2
        heads.append((type(b), v, tag))
    out = _walk(g, ctx)
    for ctor, v, tag in reversed(heads):
        out = ctor(v, out, intrinsic=tag)
    return out


def substitute(node, mapping: dict[Var, AExpr]):
    """Parallel, capture-avoiding substitution of each variable by its term,
    in a term, guard or expectation.

    Into a term or guard it walks at once.  Into an expectation it walks
    nothing and returns a delayed node (see ``_Exp``), which the first
    read of a field builds by the walk below.

    The walk renames a bound variable that would capture a variable of an
    incoming term by priming; the renaming extends the mapping instead of
    copying the binder's body, so the walk visits only nodes of its input.
    Subtrees without a free mapped variable are returned as-is: a term or
    guard whose cached variable set misses the mapped variables is
    skipped, as is a binder spine whose free variables miss them, and a
    node is rebuilt, from its children in ``_CHILDREN``, only when a child
    changed.  A rebuilt tagged node gets as its plan the
    original node delayed under the mapping in force there, renames
    included; a node whose plan is such a delay composes the mappings, so
    substitutions applied one after another keep one delay over the
    original.  Results are memoized for the one walk, keyed on input
    nodes, which the caller keeps alive for the call, so shared subterms
    are substituted once.
    """
    if not mapping:
        return node
    if isinstance(node, _Exp):
        return _delayed(node, dict(mapping))
    return _walk(node, _context(dict(mapping), {}))


def subst_exp(f: Exp, x: Var, value: AExpr) -> Exp:
    """Capture-avoiding substitution of ``x`` by the term ``value``."""
    return substitute(f, {x: value})


# ---------------------------------------------------------------------------
# Prenex form
# ---------------------------------------------------------------------------

_DUAL = {Exists: Forall, Forall: Exists}
# the children of a formula connective whose pulled quantifiers flip: the
# argument of a negation and the premise of an implication
_FLIPS = {FONot: (True,), FOImplies: (True, False)}
_NO_FLIPS = (False, False)


def prenex(node) -> tuple[Prefix, object]:
    """Pull every quantifier of an expectation or formula to the front:
    the prefix of (quantifier class, variable) pairs, outermost first, and
    the quantifier-free matrix; ``quantify`` puts them together.

    One pre-order, left-first pass appends each binder to the prefix when
    it meets it, so the prefix lists binders outermost first, left argument
    before right; ``Exists`` and ``Forall`` swap under a negation and under
    an implication premise.  A binder is renamed when its name is free in
    ``node`` or already in the prefix, and a ``Sup``/``Inf`` binder also
    when it is user-named and sits below a connective; the new name is the
    first priming of the old one that is neither a name of ``node`` nor
    chosen before, so the result depends on ``node`` alone, and reserved
    machine-generated names, unique within the construction that made them,
    are renamed only on a clash.  The renaming travels down to the leaves,
    so each binder and each leaf is renamed at most once: terms and guards
    through ``substitute``, and a leaf with nothing to rename comes back as
    it is.  Rebuilt nodes carry no plan: none of a node whose quantifiers
    were pulled out applies to what is left of it, and a term needs none.
    """
    free = free_vars(node)
    taken = {v.name for v in all_vars(node)}
    prefix: Prefix = []
    bound: set[Var] = set()

    def rename(t, ren: dict):
        clashes = ren.keys() & _qf_vars(t)
        if not clashes:
            return t
        return substitute(t, {v: VarRef(ren[v]) for v in clashes})

    def go(g, ren: dict, nested: bool, flip: bool):
        while isinstance(g, _BINDERS):  # a loop, as in ``_vars``: spines run long
            var = g.var  # builds a delayed node before its class is read
            quant = type(g)
            new = var
            if var in free or var in bound or (
                    nested and quant in (Sup, Inf) and not var.reserved):
                name = var.name + "'"
                while name in taken:
                    name += "'"
                taken.add(name)
                new = Var(name)
                ren = {**ren, var: new}
            prefix.append((_DUAL[quant] if flip else quant, new))
            bound.add(new)
            g = g.body
        if isinstance(g, Nat):
            return Nat(ren[g.var]) if g.var in ren else g
        children = _children(g)
        if len(children) == 1 and isinstance(children[0], _QF_TYPES):  # Arith, Atom
            t = rename(children[0], ren)
            return g if t is children[0] else type(g)(t)
        flips = _FLIPS.get(type(g), _NO_FLIPS)
        return type(g)(*[rename(c, ren) if isinstance(c, _QF_TYPES)
                         else go(c, ren, True, flip ^ f)
                         for c, f in zip(children, flips)])

    return prefix, go(node, {}, False, False)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# The infix and prefix nodes: each class's format, its own precedence and
# its children's, in the scale of its syntax (terms: 1 + and -, 2 *; guards:
# 1 &&; expectations: 0 quantifiers, 1 +, 2 *; formulas: 0 quantifiers,
# 1 ->, 2 ||, 3 &&, 4 ! and atoms).  Negations and atoms are never wrapped.
_NEVER = 9
_FORMS = {
    Add: ("{} + {}", 1, 1, 2), Monus: ("{} - {}", 1, 1, 2), Mul: ("{} * {}", 2, 2, 3),
    Lt: ("{} < {}", _NEVER, 1, 1), And: ("{} && {}", 1, 1, 2), Not: ("!{}", _NEVER, 2),
    Guard: ("[{}] * {}", 2, 0, 2), Scale: ("{} * {}", 2, 3, 2), Plus: ("{} + {}", 1, 1, 2),
    Atom: ("{}", _NEVER, 4), FOImplies: ("{} -> {}", 1, 2, 1),
    FOOr: ("{} || {}", 2, 2, 3), FOAnd: ("{} && {}", 3, 3, 4), FONot: ("!{}", _NEVER, 4),
}


def _print(node, prec: int = 0) -> str:
    """Render a term, guard, expectation or formula at context precedence
    ``prec``: a node is parenthesized when its context binds tighter.

    ``-`` denotes monus.  Guards print ``false``, ``true``, ``=`` and ``<=``
    back from their lowered forms, a compound term in an expectation is
    parenthesized so that it reads back as one term, and a formula's atom
    prints as a guard at precedence 4 (so only atoms that are comparisons,
    ``true`` or ``false`` round-trip).  Each node costs one recursion frame.
    """
    match node:
        case RatLit(q):
            return str(q)
        case VarRef(v):
            return v.name
        case Nat(v):
            return f"N({v.name})"
        case Arith(a):
            return _print(a) if isinstance(a, (RatLit, VarRef)) else f"({_print(a)})"
        case Lt(RatLit(0), RatLit(0)):
            return "false"
        case Not(Lt(RatLit(0), RatLit(0))):
            return "true"
        case And(Not(Lt(a1, b1)), Not(Lt(b2, a2))) if a1 == a2 and b1 == b2:
            return f"{_print(a1, 1)} = {_print(b1, 1)}"
        case Not(Lt(b, a)):
            return f"{_print(a, 1)} <= {_print(b, 1)}"
        case Sup() | Inf() | Exists() | Forall():
            prefix, matrix = split_prefix(node)
            s = "".join(f"{quant.__name__.lower()} {v.name}: " for quant, v in prefix)
            s += _print(matrix)
            return f"({s})" if prec > 0 else s
    form, own, *inner = _FORMS.get(type(node)) or _lookup(_FORMS, node)
    s = form.format(*map(_print, _children(node), inner))
    return f"({s})" if prec > own else s


print_aexpr = print_bexpr = print_exp = print_fo = _print


def print_program(prog: Program, indent: str = "") -> str:
    match prog:
        case Skip():
            return f"{indent}skip"
        case Assign(v, e):
            return f"{indent}{v.name} := {print_aexpr(e)}"
        case Seq():
            return ";\n".join(print_program(stmt, indent) for stmt in statements(prog))
        case PChoice(a, p, b):
            inner = indent + "  "
            return (
                f"{indent}{{\n{print_program(a, inner)}\n{indent}}} "
                f"[{p}] {{\n{print_program(b, inner)}\n{indent}}}"
            )
        case Ite(cond, a, b):
            inner = indent + "  "
            return (
                f"{indent}if ({print_bexpr(cond)}) {{\n{print_program(a, inner)}\n"
                f"{indent}}} else {{\n{print_program(b, inner)}\n{indent}}}"
            )
        case While(cond, body):
            inner = indent + "  "
            return (
                f"{indent}while ({print_bexpr(cond)}) {{\n"
                f"{print_program(body, inner)}\n{indent}}}"
            )
    raise TypeError(prog)


def exp_tree_size(f: Exp) -> int:
    """Number of nodes in the tree expansion of an expectation.

    Generated terms share subterms, so the printed text can be exponentially
    larger than the in-memory structure; this estimates the printed size
    without materializing it.  Iterative, so arbitrarily deep terms are fine.
    """
    sizes: dict[int, int] = {}
    stack: list[tuple[object, bool]] = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if sizes.get(id(node), -1) >= 0:
            continue
        children = _children(node)
        if expanded or not children:
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in children)
        else:
            sizes[id(node)] = -1
            stack.append((node, True))
            stack.extend((c, False) for c in children if sizes.get(id(c), -1) < 0)
    return sizes[id(f)]
