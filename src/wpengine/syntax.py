"""Abstract syntax for terms, guards, programs, expectations, and formulas.

All AST values are immutable (frozen dataclasses) and safe to share between
threads.  Boolean sugar (true, false, or, implication, equality, <=) is
lowered at construction time so that guard trees only ever contain the three
core connectives ``<``, ``&&``, ``!``.  Expectations may carry an *intrinsic*
tag: an evaluation plan attached by higher layers, a function
``plan(sigma, rec)`` of the state that is ignored by printing, equality,
and hashing; substitution keeps it (see ``SubstPlan``).

Generated terms share subterms heavily, so they are DAGs in memory.  The
variable, constant and substitution walkers visit each distinct node once
per call, keying their memos on the nodes of their own input, which stay
alive for the whole walk; the memos die with the walk.  The only facts kept
across calls are cached on the node itself, in slots (``_Cached``), so that
they are freed with the node, and each takes memory linear in the term: the
variable set of a term or guard, on the node it was asked for only; a
64-bit mask of its variables, on every term and guard, which lets
substitution skip the subterms that mention no mapped variable; and its
compiled evaluator (see ``semantics``).

Identifiers match ``\\$?[a-zA-Z_][a-zA-Z0-9_']*``; the ``$`` prefix marks the
reserved namespace used for machine-generated helper variables, which the
program parser rejects.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import ProbabilityOutOfRange
from .xreal import format_rat, rat

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
    variable set and variable mask here and its compiled evaluator in
    ``semantics``.  As plain attributes they would give most nodes a
    dictionary of their own (CPython 3.11 keeps one attribute added after
    ``__init__`` inline, and a second one makes a dictionary), which costs
    memory and one more object for the cyclic collector per node."""

    __slots__ = ("_vars", "_mask", "_fn", "__weakref__")


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
            raise ProbabilityOutOfRange(f"probability {format_rat(p)} not in [0, 1]")
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
class Arith:
    expr: AExpr
    intrinsic: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Guard:
    """[cond] * body: the Iverson-guarded expectation."""

    cond: BExpr
    body: "Exp"
    intrinsic: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Plus:
    left: "Exp"
    right: "Exp"
    intrinsic: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Scale:
    """factor * body, where the factor is an arithmetic term."""

    factor: AExpr
    body: "Exp"
    intrinsic: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Sup:
    var: Var
    body: "Exp"
    intrinsic: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Inf:
    var: Var
    body: "Exp"
    intrinsic: Optional[object] = field(default=None, compare=False, repr=False)


Exp = Union[Arith, Guard, Plus, Scale, Sup, Inf]


def with_intrinsic(node: Exp, tag: object) -> Exp:
    return replace(node, intrinsic=tag)


def quantify(prefix: list[tuple[type, Var]], body: Exp) -> Exp:
    """Wrap ``body`` in a quantifier prefix given as (Sup|Inf, var) pairs."""
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


# ---------------------------------------------------------------------------
# Variable analysis and other walkers
# ---------------------------------------------------------------------------

_QF_TYPES = (RatLit, VarRef, Add, Mul, Monus, Lt, And, Not)
_BINDERS = (Sup, Inf, Exists, Forall)
_NO_VARS: frozenset[Var] = frozenset()


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
            continue
        match n:
            case RatLit():
                pass
            case VarRef(v):
                found.add(v)
            case Add(l, r) | Mul(l, r) | Monus(l, r) | Lt(l, r) | And(l, r):
                stack.append(l)
                stack.append(r)
            case Not(arg):
                stack.append(arg)
            case _:
                raise TypeError(n)
    out = frozenset(found) if found else _NO_VARS
    object.__setattr__(node, "_vars", out)
    return out


def _bit(v: Var) -> int:
    """The bit of ``v`` in variable masks: a fixed hash of its name, so
    that it is the same in every process (``hash`` of a string is not)."""
    return 1 << (zlib.crc32(v.name.encode()) & 63)


def _mask(node) -> int:
    """The union of the bits of the variables of a term or guard.

    Cached on every node, like its compiled evaluator (``semantics``): a
    small int per node instead of a set, so memory stays linear in the
    term.  Two variables may share a bit, so masks that do not meet prove
    two variable sets disjoint, and masks that meet prove nothing.
    """
    try:
        return node._mask
    except AttributeError:
        pass
    match node:
        case RatLit():
            out = 0
        case VarRef(v):
            out = _bit(v)
        case Add(l, r) | Mul(l, r) | Monus(l, r) | Lt(l, r) | And(l, r):
            out = _mask(l) | _mask(r)
        case Not(arg):
            out = _mask(arg)
        case _:
            raise TypeError(node)
    object.__setattr__(node, "_mask", out)
    return out


def _peel_quantifiers(f: Exp) -> tuple[list[tuple[type, Var, object]], Exp]:
    """Split a leading quantifier chain off iteratively.

    Quantifier prefixes are the one place trees grow deep (generated
    encodings stack hundreds of binders), so every walker peels them in a
    loop instead of recursing.
    """
    spine: list[tuple[type, Var, object]] = []
    while isinstance(f, (Sup, Inf)):
        spine.append((type(f), f.var, f.intrinsic))
        f = f.body
    return spine, f


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
    bound = []
    while isinstance(node, _BINDERS):
        bound.append(node.var)
        node = node.body
    match node:
        case Arith(a) | Atom(a):
            out = _qf_vars(a)
        case Nat(v):
            out = frozenset((v,))
        case Guard(a, body) | Scale(a, body):
            out = _union(_qf_vars(a), _vars(body, free, memo))
        case Plus(l, r) | FOAnd(l, r) | FOOr(l, r) | FOImplies(l, r):
            out = _union(_vars(l, free, memo), _vars(r, free, memo))
        case FONot(arg):
            out = _vars(arg, free, memo)
        case _:
            raise TypeError(node)
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
    """Rational literals occurring anywhere in a term, guard or expectation.

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
        match n:
            case RatLit(q):
                found.add(q)
            case VarRef():
                pass
            case Arith(child) | Not(child) | Sup(_, child) | Inf(_, child):
                stack.append(child)
            case (Add(l, r) | Mul(l, r) | Monus(l, r) | Lt(l, r) | And(l, r)
                  | Guard(l, r) | Scale(l, r) | Plus(l, r)):
                stack.append(l)
                stack.append(r)
            case _:
                raise TypeError(n)
    return found


def is_quantifier_free(node) -> bool:
    """Whether an expectation or formula contains no quantifier.

    Iterative, and each distinct node is visited once.
    """
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        match n:
            case Sup() | Inf() | Exists() | Forall():
                return False
            case Arith() | Atom() | Nat():
                pass
            case Guard(_, child) | Scale(_, child) | FONot(child):
                stack.append(child)
            case Plus(l, r) | FOAnd(l, r) | FOOr(l, r) | FOImplies(l, r):
                stack.append(l)
                stack.append(r)
            case _:
                raise TypeError(n)
    return True


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

class SubstPlan:
    """Value of ``node`` with each mapped variable replaced by its term:
    ``node`` at ``sigma`` with every mapped variable bound, all at once, to
    its term's value at ``sigma`` (the substitution lemma).  Reads only the
    free variables of the substituted node."""

    def __init__(self, node: Exp, mapping: dict[Var, AExpr]):
        self.node = node
        self.mapping = mapping

    def __call__(self, sigma, rec):
        from .semantics import eval_aexpr

        bound = sigma
        for x, a in self.mapping.items():
            bound = bound.set(x, eval_aexpr(a, sigma))
        return rec(self.node, bound)


# A substitution context: (mapping, keys, keys' mask, results under it,
# contexts derived from it, the walk's free-variable memo).  The helpers do
# not close over each other, so a walk leaves no reference cycle behind.

def _context(m: dict[Var, AExpr], fv_memo: dict) -> tuple:
    keymask = 0
    for k in m:
        keymask |= _bit(k)
    return m, frozenset(m), keymask, {}, {}, fv_memo


def _derive(ctx: tuple, v: Var, v2: Var | None) -> tuple:
    """The mapping without ``v``, then with ``v`` renamed to ``v2``."""
    out = ctx[4].get((v, v2))
    if out is None:
        m = {k: a for k, a in ctx[0].items() if k != v}
        if v2 is not None:
            m[v] = VarRef(v2)
        out = ctx[4][v, v2] = _context(m, ctx[5])
    return out


def _subst_plan(g: Exp, ctx: tuple) -> SubstPlan | None:
    tag = g.intrinsic
    if isinstance(tag, SubstPlan):
        inner = {x: _walk(a, ctx) for x, a in tag.mapping.items()}
        return SubstPlan(tag.node, {**ctx[0], **inner})
    return None if tag is None else SubstPlan(g, ctx[0])


def _rebuilt(g: Exp, ctx: tuple, **changes) -> Exp:
    if all(getattr(g, name) is part for name, part in changes.items()):
        return g
    return replace(g, intrinsic=_subst_plan(g, ctx), **changes)


def _walk(g, ctx: tuple):
    m, keys, keymask, memo, _, _ = ctx
    if isinstance(g, _QF_TYPES):
        # a mask that misses the keys' mask proves that ``g`` mentions no
        # mapped variable; a hit may be a false positive, which a variable
        # set cached on ``g`` settles
        if not _mask(g) & keymask:
            return g
        known = getattr(g, "_vars", None)
        if known is not None and known.isdisjoint(keys):
            return g
    out = memo.get(id(g))
    if out is not None:
        return out
    match g:
        case VarRef(v):
            out = m.get(v, g)  # masks can only give false positives
        case Add(l, r) | Mul(l, r) | Monus(l, r) | Lt(l, r) | And(l, r):
            l2, r2 = _walk(l, ctx), _walk(r, ctx)
            out = g if l2 is l and r2 is r else type(g)(l2, r2)
        case Not(arg):
            a2 = _walk(arg, ctx)
            out = g if a2 is arg else Not(a2)
        case Arith(a):
            out = _rebuilt(g, ctx, expr=_walk(a, ctx))
        case Guard(cond, body):
            out = _rebuilt(g, ctx, cond=_walk(cond, ctx), body=_walk(body, ctx))
        case Plus(l, r):
            out = _rebuilt(g, ctx, left=_walk(l, ctx), right=_walk(r, ctx))
        case Scale(a, body):
            out = _rebuilt(g, ctx, factor=_walk(a, ctx), body=_walk(body, ctx))
        case Sup(_, _) | Inf(_, _):
            out = _under_binders(g, ctx)
        case _:
            raise TypeError(g)
    memo[id(g)] = out
    return out


def _under_binders(g: Exp, ctx: tuple) -> Exp:
    if _vars(g, True, ctx[5]).isdisjoint(ctx[1]):
        return g
    spine = []
    while isinstance(g, (Sup, Inf)):
        spine.append(g)
        g = g.body
    matrix_fv = _vars(g, True, ctx[5])
    below = Counter(b.var for b in spine)  # binders under the current one
    heads = []
    for b in spine:
        v, tag = b.var, _subst_plan(b, ctx)
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

    A bound variable that would capture a variable of an incoming term is
    renamed by priming; the renaming extends the mapping instead of
    copying the binder's body, so the walk visits only nodes of its input.
    Subtrees without a free mapped variable are returned as-is: a term or
    guard whose variable mask misses the mapped variables' bits is
    skipped, and a node is rebuilt only when a child changed.  A rebuilt
    tagged node gets one ``SubstPlan`` of the original node under the
    mapping in force there, renames included; a node with a ``SubstPlan``
    composes the mappings, so substitutions applied one after another keep
    one.  ``wp_loop_free`` makes one substitution per block of
    assignments, so composition serves blocks that branches separate.

    Results are memoized for the one walk, keyed on input nodes, which the
    caller keeps alive for the call, so shared subterms are substituted
    once.
    """
    if not mapping:
        return node
    return _walk(node, _context(dict(mapping), {}))


def subst_exp(f: Exp, x: Var, value: AExpr) -> Exp:
    """Capture-avoiding substitution of ``x`` by the term ``value``."""
    return substitute(f, {x: value})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_aexpr(a: AExpr, prec: int = 0) -> str:
    """Render a term; ``-`` denotes monus (subtraction truncated at zero).

    + and - are left-associative and share a precedence level; * binds
    tighter.
    """
    match a:
        case RatLit(q):
            return format_rat(q)
        case VarRef(v):
            return v.name
        case Add(l, r):
            s = f"{print_aexpr(l, 1)} + {print_aexpr(r, 2)}"
            return f"({s})" if prec > 1 else s
        case Monus(l, r):
            s = f"{print_aexpr(l, 1)} - {print_aexpr(r, 2)}"
            return f"({s})" if prec > 1 else s
        case Mul(l, r):
            s = f"{print_aexpr(l, 2)} * {print_aexpr(r, 3)}"
            return f"({s})" if prec > 2 else s
    raise TypeError(a)


def _comparison(phi: BExpr) -> str | None:
    """Recover sugared comparisons (=, <=, <) from the lowered core tree."""
    match phi:
        case And(Not(Lt(a1, b1)), Not(Lt(b2, a2))) if a1 == a2 and b1 == b2:
            return f"{print_aexpr(a1, 1)} = {print_aexpr(b1, 1)}"
        case Not(Lt(b, a)):
            return f"{print_aexpr(a, 1)} <= {print_aexpr(b, 1)}"
        case Lt(a, b):
            return f"{print_aexpr(a, 1)} < {print_aexpr(b, 1)}"
    return None


def print_bexpr(phi: BExpr, prec: int = 0) -> str:
    """Render a guard; = and <= are printed back from their lowered forms.

    Precedence levels: 1 = &&, 2 = ! and atoms; && is left-associative.
    """
    if phi == false_():
        return "false"
    if phi == true_():
        return "true"
    sugar = _comparison(phi)
    if sugar is not None:
        return sugar
    match phi:
        case And(l, r):
            s = f"{print_bexpr(l, 1)} && {print_bexpr(r, 2)}"
            return f"({s})" if prec > 1 else s
        case Not(arg):
            return f"!{print_bexpr(arg, 2)}"
    raise TypeError(phi)


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
                f"[{format_rat(p)}] {{\n{print_program(b, inner)}\n{indent}}}"
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


def print_exp(f: Exp, prec: int = 0) -> str:
    """Render an expectation.

    Precedence: quantifiers bind loosest (0), + next (1), * tightest (2);
    + is left-associative and * chains fold to the right.  Compound
    arithmetic leaves are parenthesized so they read back as single terms.
    """
    match f:
        case Arith(a):
            if isinstance(a, (RatLit, VarRef)):
                return print_aexpr(a)
            return f"({print_aexpr(a)})"
        case Guard(cond, body):
            s = f"[{print_bexpr(cond)}] * {print_exp(body, 2)}"
            return f"({s})" if prec > 2 else s
        case Scale(a, body):
            s = f"{print_aexpr(a, 3)} * {print_exp(body, 2)}"
            return f"({s})" if prec > 2 else s
        case Plus(l, r):
            s = f"{print_exp(l, 1)} + {print_exp(r, 2)}"
            return f"({s})" if prec > 1 else s
        case Sup(_, _) | Inf(_, _):
            spine, matrix = _peel_quantifiers(f)
            heads = "".join(
                f"{'sup' if ctor is Sup else 'inf'} {v.name}: " for ctor, v, _ in spine
            )
            s = heads + print_exp(matrix, 0)
            return f"({s})" if prec > 0 else s
    raise TypeError(f)


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
        if id(node) in sizes and sizes[id(node)] >= 0:
            continue
        children: list
        match node:
            case RatLit() | VarRef() | Var():
                sizes[id(node)] = 1
                continue
            case Arith(a):
                children = [a]
            case Guard(cond, body):
                children = [cond, body]
            case Plus(l, r) | Add(l, r) | Mul(l, r) | Monus(l, r) | And(l, r) | Lt(l, r):
                children = [l, r]
            case Scale(a, body):
                children = [a, body]
            case Sup(_, body) | Inf(_, body):
                children = [body]
            case Not(arg):
                children = [arg]
            case _:
                raise TypeError(node)
        if expanded:
            sizes[id(node)] = 1 + sum(sizes[id(c)] for c in children)
        else:
            sizes[id(node)] = -1
            stack.append((node, True))
            for child in children:
                if sizes.get(id(child), -1) < 0:
                    stack.append((child, False))
    return sizes[id(f)]


def print_fo(p: FOFormula, prec: int = 0) -> str:
    """Render a first-order formula.

    Precedence: quantifiers 0, -> 1 (right-assoc), || 2, && 3, ! / atoms 4.
    """
    match p:
        case Atom(pred):
            # Atoms print through the guard printer.  The parser builds
            # formula-level connectives, so round-tripping is guaranteed only
            # for atoms that are comparisons, true, or false.
            return print_bexpr(pred, 4)
        case Nat(v):
            return f"N({v.name})"
        case FOImplies(l, r):
            s = f"{print_fo(l, 2)} -> {print_fo(r, 1)}"
            return f"({s})" if prec > 1 else s
        case FOOr(l, r):
            s = f"{print_fo(l, 2)} || {print_fo(r, 3)}"
            return f"({s})" if prec > 2 else s
        case FOAnd(l, r):
            s = f"{print_fo(l, 3)} && {print_fo(r, 4)}"
            return f"({s})" if prec > 3 else s
        case FONot(arg):
            return f"!{print_fo(arg, 4)}"
        case Exists(_, _) | Forall(_, _):
            heads = []
            while isinstance(p, (Exists, Forall)):
                word = "exists" if isinstance(p, Exists) else "forall"
                heads.append(f"{word} {p.var.name}: ")
                p = p.body
            s = "".join(heads) + print_fo(p, 0)
            return f"({s})" if prec > 0 else s
    raise TypeError(p)
