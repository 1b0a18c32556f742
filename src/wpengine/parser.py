"""Concrete syntax for programs, expectations, and first-order formulas.

A hand-rolled tokenizer and recursive-descent parser.  A token keeps its
offset, from which an error computes its 1-based line and column.  ``-``
denotes monus (subtraction truncated at zero), since all values are
non-negative.  Comments run from ``//`` to end of line.

Grammar sketch::

    prog  ::= stmt (";" stmt)*
    stmt  ::= "skip" | var ":=" aexpr
            | "{" prog "}" "[" rat "]" "{" prog "}"
            | "if" cond "else" "{" prog "}" | "while" cond
    cond  ::= "(" bexpr ")" "{" prog "}"
    exp   ::= binder exp | eprod ("+" eprod)*
    eprod ::= ("[" bexpr "]" "*" | aexpr "*")* atom
    fo    ::= binder fo | imp(fo)
    bexpr ::= imp(bexpr)
    imp(a) ::= or(a) ("->" imp(a))?
    or(a)  ::= and(a) ("||" and(a))*
    and(a) ::= not(a) ("&&" not(a))*
    not(a) ::= "!" not(a) | atom(a)
    atom(a) ::= "true" | "false" | aexpr cmp aexpr | "(" a ")"
              | "N" "(" var ")"                      (formulas only)
    binder ::= ("sup" | "inf" | "forall" | "exists") var ":"
    state ::= (var "=" rat ("," var "=" rat)*)?

One rule, ``chain``, reads every left-associative operator.  Guards and
formulas share the ladder and the atom rule and differ in their table:
formulas build their own nodes, guards the lowered connective of each
(``syntax.GUARD_OF``).  ``sup``/``inf`` bind expectations and
``forall``/``exists`` formulas.  ``*`` binds tighter than ``+`` and
quantifiers bind loosest.  A product of two non-arithmetic expectations is
rejected with ``IllegalProduct``.  Reserved ``$``-prefixed names are allowed
in expectations (they are used by generated helper terms) but rejected in
programs.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import syntax as s
from .errors import IllegalProduct, ParseError
from .semantics import State
from .syntax import (
    AExpr,
    Arith,
    BExpr,
    Exp,
    FOFormula,
    Guard,
    Plus,
    Program,
    Scale,
    Var,
)
from .xreal import XReal, ZERO

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|//[^\n]*)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<ident>\$?[a-zA-Z_][a-zA-Z0-9_']*)
  | (?P<op>:=|<=|>=|&&|\|\||->|[;{}\[\]()+\-*<>=!:,/])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"skip", "if", "else", "while", "sup", "inf", "true", "false",
             "forall", "exists"}

_QUANTIFIERS = {"sup": s.Sup, "inf": s.Inf, "forall": s.Forall, "exists": s.Exists}

_COMPARISONS = {"<": s.Lt, "<=": s.le_, "=": s.eq_,
                ">": lambda a, b: s.Lt(b, a), ">=": lambda a, b: s.le_(b, a)}

# what ``chain`` folds each operator into, outside the connective ladder
_ARITH = {"+": s.Add, "-": s.Monus, "*": s.Mul}
_SUMS = {"+": Plus}
_MERGE = {",": operator.or_}


class Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    offset: int


class _Failure(Exception):
    """A failed rule's ``(message, offset)``, positioned if it escapes ``_parse``."""


def _error_at(text: str, message: str, offset: int) -> ParseError:
    """The error ``message`` at the 1-based line and column of ``offset``."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _error_at(text, f"unexpected character {m.group()!r}", m.start())
        if kind != "skip":
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> _Failure:
        return _Failure(message, self.cur.offset)

    def at(self, *texts: str) -> bool:
        # the texts of an operator, a word and a number never coincide
        return self.cur.text in texts

    def advance(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> Token:
        if self.cur.text != text:
            raise self.error(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def expect_eof(self):
        if self.cur.kind != "eof":
            raise self.error(f"trailing input starting at {self.cur.text!r}")

    def ident(self, allow_reserved: bool = True) -> Var:
        if self.cur.kind != "ident" or self.cur.text in _KEYWORDS:
            raise self.error(f"expected identifier, found {self.cur.text!r}")
        if not allow_reserved and self.cur.text.startswith("$"):
            raise self.error(f"reserved name {self.cur.text!r} not allowed here")
        return Var(self.advance().text)

    def number(self) -> Fraction:
        if self.cur.kind != "num":
            raise self.error(f"expected a rational, found {self.cur.text!r}")
        num, _, den = self.cur.text.partition("/")
        if den and int(den) == 0:
            raise self.error("zero denominator")
        self.pos += 1
        return Fraction(int(num), int(den or 1))

    def chain(self, operand, ops: dict, *names: str):
        """``operand (op operand)*`` for the operators ``names``, folded to
        the left with the constructor ``ops[op]`` of each."""
        left = operand()
        while self.at(*names):
            left = ops[self.advance().text](left, operand())
        return left

    # -- arithmetic --------------------------------------------------------

    def aexpr(self) -> AExpr:
        return self.chain(self.aterm, _ARITH, "+", "-")

    def aterm(self) -> AExpr:
        return self.chain(self.afactor, _ARITH, "*")

    def afactor(self) -> AExpr:
        if self.cur.kind == "num":
            return s.RatLit(self.number())
        if self.at("("):
            self.advance()
            inner = self.aexpr()
            self.expect(")")
            return inner
        return s.VarRef(self.ident())

    # -- guards and formulas: one connective ladder, one atom rule -----------

    def bexpr(self) -> BExpr:
        return self.implication(_GUARDS)

    def implication(self, ops: dict):
        left = self.chain(partial(self.conjunction, ops), ops, "||")
        if self.at("->"):
            self.advance()
            return ops["->"](left, self.implication(ops))
        return left

    def conjunction(self, ops: dict):
        return self.chain(partial(self.negation, ops), ops, "&&")

    def negation(self, ops: dict):
        if self.at("!"):
            self.advance()
            return ops["!"](self.negation(ops))
        return self.atom(ops)

    def atom(self, ops: dict):
        """``N(v)`` where the syntax has it, ``true``, ``false``, a
        comparison, or a parenthesized guard or formula."""
        if ops["N"] and self.at("N") and self.tokens[self.pos + 1].text == "(":
            self.pos += 2
            var = self.ident()
            self.expect(")")
            return ops["N"](var)
        if self.at("true", "false"):
            atom = s.true_() if self.advance().text == "true" else s.false_()
        else:
            atom = self.try_comparison()
        if atom is not None:
            return ops["atom"](atom)
        if self.at("("):
            self.advance()
            inner = ops["("](self)
            self.expect(")")
            return inner
        raise self.error(f"expected {ops['noun']}, found {self.cur.text!r}")

    def try_comparison(self) -> BExpr | None:
        mark = self.pos
        try:
            left = self.aexpr()
            if not self.at(*_COMPARISONS):
                raise self.error("expected a comparison operator")
            make = _COMPARISONS[self.advance().text]
            right = self.aexpr()
        except _Failure:
            self.pos = mark
            return None
        return make(left, right)

    def binder(self, body):
        """``word var ":" body`` for the quantifier word at the cursor."""
        quant = _QUANTIFIERS[self.advance().text]
        var = self.ident()
        self.expect(":")
        return quant(var, body())

    # -- programs ------------------------------------------------------------

    def program(self) -> Program:
        # a loop, not recursion, so a long ``;`` chain parses at any length
        statements = [self.statement()]
        while self.at(";"):
            self.advance()
            statements.append(self.statement())
        prog = statements.pop()
        while statements:
            prog = s.Seq(statements.pop(), prog)
        return prog

    def statement(self) -> Program:
        if self.at("skip"):
            self.advance()
            return s.Skip()
        if self.at("if"):
            cond, then = self.conditional()
            self.expect("else")
            return s.Ite(cond, then, self.braced_program())
        if self.at("while"):
            return s.While(*self.conditional())
        if self.at("{"):
            left = self.braced_program()
            self.expect("[")
            prob = self.number()
            self.expect("]")
            right = self.braced_program()
            return s.PChoice(left, prob, right)
        var = self.ident(allow_reserved=False)
        self.expect(":=")
        return s.Assign(var, self.aexpr())

    def conditional(self) -> tuple[BExpr, Program]:
        """``cond`` after the ``if`` or ``while`` at the cursor."""
        self.advance()
        self.expect("(")
        cond = self.bexpr()
        self.expect(")")
        return cond, self.braced_program()

    def braced_program(self) -> Program:
        self.expect("{")
        prog = self.program()
        self.expect("}")
        return prog

    # -- expectations --------------------------------------------------------

    def exp(self) -> Exp:
        if self.at("sup", "inf"):
            return self.binder(self.exp)
        return self.chain(self.eproduct, _SUMS, "+")

    def eproduct(self) -> Exp:
        """A ``*``-chain of guards, scalars, and a trailing expectation.

        The chain folds to the right; every factor but the last must be an
        Iverson guard or an arithmetic term.
        """
        factors: list[tuple[str, object]] = [self.efactor()]
        while self.at("*"):
            self.advance()
            factors.append(self.efactor())
        kind, last = factors[-1]
        if kind == "guard":
            raise self.error("a guard must be followed by '*' and an expectation")
        acc = last if kind == "exp" else Arith(last)
        for kind, item in reversed(factors[:-1]):
            if kind == "guard":
                acc = Guard(item, acc)
                continue
            term = item if kind == "aexpr" else _as_aexpr(item)
            if term is None:
                raise IllegalProduct(
                    "only guards and arithmetic terms may multiply an expectation"
                )
            acc = Scale(term, acc)
        return acc

    def efactor(self) -> tuple[str, object]:
        """One ``*``-chain element: ('guard', BExpr) | ('aexpr', AExpr) | ('exp', Exp)."""
        if self.at("["):
            self.advance()
            cond = self.bexpr()
            self.expect("]")
            return ("guard", cond)
        if self.at("sup", "inf"):
            return ("exp", self.exp())
        if self.cur.kind == "num":
            value = self.number()
            if self.at("/"):
                # r / x: reciprocal-style shorthand for sup w: [w * x = r] * w
                self.advance()
                var = self.ident()
                return ("exp", reciprocal_exp(value, var))
            return ("aexpr", s.RatLit(value))
        if self.at("("):
            # parenthesized factors parse as expectations (the chain folding
            # views purely arithmetic ones as terms when they multiply); a
            # monus chain is not an expectation, so fall back to arithmetic
            mark = self.pos
            self.advance()
            try:
                exp = self.exp()
                self.expect(")")
                return ("exp", exp)
            except _Failure:
                self.pos = mark
            self.advance()
            inner = self.aexpr()
            self.expect(")")
            return ("aexpr", inner)
        return ("aexpr", s.VarRef(self.ident()))

    # -- first-order formulas and states -------------------------------------

    def fo(self) -> FOFormula:
        if self.at("forall", "exists"):
            return self.binder(self.fo)
        return self.implication(_FORMULAS)

    def bindings(self) -> dict:
        """Comma-separated ``var "=" rat`` bindings, the later of two
        bindings of one variable winning; none at end of input."""
        if self.cur.kind == "eof":
            return {}
        return self.chain(self.binding, _MERGE, ",")

    def binding(self) -> dict:
        var = self.ident()
        self.expect("=")
        return {var: self.number()}


# The connective ladder of each syntax: the constructor of each rung's
# operator, what makes a comparison or constant an atom, the rule inside
# parentheses, the noun of the atom error, and the constructor of ``N(v)``,
# which only formulas read.
_RUNGS = {"->": s.FOImplies, "||": s.FOOr, "&&": s.FOAnd, "!": s.FONot}
_FORMULAS = {**_RUNGS, "atom": s.Atom, "(": _Parser.fo, "noun": "a formula",
             "N": s.Nat}
_GUARDS = {**{op: s.GUARD_OF[c] for op, c in _RUNGS.items()}, "atom": lambda g: g,
           "(": _Parser.bexpr, "noun": "a comparison", "N": None}


def _as_aexpr(f: Exp) -> AExpr | None:
    """View a purely arithmetic expectation as a term, if possible."""
    match f:
        case Arith(a):
            return a
        case Plus(l, r):
            left, right = _as_aexpr(l), _as_aexpr(r)
            if left is None or right is None:
                return None
            return s.Add(left, right)
        case Scale(a, body):
            inner = _as_aexpr(body)
            return None if inner is None else s.Mul(a, inner)
    return None


def reciprocal_exp(value: Fraction, var: Var) -> Exp:
    """``value / var`` encoded as ``sup w: [w * var = value] * w``.

    Its plan reads only ``var``, the one free variable of its node: inf at
    0 / 0 (every witness satisfies ``w * 0 = 0``), 0 at value / 0 (none
    does)."""
    w = s.fresh_var({var}, base="$w")
    body = Guard(s.eq_(s.Mul(s.VarRef(w), s.VarRef(var)), s.RatLit(value)),
                 Arith(s.VarRef(w)))

    def reciprocal_plan(sigma: State, rec) -> XReal:
        denom = sigma[var]
        if denom == 0:
            return XReal.INF if value == 0 else ZERO
        return value / denom

    return s.with_intrinsic(s.Sup(w, body), reciprocal_plan)


def _parse(text: str, rule):
    """Run ``rule`` over the whole of ``text``."""
    parser = _Parser(text)
    try:
        result = rule(parser)
        parser.expect_eof()
    except _Failure as failure:
        raise _error_at(text, *failure.args) from None
    return result


def parse_program(text: str) -> Program:
    return _parse(text, _Parser.program)


def parse_exp(text: str) -> Exp:
    return _parse(text, _Parser.exp)


def parse_bexpr(text: str) -> BExpr:
    return _parse(text, _Parser.bexpr)


def parse_aexpr(text: str) -> AExpr:
    return _parse(text, _Parser.aexpr)


def parse_fo(text: str) -> FOFormula:
    return _parse(text, _Parser.fo)


def parse_state(text: str) -> State:
    """Parse comma-separated ``var=p/q`` bindings; unmentioned variables are 0."""
    return State(_parse(text, _Parser.bindings))
