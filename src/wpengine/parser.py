"""Concrete syntax for programs, expectations, and first-order formulas.

A hand-rolled tokenizer and recursive-descent parser with 1-based
line/column error reporting.  ``-`` denotes monus (subtraction truncated at
zero), since all values are non-negative.  Comments run from ``//`` to end
of line.

Grammar sketch::

    prog  ::= stmt (";" stmt)*
    stmt  ::= "skip" | var ":=" aexpr
            | "{" prog "}" "[" rat "]" "{" prog "}"
            | "if" "(" bexpr ")" "{" prog "}" "else" "{" prog "}"
            | "while" "(" bexpr ")" "{" prog "}"
    exp   ::= binder exp | eprod ("+" eprod)*
    eprod ::= ("[" bexpr "]" "*" | aexpr "*")* atom
    fo    ::= binder fo | imp(fatom)
    bexpr ::= imp(batom)
    imp(a) ::= or(a) ("->" imp(a))?
    or(a)  ::= and(a) ("||" and(a))*
    and(a) ::= not(a) ("&&" not(a))*
    not(a) ::= "!" not(a) | a
    batom ::= "true" | "false" | aexpr cmp aexpr | "(" bexpr ")"
    fatom ::= "true" | "false" | "N" "(" var ")" | aexpr cmp aexpr | "(" fo ")"
    binder ::= ("sup" | "inf" | "forall" | "exists") var ":"

Guards and formulas climb one connective ladder and differ in their atoms
and constructors: formulas build their own connective nodes, guards the
lowered connective of each (``syntax.GUARD_OF``).  The binder rule serves
all four quantifier words; ``sup``/``inf`` bind expectations and
``forall``/``exists`` formulas.  ``*`` binds tighter than ``+`` and
quantifiers bind loosest.  A product of
two non-arithmetic expectations is rejected with ``IllegalProduct``.
Reserved ``$``-prefixed names are allowed in expectations (they are used by
generated helper terms) but rejected in programs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<ident>\$?[a-zA-Z_][a-zA-Z0-9_']*)
  | (?P<op>:=|<=|>=|&&|\|\||->|[;{}\[\]()+\-*<>=!:,/])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"skip", "if", "else", "while", "sup", "inf", "true", "false",
             "forall", "exists"}

_QUANTIFIERS = {"sup": s.Sup, "inf": s.Inf, "forall": s.Forall, "exists": s.Exists}


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.column)

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def at_word(self, *words: str) -> bool:
        return self.cur.kind == "ident" and self.cur.text in words

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            raise self.error(f"expected {op!r}, found {self.cur.text!r}")
        return self.advance()

    def expect_word(self, word: str) -> Token:
        if not self.at_word(word):
            raise self.error(f"expected {word!r}, found {self.cur.text!r}")
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
        text = self.advance().text
        if "/" in text:
            num, _, den = text.partition("/")
            if int(den) == 0:
                raise self.error("zero denominator")
            return Fraction(int(num), int(den))
        return Fraction(int(text))

    # -- arithmetic --------------------------------------------------------

    def aexpr(self) -> AExpr:
        left = self.aterm()
        while self.at_op("+", "-"):
            op = self.advance().text
            right = self.aterm()
            left = s.Add(left, right) if op == "+" else s.Monus(left, right)
        return left

    def aterm(self) -> AExpr:
        left = self.afactor()
        while self.at_op("*"):
            self.advance()
            left = s.Mul(left, self.afactor())
        return left

    def afactor(self) -> AExpr:
        if self.cur.kind == "num":
            return s.RatLit(self.number())
        if self.at_op("("):
            self.advance()
            inner = self.aexpr()
            self.expect_op(")")
            return inner
        return s.VarRef(self.ident())

    # -- guards and formulas: one connective ladder, one binder rule ----------

    def bexpr(self) -> BExpr:
        return self.implication(_GUARDS)

    def implication(self, ops: dict):
        left = self.disjunction(ops)
        if self.at_op("->"):
            self.advance()
            return ops["->"](left, self.implication(ops))
        return left

    def disjunction(self, ops: dict):
        left = self.conjunction(ops)
        while self.at_op("||"):
            self.advance()
            left = ops["||"](left, self.conjunction(ops))
        return left

    def conjunction(self, ops: dict):
        left = self.negation(ops)
        while self.at_op("&&"):
            self.advance()
            left = ops["&&"](left, self.negation(ops))
        return left

    def negation(self, ops: dict):
        if self.at_op("!"):
            self.advance()
            return ops["!"](self.negation(ops))
        return ops["atom"](self)

    def binder(self, body):
        """``word var ":" body`` for the quantifier word at the cursor."""
        quant = _QUANTIFIERS[self.advance().text]
        var = self.ident()
        self.expect_op(":")
        return quant(var, body())

    def batom(self) -> BExpr:
        if self.at_word("true"):
            self.advance()
            return s.true_()
        if self.at_word("false"):
            self.advance()
            return s.false_()
        cmp = self.try_comparison()
        if cmp is not None:
            return cmp
        if self.at_op("("):
            self.advance()
            inner = self.bexpr()
            self.expect_op(")")
            return inner
        raise self.error(f"expected a comparison, found {self.cur.text!r}")

    def try_comparison(self) -> BExpr | None:
        mark = self.pos
        try:
            left = self.aexpr()
            if not self.at_op("<", "<=", "=", ">=", ">"):
                raise self.error("expected a comparison operator")
            op = self.advance().text
            right = self.aexpr()
        except ParseError:
            self.pos = mark
            return None
        match op:
            case "<":
                return s.Lt(left, right)
            case "<=":
                return s.le_(left, right)
            case "=":
                return s.eq_(left, right)
            case ">":
                return s.Lt(right, left)
            case ">=":
                return s.le_(right, left)
        raise AssertionError(op)

    # -- programs ------------------------------------------------------------

    def program(self) -> Program:
        # a loop, not recursion, so a long ``;`` chain parses at any length
        statements = [self.statement()]
        while self.at_op(";"):
            self.advance()
            statements.append(self.statement())
        prog = statements.pop()
        while statements:
            prog = s.Seq(statements.pop(), prog)
        return prog

    def statement(self) -> Program:
        if self.at_word("skip"):
            self.advance()
            return s.Skip()
        if self.at_word("if"):
            self.advance()
            self.expect_op("(")
            cond = self.bexpr()
            self.expect_op(")")
            then = self.braced_program()
            self.expect_word("else")
            orelse = self.braced_program()
            return s.Ite(cond, then, orelse)
        if self.at_word("while"):
            self.advance()
            self.expect_op("(")
            cond = self.bexpr()
            self.expect_op(")")
            return s.While(cond, self.braced_program())
        if self.at_op("{"):
            left = self.braced_program()
            self.expect_op("[")
            prob = self.number()
            self.expect_op("]")
            right = self.braced_program()
            return s.PChoice(left, prob, right)
        var = self.ident(allow_reserved=False)
        self.expect_op(":=")
        return s.Assign(var, self.aexpr())

    def braced_program(self) -> Program:
        self.expect_op("{")
        prog = self.program()
        self.expect_op("}")
        return prog

    # -- expectations --------------------------------------------------------

    def exp(self) -> Exp:
        if self.at_word("sup", "inf"):
            return self.binder(self.exp)
        left = self.eproduct()
        while self.at_op("+"):
            self.advance()
            left = Plus(left, self.eproduct())
        return left

    def eproduct(self) -> Exp:
        """A ``*``-chain of guards, scalars, and a trailing expectation.

        The chain folds to the right; every factor but the last must be an
        Iverson guard or an arithmetic term.
        """
        factors: list[tuple[str, object]] = [self.efactor()]
        while self.at_op("*"):
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
        if self.at_op("["):
            self.advance()
            cond = self.bexpr()
            self.expect_op("]")
            return ("guard", cond)
        if self.at_word("sup", "inf"):
            return ("exp", self.exp())
        if self.cur.kind == "num":
            value = self.number()
            if self.at_op("/"):
                # r / x: reciprocal-style shorthand for sup w: [w * x = r] * w
                self.advance()
                var = self.ident()
                return ("exp", reciprocal_exp(value, var))
            return ("aexpr", s.RatLit(value))
        if self.at_op("("):
            # parenthesized factors parse as expectations (the chain folding
            # views purely arithmetic ones as terms when they multiply); a
            # monus chain is not an expectation, so fall back to arithmetic
            mark = self.pos
            self.advance()
            try:
                exp = self.exp()
                self.expect_op(")")
                return ("exp", exp)
            except ParseError:
                self.pos = mark
            self.advance()
            inner = self.aexpr()
            self.expect_op(")")
            return ("aexpr", inner)
        return ("aexpr", s.VarRef(self.ident()))

    # -- first-order formulas -------------------------------------------------

    def fo(self) -> FOFormula:
        if self.at_word("forall", "exists"):
            return self.binder(self.fo)
        return self.implication(_FORMULAS)

    def fo_atom(self) -> FOFormula:
        if self.at_word("true"):
            self.advance()
            return s.Atom(s.true_())
        if self.at_word("false"):
            self.advance()
            return s.Atom(s.false_())
        if (
            self.cur.kind == "ident"
            and self.cur.text == "N"
            and self.tokens[self.pos + 1].kind == "op"
            and self.tokens[self.pos + 1].text == "("
        ):
            self.advance()
            self.expect_op("(")
            var = self.ident()
            self.expect_op(")")
            return s.Nat(var)
        cmp = self.try_comparison()
        if cmp is not None:
            return s.Atom(cmp)
        if self.at_op("("):
            self.advance()
            inner = self.fo()
            self.expect_op(")")
            return inner
        raise self.error(f"expected a formula, found {self.cur.text!r}")


# The connective ladder of each syntax: the constructor of each rung's
# operator, and the rule for its atoms.
_RUNGS = {"->": s.FOImplies, "||": s.FOOr, "&&": s.FOAnd, "!": s.FONot}
_FORMULAS = {**_RUNGS, "atom": _Parser.fo_atom}
_GUARDS = {**{op: s.GUARD_OF[c] for op, c in _RUNGS.items()}, "atom": _Parser.batom}


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
        return XReal.of(value / denom)

    return s.with_intrinsic(s.Sup(w, body), reciprocal_plan)


def parse_program(text: str) -> Program:
    parser = _Parser(text)
    prog = parser.program()
    parser.expect_eof()
    return prog


def parse_exp(text: str) -> Exp:
    parser = _Parser(text)
    exp = parser.exp()
    parser.expect_eof()
    return exp


def parse_bexpr(text: str) -> BExpr:
    parser = _Parser(text)
    phi = parser.bexpr()
    parser.expect_eof()
    return phi


def parse_aexpr(text: str) -> AExpr:
    parser = _Parser(text)
    a = parser.aexpr()
    parser.expect_eof()
    return a


def parse_fo(text: str) -> FOFormula:
    parser = _Parser(text)
    p = parser.fo()
    parser.expect_eof()
    return p


def parse_state(text: str) -> State:
    """Parse comma-separated ``var=p/q`` bindings; unmentioned variables are 0."""
    bindings = {}
    text = text.strip()
    if not text:
        return State()
    for part in text.split(","):
        parser = _Parser(part)
        var = parser.ident()
        parser.expect_op("=")
        value = parser.number()
        parser.expect_eof()
        bindings[var] = value
    return State(bindings)
