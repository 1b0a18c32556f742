"""Pinned parser results: trees, printed text and parse errors.

A fixed corpus of terms, guards, expectations, formulas and one program,
each with the exact tree the parser builds (compared with ``==``) and the
text the printer gives back; and a fixed set of bad inputs, each with the
exact message and ``line:column`` of the ``ParseError`` that every entry
point raises on it.  Guards and formulas share their connective ladder and
the four quantifier words share their binder rule, so these pins check
that both syntaxes keep their own constructors, atoms and messages.
Positions are pinned past the first line too, at end of input, at a
rational with a zero denominator and across the bindings of a state.
"""

from fractions import Fraction as F

import pytest

from wpengine.cli import main
from wpengine.errors import ParseError
from wpengine.parser import (
    parse_aexpr,
    parse_bexpr,
    parse_exp,
    parse_fo,
    parse_program,
    parse_state,
)
from wpengine.syntax import (
    Add,
    And,
    Arith,
    Assign,
    Atom,
    Exists,
    FOAnd,
    FOImplies,
    FONot,
    FOOr,
    Forall,
    Guard,
    Inf,
    Ite,
    Lt,
    Monus,
    Mul,
    Nat,
    Not,
    PChoice,
    Plus,
    RatLit,
    Scale,
    Seq,
    Skip,
    Sup,
    Var,
    VarRef,
    While,
    print_aexpr,
    print_bexpr,
    print_exp,
    print_fo,
    print_program,
)


def V(name: str) -> VarRef:
    return VarRef(Var(name))


def R(num: int, den: int = 1) -> RatLit:
    return RatLit(F(num, den))


PARSE = {"aexpr": parse_aexpr, "bexpr": parse_bexpr, "exp": parse_exp,
         "fo": parse_fo, "program": parse_program}
PRINT = {"aexpr": print_aexpr, "bexpr": print_bexpr, "exp": print_exp,
         "fo": print_fo, "program": print_program}

CORPUS = [
    ("aexpr", "x + 2 * y - 1/3",
     Monus(Add(V("x"), Mul(R(2), V("y"))), R(1, 3)),
     "x + 2 * y - 1/3"),
    ("aexpr", "(x - y) * (z + 0)",
     Mul(Monus(V("x"), V("y")), Add(V("z"), R(0))),
     "(x - y) * (z + 0)"),
    ("bexpr", "x < 1 && !(y >= 2) || z = 0 -> true",
     Not(And(Not(And(Not(And(Lt(V("x"), R(1)), Not(Not(Lt(V("y"), R(2)))))),
                     Not(And(Not(Lt(V("z"), R(0))), Not(Lt(R(0), V("z"))))))),
             Not(Not(Lt(R(0), R(0)))))),
     "!(!(!(x < 1 && !2 <= y) && !z = 0) && !true)"),
    ("bexpr", "!!(x <= y) && false || (x < 1 -> y > 2) -> z < 3 -> z < 4",
     Not(And(Not(And(Not(And(Not(Not(Not(Lt(V("y"), V("x"))))), Lt(R(0), R(0)))),
                     Not(Not(And(Lt(V("x"), R(1)), Not(Lt(R(2), V("y")))))))),
             Not(Not(And(Lt(V("z"), R(3)), Not(Lt(V("z"), R(4)))))))),
     "!(!(!(!!x <= y && false) && !!(x < 1 && y <= 2)) && !!(z < 3 && 4 <= z))"),
    ("exp", "sup v: [v < x] * v + 2 * (y + 1)",
     Sup(Var("v"), Plus(Guard(Lt(V("v"), V("x")), Arith(V("v"))),
                        Scale(R(2), Plus(Arith(V("y")), Arith(R(1)))))),
     "sup v: [v < x] * v + 2 * (y + 1)"),
    ("exp", "inf w: 1/2 * [x = w] * w",
     Inf(Var("w"), Scale(R(1, 2), Guard(And(Not(Lt(V("x"), V("w"))), Not(Lt(V("w"), V("x")))),
                                        Arith(V("w"))))),
     "inf w: 1/2 * [x = w] * w"),
    ("exp", "[x < 1 -> y < 1 || y = 2] * (sup v: v) + 3 * 2/x",
     Plus(Guard(Not(And(Lt(V("x"), R(1)),
                        Not(Not(And(Not(Lt(V("y"), R(1))),
                                    Not(And(Not(Lt(V("y"), R(2))), Not(Lt(R(2), V("y")))))))))),
                Sup(Var("v"), Arith(V("v")))),
          Scale(R(3), Sup(Var("$w"), Guard(And(Not(Lt(Mul(V("$w"), V("x")), R(2))),
                                               Not(Lt(R(2), Mul(V("$w"), V("x"))))),
                                           Arith(V("$w")))))),
     "[!(x < 1 && !!(1 <= y && !y = 2))] * (sup v: v) + 3 * (sup $w: [$w * x = 2] * $w)"),
    ("fo", "forall u: exists w: N(u) && !(u < w) -> w = 1 || false",
     Forall(Var("u"), Exists(Var("w"), FOImplies(
         FOAnd(Nat(Var("u")), FONot(Atom(Lt(V("u"), V("w"))))),
         FOOr(Atom(And(Not(Lt(V("w"), R(1))), Not(Lt(R(1), V("w"))))), Atom(Lt(R(0), R(0))))))),
     "forall u: exists w: N(u) && !u < w -> w = 1 || false"),
    ("fo", "exists v: (forall w: w < v) -> !N(v) && (true || v <= 2)",
     Exists(Var("v"), FOImplies(Forall(Var("w"), Atom(Lt(V("w"), V("v")))),
                                FOAnd(FONot(Nat(Var("v"))),
                                      FOOr(Atom(Not(Lt(R(0), R(0)))), Atom(Not(Lt(R(2), V("v")))))))),
     "exists v: (forall w: w < v) -> !N(v) && (true || v <= 2)"),
    ("fo", "x < 1 -> y < 2 -> !!(z < 3) || (x + 1 < y * 2 && N(x))",
     FOImplies(Atom(Lt(V("x"), R(1))), FOImplies(Atom(Lt(V("y"), R(2))), FOOr(
         FONot(FONot(Atom(Lt(V("z"), R(3))))),
         FOAnd(Atom(Lt(Add(V("x"), R(1)), Mul(V("y"), R(2)))), Nat(Var("x")))))),
     "x < 1 -> y < 2 -> !!z < 3 || x + 1 < y * 2 && N(x)"),
    ("program", "if (x < 1 || y > 2) { x := x + 1 } else { {y := 1/2} [1/3] {skip} }; "
                "while (!(x = 3)) { x := x * 2 - 1 }",
     Seq(Ite(Not(And(Not(Lt(V("x"), R(1))), Not(Lt(R(2), V("y"))))),
             Assign(Var("x"), Add(V("x"), R(1))),
             PChoice(Assign(Var("y"), R(1, 2)), F(1, 3), Skip())),
         While(Not(And(Not(Lt(V("x"), R(3))), Not(Lt(R(3), V("x"))))),
               Assign(Var("x"), Monus(Mul(V("x"), R(2)), R(1))))),
     "if (!(1 <= x && y <= 2)) {\n  x := x + 1\n} else {\n  {\n    y := 1/2\n  } [1/3] {\n"
     "    skip\n  }\n};\nwhile (!x = 3) {\n  x := x * 2 - 1\n}"),
]


@pytest.mark.parametrize("kind, text, tree, printed", CORPUS)
def test_parse_tree_and_printed_text(kind, text, tree, printed):
    got = PARSE[kind](text)
    assert got == tree
    assert PRINT[kind](got) == printed


BAD = ["x <", "[x < 1 * 2", "sup : x", "exists v v < 1", "N(1)", "x < 1 ->", "(x < 1",
       "!", "x && y", "x < 1 -> forall v: v < 1", "[x < 1 -> sup v: v] * 1"]

# for each entry point, the message of each input in ``BAD``, in order
ERRORS = {
    "exp": [
        "1:3: trailing input starting at '<'",
        "1:11: expected ']', found ''",
        "1:5: expected identifier, found ':'",
        "1:1: expected identifier, found 'exists'",
        "1:2: trailing input starting at '('",
        "1:3: trailing input starting at '<'",
        "1:4: expected ')', found '<'",
        "1:1: expected identifier, found '!'",
        "1:3: trailing input starting at '&&'",
        "1:3: trailing input starting at '<'",
        "1:11: expected a comparison, found 'sup'",
    ],
    "bexpr": [
        "1:1: expected a comparison, found 'x'",
        "1:1: expected a comparison, found '['",
        "1:1: expected a comparison, found 'sup'",
        "1:1: expected a comparison, found 'exists'",
        "1:1: expected a comparison, found 'N'",
        "1:9: expected a comparison, found ''",
        "1:7: expected ')', found ''",
        "1:2: expected a comparison, found ''",
        "1:1: expected a comparison, found 'x'",
        "1:10: expected a comparison, found 'forall'",
        "1:1: expected a comparison, found '['",
    ],
    "fo": [
        "1:1: expected a formula, found 'x'",
        "1:1: expected a formula, found '['",
        "1:1: expected a formula, found 'sup'",
        "1:10: expected ':', found 'v'",
        "1:3: expected identifier, found '1'",
        "1:9: expected a formula, found ''",
        "1:7: expected ')', found ''",
        "1:2: expected a formula, found ''",
        "1:1: expected a formula, found 'x'",
        "1:10: expected a formula, found 'forall'",
        "1:1: expected a formula, found '['",
    ],
    "program": [
        "1:3: expected ':=', found '<'",
        "1:1: expected identifier, found '['",
        "1:1: expected identifier, found 'sup'",
        "1:1: expected identifier, found 'exists'",
        "1:2: expected ':=', found '('",
        "1:3: expected ':=', found '<'",
        "1:1: expected identifier, found '('",
        "1:1: expected identifier, found '!'",
        "1:3: expected ':=', found '&&'",
        "1:3: expected ':=', found '<'",
        "1:1: expected identifier, found '['",
    ],
}


@pytest.mark.parametrize("kind", sorted(ERRORS))
def test_parse_error_messages_and_positions(kind):
    for text, want in zip(BAD, ERRORS[kind], strict=True):
        with pytest.raises(ParseError) as err:
            PARSE[kind](text)
        position, _, _ = want.partition(": ")
        line, column = map(int, position.split(":"))
        assert (str(err.value), err.value.line, err.value.column) == (want, line, column), text


# (entry point, text, message): positions on later lines, at end of input,
# at the rational itself, and within the whole text of a state
POSITIONS = [
    (parse_program, "// first line\n  x := 1;\ny := x # 2", "3:8: unexpected character '#'"),
    (parse_exp, "x +\n", "2:1: expected identifier, found ''"),
    (parse_program, "x := 1;\n", "2:1: expected identifier, found ''"),
    (parse_program, "x := 1/0", "1:6: zero denominator"),
    (parse_exp, "3/0 * x", "1:1: zero denominator"),
    (parse_state, "c=1,x=", "1:7: expected a rational, found ''"),
    (parse_state, "c=1,\n  x=2/0", "2:5: zero denominator"),
    (parse_state, "c=1,,x=2", "1:5: expected identifier, found ','"),
    (parse_state, "c=1 x=2", "1:5: trailing input starting at 'x'"),
]


@pytest.mark.parametrize("parse, text, want", POSITIONS)
def test_error_positions(parse, text, want):
    with pytest.raises(ParseError) as err:
        parse(text)
    line, column = map(int, want.split(": ")[0].split(":"))
    assert (str(err.value), err.value.line, err.value.column) == (want, line, column)


def test_state_binds_the_whole_text():
    assert parse_state(" c = 1 ,\n x=7/2, c=3 ") == parse_state("x=7/2,c=3")
    assert parse_state("  // nothing bound\n") == parse_state("")


def test_cli_at_error_position(capsys, tmp_path):
    prog = tmp_path / "p.pgcl"
    prog.write_text("x := x + 1")
    assert main(["wp", "-p", str(prog), "-f", "x", "--at", "c=1,x="]) == 2
    assert capsys.readouterr().err == "parse error: 1:7: expected a rational, found ''\n"
