"""Per-statement backward transformer: the test-only reference for
``wpengine.wp.wp_loop_free``.

It reads the rules one statement at a time: one substitution per
assignment, one recursion per ``Seq``.  ``wp_loop_free`` walks the
statements once and substitutes a whole block of assignments at once, and
is fuzzed against this reference.
"""

from wpengine.syntax import (
    Assign,
    Guard,
    Ite,
    Not,
    PChoice,
    Plus,
    RatLit,
    Scale,
    Seq,
    Skip,
    subst_exp,
)


def wp_per_statement(prog, post):
    match prog:
        case Skip():
            return post
        case Assign(var, expr):
            return subst_exp(post, var, expr)
        case Seq(first, second):
            return wp_per_statement(first, wp_per_statement(second, post))
        case PChoice(left, p, right):
            return Plus(Scale(RatLit(p), wp_per_statement(left, post)),
                        Scale(RatLit(1 - p), wp_per_statement(right, post)))
        case Ite(cond, then, orelse):
            return Plus(Guard(cond, wp_per_statement(then, post)),
                        Guard(Not(cond), wp_per_statement(orelse, post)))
    raise TypeError(prog)
