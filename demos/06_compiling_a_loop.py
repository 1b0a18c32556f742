"""Compiling a loop into one closed-form syntactic expectation.

The loop's value is a supremum over path lengths of a sum over encoded
state sequences, each weighted by the final-state value times the one-step
transition values along the way.  The construction needs the one-step
template (the backward transform of the primed state indicator), the
decode-and-apply helpers, and the sequence machinery; its evaluation plan
agrees with the fixed-point and path-sum oracles at every truncation.
"""

import time
from fractions import Fraction

from wpengine import parse_exp, parse_program, print_exp, state
from wpengine.goedel import encode_state_seq
from wpengine.loops import body_wp_template, encode_loop
from wpengine.semantics import calkin_wilf, eval_exp
from wpengine.wp import VarSet, kleene_iterate, path_sum

geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
post = parse_exp("x")
vs = VarSet.of("c", "x")
start = state(c=1, x=0)

print("one-step template g over primed copies:")
print(" ", print_exp(body_wp_template(geo, vs)))

encoding = encode_loop(geo, post, vs)
print("\ntruncation values of the compiled loop (all three oracles agree):")
for k in range(9):
    plan = encoding.plan_eval(start, k)
    assert plan == kleene_iterate(geo, post, start, k)
    assert plan == path_sum(geo, post, start, vs, k)
    print(f"  k={k}: {plan}")

limit = encoding.plan_eval(start, 30)
print(f"\nsupremum over k<=30: {limit} ~ {float(limit):.7f}")
print("the concise closed form x + [c = 1] * 2 evaluates to",
      eval_exp(parse_exp('x + [c = 1] * 2'), start))

print("\nevaluating the per-path piece at a hand-encoded two-step run:")
code = encode_state_seq([state(c=1, x=0), state(c=0, x=1)], vs)
sigma = state().set(encoding.length_var, 2).set(encoding.seq_var, code.num)
print("  run (c=1,x=0) -> (c=0,x=1) has value",
      eval_exp(encoding.path_term, sigma, calkin_wilf(0), mode="oracle_assisted"))

print("\nmaterializing the full closed-form term (this takes a few seconds)...")
started = time.time()
pure = encoding.pure
from wpengine.syntax import exp_tree_size

size = exp_tree_size(pure)
print(f"  built in {time.time() - started:.1f}s")
print(f"  the shared in-memory structure expands to a tree of {size:,} nodes,")
print("  so the verbatim text is impractical to print; the per-path piece and")
print("  the aggregates above are the same construction at printable sizes.")
print("  evaluating it by quantifier search is hopeless anyway (the witnesses")
print("  are astronomical sequence codes); the plan is the testable route.")
