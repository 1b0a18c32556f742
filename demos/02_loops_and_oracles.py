"""Loops: fixed-point iteration, truncated path sums, syntactic unrolling.

A loop's preexpectation is the least fixed point of its one-iteration
unrolling operator.  Three independently implemented approximations must
agree exactly at every depth: iterating the operator semantically, summing
over execution paths, and evaluating the k-fold syntactic unrolling.
"""

from fractions import Fraction

from wpengine import parse_exp, parse_program, eval_exp, state
from wpengine.wp import VarSet, char_iterates, forward_dist, kleene_iterate, path_sum

geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
post = parse_exp("x")
vs = VarSet.of("c", "x")
start = state(c=1, x=0)

print("geometric loop, post x, start c=1 x=0")
print(f"{'k':>3} {'fixed-point':>12} {'path sum':>12} {'unrolling':>12}")
for k in range(9):
    a = kleene_iterate(geo, post, start, k)
    b = path_sum(geo, post, start, vs, k)
    c = eval_exp(char_iterates(geo, post, k), start)
    assert a == b == c
    print(f"{k:>3} {str(a):>12} {str(b):>12} {str(c):>12}")

limit = kleene_iterate(geo, post, start, 40)
print(f"\nk=40 value {limit} ~ {float(limit):.8f} (the loop's value is 2)")
concise = parse_exp("x + [c = 1] * 2")
print("the concise closed form x + [c = 1] * 2 gives", eval_exp(concise, start))

print("\nforward view: the subdistribution reached within 3 iterations")
dist = forward_dist(geo, start, vs, fuel=3)
for sigma, weight in dist.items():
    print(f"  c={sigma[vs.variables[0]]}, x={sigma[vs.variables[1]]}: {weight}")
print("mass:", dist.mass, "(the remaining mass is still looping)")
