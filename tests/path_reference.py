"""Depth-first path enumerations: test-only references for the path oracles.

``wp.path_sum`` and ``LoopEncoding.plan_eval`` sum over (step, state) pairs
in one forward pass.  These references enumerate every supported length-k
state sequence one at a time, with the same one-step factors, so their
cost is exponential in k; use them at small depths only.
"""

from fractions import Fraction

from wpengine.goedel import encode_state
from wpengine.semantics import eval_exp
from wpengine.syntax import Guard, Ite, Not, Skip
from wpengine.wp import char_assertion, forward_dist, wp_loop_free
from wpengine.xreal import XReal, ZERO


def _successors(loop, varset):
    c_iter = Ite(loop.cond, loop.body, Skip())
    support = {}

    def successors(s):
        if s not in support:
            support[s] = tuple(forward_dist(c_iter, s, varset, 1).weights)
        return support[s]

    return successors


def dfs_path_sum(loop, post, sigma, varset, k):
    """Sum over sequences of [!guard] * post at the last state times the
    product of the one-step values read off the syntactic transformer."""
    if k <= 0:
        return ZERO
    c_iter = Ite(loop.cond, loop.body, Skip())
    successors = _successors(loop, varset)
    final_guard = Guard(Not(loop.cond), post)
    total = ZERO
    stack = [(sigma.restrict(varset), 1, Fraction(1))]
    while stack:
        current, length, weight = stack.pop()
        if length == k:
            total = total + weight * eval_exp(final_guard, current)
            continue
        for target in successors(current):
            step = eval_exp(wp_loop_free(c_iter, char_assertion(target, varset)),
                            current)
            assert step is not XReal.INF
            stack.append((target, length + 1, weight * step))
    return total


def dfs_plan_eval(encoding, sigma, k, dom):
    """Sum of the plan's path values over the supported length-k sequences."""
    if k <= 0:
        return ZERO
    rec = lambda f, s: eval_exp(f, s, dom, mode="oracle_assisted")
    successors = _successors(encoding.loop, encoding.varset)
    start = sigma.restrict(encoding.varset)
    total = ZERO
    code = lambda s: encode_state(s, encoding.varset).num  # as the term holds them
    stack = [(start, [code(start)])]
    while stack:
        current, codes = stack.pop()
        if len(codes) == k:
            total = total + encoding.path_value(codes, rec)
            continue
        for target in successors(current):
            stack.append((target, codes + [code(target)]))
    return total
