"""The path-sum and plan oracles: forward passes over (step, state) pairs,
checked against the depth-first references and the fixed-point iterate."""

import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from path_reference import dfs_path_sum, dfs_plan_eval
from wpengine.checks import rand_loop
from wpengine import wp
from wpengine.cli import main
from wpengine.errors import FuelExceeded
from wpengine.loops import encode_loop
from wpengine.parser import parse_exp, parse_program
from wpengine.semantics import State, calkin_wilf, eval_exp, state
from wpengine.syntax import Var, print_program
from wpengine.wp import (
    VarSet,
    char_iterates,
    forward_dist,
    kleene_iterate,
    path_sum,
    step_kernel,
)
from wpengine.xreal import ZERO, XReal

WALK_TEXT = "while (x < 40) { {x := x + 1} [1/2] {x := x + 2} }"
WALK = parse_program(WALK_TEXT)
POST_X = parse_exp("x")
WALK_VS = VarSet.of("x")


def _agree(loop, post, sigma, varset, depth):
    encoding = encode_loop(loop, post, varset)
    truncations = encoding.plan_truncations(sigma, depth)
    assert len(truncations) == depth + 1
    for k in range(depth + 1):
        want = kleene_iterate(loop, post, sigma, k)
        assert dfs_path_sum(loop, post, sigma, varset, k) == want
        assert dfs_plan_eval(encoding, sigma, k, calkin_wilf(0)) == want
        assert path_sum(loop, post, sigma, varset, k) == want
        assert encoding.plan_eval(sigma, k) == want
        assert truncations[k] == want


def test_dp_oracles_match_dfs_references_on_random_loops():
    rng = random.Random(2010)
    for _ in range(12):
        loop, post, varset = rand_loop(rng)
        sigma = State({Var("c"): F(1), Var("x"): F(rng.randint(0, 2))})
        _agree(loop, post, sigma, varset, 8)


def test_dp_oracles_match_dfs_references_on_branching_walk():
    # every step branches, so paths share (step, state) pairs; the ambient
    # binding of y lies outside the variable set
    _agree(WALK, parse_exp("[x < 42] * x + 1/2"), state(x=30, y=3), WALK_VS, 8)


def test_dp_oracles_match_dfs_references_on_conditional_body():
    # the body branches on the state, so the one-step template and the
    # syntactic unrolling go through an if-then-else
    loop = parse_program("while (x < 6) { if (x < 2) { x := x + 1 } else "
                         "{ {x := x + 1} [1/3] {x := x + 2} } }")
    s0 = state(x=0)
    _agree(loop, POST_X, s0, WALK_VS, 8)
    for k in range(9):
        assert eval_exp(char_iterates(loop, POST_X, k), s0) == \
            kleene_iterate(loop, POST_X, s0, k)
    assert kleene_iterate(loop, POST_X, s0, 8) == XReal.of(F(512, 81))


def test_walk_depth_20_within_default_cap():
    """2^19 paths, but fewer than 500 (step, state) entries."""
    s0 = state(x=20)
    want = kleene_iterate(WALK, POST_X, s0, 20)
    assert want > kleene_iterate(WALK, POST_X, s0, 19)
    assert path_sum(WALK, POST_X, s0, WALK_VS, 20) == want
    encoding = encode_loop(WALK, POST_X, WALK_VS)
    assert encoding.plan_eval(s0, 20) == want


def test_caps_count_step_state_entries():
    # from x=20 the frontiers hold 1, 2, 3, 4, 5, ... states
    message = (r"^path oracle reached 15 \(step, state\) entries at step 4, "
               r"above the cap of 10$")
    s0 = state(x=20)
    with pytest.raises(FuelExceeded, match=message):
        path_sum(WALK, POST_X, s0, WALK_VS, 20, state_cap=10)
    encoding = encode_loop(WALK, POST_X, WALK_VS)
    with pytest.raises(FuelExceeded, match=message):
        encoding.plan_eval(s0, 20, state_cap=10)
    # k = 4 needs the frontiers of steps 0 to 3: 10 entries
    assert path_sum(WALK, POST_X, s0, WALK_VS, 4, state_cap=10) == \
        encoding.plan_eval(s0, 4, state_cap=10)


def test_encode_loop_passes_state_cap(capsys, tmp_path):
    walk = tmp_path / "walk.pgcl"
    walk.write_text(WALK_TEXT)
    argv = ["encode-loop", "--program", str(walk), "--post", "x",
            "--eval-at", "x=20", "--depth-k", "20"]
    assert main(argv + ["--state-cap", "10"]) == 4
    assert "above the cap of 10" in capsys.readouterr().err
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert lines[-1] == f"k=20: {kleene_iterate(WALK, POST_X, state(x=20), 20)}"


def test_truncation_zero_is_zero():
    # from x=40 the loop is already done, so truncation 1 is already x = 40
    encoding = encode_loop(WALK, POST_X, WALK_VS)
    s0 = state(x=40)
    assert encoding.plan_eval(s0, 1) == XReal.of(F(40))
    assert encoding.plan_truncations(s0, 0) == [ZERO]
    assert encoding.plan_truncations(s0, -1) == []
    assert encoding.plan_eval(s0, 0) == ZERO
    assert path_sum(WALK, POST_X, s0, WALK_VS, 0) == ZERO
    geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    geo_encoding = encode_loop(geo, POST_X, VarSet.of("c", "x"))
    assert geo_encoding.plan_eval(state(c=0, x=7), 0) == ZERO
    assert geo_encoding.plan_eval(state(c=0, x=7), 1) == XReal.of(F(7))


def test_oracles_agree_at_negative_depth():
    """A negative truncation is the zero iterate for all four oracles, from a
    state where the guard fails and from one where it holds."""
    geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    varset = VarSet.of("c", "x")
    encoding = encode_loop(geo, POST_X, varset)
    for sigma in (state(c=0, x=5), state(c=1, x=0)):
        assert kleene_iterate(geo, POST_X, sigma, -1) == ZERO
        assert path_sum(geo, POST_X, sigma, varset, -1) == ZERO
        assert eval_exp(char_iterates(geo, POST_X, -1), sigma) == ZERO
        assert encoding.plan_eval(sigma, -1) == ZERO


def test_truncations_never_decrease():
    """The truncations are the fixed-point iterates from zero, which never
    decrease, so truncation k is also the supremum of those up to k."""
    rng = random.Random(40)
    for _ in range(40):
        loop, post, varset = rand_loop(rng)
        s0 = State({Var("c"): F(1), Var("x"): F(rng.randint(0, 2))})
        values = encode_loop(loop, post, varset).plan_truncations(s0, 10)
        assert all(a <= b for a, b in zip(values, values[1:])), values


def _kernel_cases(seed):
    """The 12 seeded random loops and the walk, each with two starts."""
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        loop, post, varset = rand_loop(rng)
        starts = [State({Var("c"): F(1), Var("x"): F(x)}) for x in (0, 1)]
        cases.append((loop, post, varset, starts))
    cases.append((parse_program(WALK_TEXT), parse_exp("[x < 42] * x + 1/2"),
                  WALK_VS, [state(x=20), state(x=F(61, 2), y=3)]))
    return cases


def test_warm_kernel_equals_fresh_loop():
    """A kernel warmed from one start gives the values of a fresh loop."""
    for (loop, post, varset, (first, second)), (fresh, *_) in zip(
            _kernel_cases(31), _kernel_cases(31)):
        assert fresh == loop and fresh is not loop
        encoding = encode_loop(loop, post, varset)
        for k in range(9):
            path_sum(loop, post, first, varset, k)
            encoding.plan_eval(first, k)
        assert step_kernel(loop, varset).support
        assert not hasattr(fresh, "_kernels")
        for k in range(9):
            want = kleene_iterate(loop, post, second, k)
            assert path_sum(loop, post, second, varset, k) == want
            assert encoding.plan_eval(second, k) == want
            assert path_sum(fresh, post, second, varset, k) == want
            assert encode_loop(fresh, post, varset).plan_eval(second, k) == want


def _sweep(loop, encoding, starts, depth):
    """path_sum, plan_eval and forward_dist at k = 0, ..., ``depth`` from
    each start in turn: the plan agrees with the path sum on the encoding's
    post, and the forward expectation of x with the path sum of x."""
    post, varset = encoding.post, encoding.varset
    for s0 in starts:
        for k in range(depth + 1):
            assert encoding.plan_eval(s0, k) == path_sum(loop, post, s0, varset, k)
            if k:
                assert forward_dist(loop, s0, varset, k - 1).expectation(POST_X) \
                    == path_sum(loop, POST_X, s0, varset, k)


def _kept_passes(loop, encoding):
    """The last pass of each owner: the kernel's, the encoding's and the
    loop's forward pass, as (key, depth)."""
    kept = (step_kernel(loop, encoding.varset).factors.last,
            encoding._factor_cache.last, loop._forward_pass)
    return [pass_[:2] for pass_ in kept]


def test_kernel_is_freed_with_its_loop():
    loop = parse_program(WALK_TEXT)
    encoding = encode_loop(loop, POST_X, WALK_VS)
    _sweep(loop, encoding, [state(x=30), state(x=20)], 6)
    assert _kept_passes(loop, encoding) == [(state(x=20), 5)] * 2 + \
        [((state(x=20), WALK_VS), 5)]
    kernel = weakref.ref(step_kernel(loop, WALK_VS))
    assert kernel().support and kernel().factors
    freed = weakref.ref(loop)
    del loop, encoding
    gc.collect()
    assert freed() is None
    assert kernel() is None


def test_encoding_is_freed_without_the_collector():
    """The encoding's memo tables close over the values they read, not over
    the encoding, and a kept pass holds states and weights only, so
    reference counting alone frees the encoding and the loop."""
    gc.collect()
    gc.disable()
    try:
        loop = parse_program(WALK_TEXT)
        encoding = encode_loop(loop, parse_exp("sup v: [v < x] * v"), WALK_VS)
        assert encoding.plan_eval(state(x=30), 6) == F(5, 32)
        assert encoding._factor_cache and encoding._finals
        _sweep(loop, encoding, [state(x=20), state(x=F(61, 2))], 7)
        assert _kept_passes(loop, encoding) == [(state(x=F(61, 2)), 6)] * 2 + \
            [((state(x=F(61, 2)), WALK_VS), 6)]
        freed = weakref.ref(encoding), weakref.ref(loop)
        del encoding, loop
        assert [ref() for ref in freed] == [None, None]
    finally:
        gc.enable()


def _outcome(call):
    """The value of ``call()``, or the message of its ``FuelExceeded``."""
    try:
        value = call()
    except FuelExceeded as error:
        return "FuelExceeded", str(error)
    return value.weights if isinstance(value, wp.Dist) else value


def _warm_and_cold(text, post, varset, schedule):
    """Each (start, k, cap) of ``schedule`` on one loop and encoding that
    keep their passes, against a freshly parsed loop and a fresh encoding:
    values, weights and cap errors are equal."""
    loop = parse_program(text)
    encoding = encode_loop(loop, post, varset)
    errors = 0
    for s0, k, cap in schedule:
        fresh = parse_program(text)
        fresh_encoding = encode_loop(fresh, post, varset)
        calls = [
            lambda lp, enc: path_sum(lp, post, s0, varset, k, state_cap=cap),
            lambda lp, enc: enc.plan_eval(s0, k, state_cap=cap),
            lambda lp, enc: enc.plan_truncations(s0, k, state_cap=cap),
            lambda lp, enc: forward_dist(lp, s0, varset, k, state_cap=cap),
        ]
        for call in calls:
            warm = _outcome(lambda: call(loop, encoding))
            assert warm == _outcome(lambda: call(fresh, fresh_encoding)), \
                (s0, k, cap, call)
            errors += isinstance(warm, tuple)
    return errors


def test_a_warm_call_equals_a_cold_one():
    """Sweeps up and down, two starts interleaved, and a cap lowered and
    raised again partway through a sweep: every call of ``path_sum``,
    ``plan_eval``, ``plan_truncations`` and ``forward_dist`` gives what it
    gives on a fresh loop and encoding.  The last segment of the schedule
    trips the cap on a continued pass, then asks the kept pass again, and
    asks under a small cap a pass last continued under a large one."""
    big = wp.DEFAULT_STATE_CAP
    geo = "while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }"
    cases = [(WALK_TEXT, parse_exp("[x < 42] * x + 1/2"), WALK_VS,
              state(x=20), state(x=F(61, 2), y=3)),
             (geo, POST_X, VarSet.of("c", "x"), state(c=1, x=0),
              state(c=1, x=F(7, 5))),
             ("while (0 < x) { {x := x - 1} [1/2] {x := x + 1} }", POST_X,
              WALK_VS, state(x=1), state(x=2))]
    rng = random.Random(27)
    for _ in range(3):
        loop, post, varset = rand_loop(rng)
        cases.append((print_program(loop), post, varset,
                      state(c=1, x=0), state(c=1, x=1)))
    errors = 0
    for text, post, varset, first, second in cases:
        up, down = range(10), range(9, -2, -1)
        caps = (big, big, big, 12, 12, 4, 4, 2, big, big)
        schedule = ([(first, k, big) for k in up]
                    + [(first, k, big) for k in down]
                    + [(s0, k, big) for k in up for s0 in (first, second)]
                    + [(second, k, cap) for k, cap in zip(up, caps)]
                    + [(second, k, cap) for k, cap in zip(down, reversed(caps))]
                    + [(first, k, cap) for k, cap in (
                        (2, 3), (9, 3), (2, 3), (2, 6), (9, 6), (2, 6),
                        (3, 10), (6, big), (7, 10))])
        errors += _warm_and_cold(text, post, varset, schedule)
    assert errors > 20  # the lowered caps trip, warm and cold alike


def test_forward_pass_of_a_loop_with_a_nested_loop_runs_cold():
    """Fuel bounds the inner loop too, so the outer loop's pass at one fuel
    is not a prefix of its pass at more: a continuation would read 0 and 0."""
    text = ("while (c < 2) { c := c + 1; while (x < 5) { x := x + 1 }; "
            "x := 0 }")
    loop, varset = parse_program(text), VarSet.of("c", "x")
    masses = [forward_dist(loop, state(), varset, fuel).mass for fuel in (2, 6)]
    assert masses == [0, 1]
    assert masses == [forward_dist(parse_program(text), state(), varset, fuel).mass
                      for fuel in (2, 6)]
    for fuel in (2, 6, 3, 7, 1):
        assert forward_dist(loop, state(x=1), varset, fuel).weights == \
            forward_dist(parse_program(text), state(x=1), varset, fuel).weights


def test_a_sweep_makes_each_step_once(monkeypatch):
    """From one start, a sweep k = 1, ..., 12 makes 11 frontier steps for
    the path sum and 11 for the plan, not 66 each, and ``forward_dist``
    over fuel 0, ..., 11 runs the body 11 times, not 66."""
    geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    varset, s0 = VarSet.of("c", "x"), state(c=1, x=0)
    encoding = encode_loop(geo, POST_X, varset)
    steps, bodies = {}, []
    resume, forward = wp._resume_pass, wp._forward

    def counting_resume(owner, attr, key, depth, cap, first, step, size):
        def counted(n, carry):
            steps[id(owner)] = steps.get(id(owner), 0) + 1
            return step(n, carry)
        return resume(owner, attr, key, depth, cap, first, counted, size)

    def counting_forward(prog, *args):
        bodies.append(prog is geo.body)
        return forward(prog, *args)

    monkeypatch.setattr(wp, "_resume_pass", counting_resume)
    monkeypatch.setattr(wp, "_forward", counting_forward)
    wants = [kleene_iterate(geo, POST_X, s0, k) for k in range(13)]
    for k in range(1, 13):
        assert path_sum(geo, POST_X, s0, varset, k) == wants[k]
        assert encoding.plan_eval(s0, k) == wants[k]
    bodies.clear()  # the kernel's one-step support runs the body too
    for k in range(1, 13):
        assert forward_dist(geo, s0, varset, k - 1).expectation(POST_X) == wants[k]
    kernel = step_kernel(geo, varset)
    assert steps == {id(kernel.factors): 11, id(encoding._factor_cache): 11,
                     id(geo): 11}
    assert sum(bodies) == 11


def test_independent_oracles_do_not_read_the_kernel():
    s0 = state(x=20)
    loop = parse_program(WALK_TEXT)
    for k in range(6):
        kleene_iterate(loop, POST_X, s0, k)
        eval_exp(char_iterates(loop, POST_X, k), s0)
        forward_dist(loop, s0, WALK_VS, k)
    assert not hasattr(loop, "_kernels")
    # a kernel that fails on every read leaves their values as they were
    kernel = step_kernel(loop, WALK_VS)

    class Poisoned(dict):
        def __getitem__(self, *_):
            raise AssertionError("an independent oracle read the kernel")

        __contains__ = get = __iter__ = __len__ = __getitem__

    kernel.support = kernel.factors = Poisoned()
    fresh = parse_program(WALK_TEXT)
    for k in range(6):
        assert kleene_iterate(loop, POST_X, s0, k) == \
            kleene_iterate(fresh, POST_X, s0, k)
        assert eval_exp(char_iterates(loop, POST_X, k), s0) == \
            eval_exp(char_iterates(fresh, POST_X, k), s0)
        assert forward_dist(loop, s0, WALK_VS, k).weights == \
            forward_dist(fresh, s0, WALK_VS, k).weights


def test_caps_unchanged_on_a_warm_kernel():
    """The caps count (step, state) entries, never the kernel's entries."""
    s0 = state(x=20)
    encoding = encode_loop(WALK, POST_X, WALK_VS)
    for k in range(21):
        assert path_sum(WALK, POST_X, s0, WALK_VS, k) == encoding.plan_eval(s0, k)
    assert len(step_kernel(WALK, WALK_VS).support) > 10
    test_caps_count_step_state_entries()


def test_memo_tables_stay_bounded(monkeypatch):
    """The kernel and the encoding's memo tables empty themselves at the
    state cap, and the values stay right."""
    cap = 7
    monkeypatch.setattr(wp, "DEFAULT_STATE_CAP", cap)
    loop = parse_program(WALK_TEXT)
    encoding = encode_loop(loop, POST_X, WALK_VS)
    kernel = step_kernel(loop, WALK_VS)
    tables = (kernel.support, kernel.factors, encoding._factor_cache,
              encoding._finals)
    peaks = [0] * len(tables)
    for x in (20, 24, 30, F(61, 2), 39):
        s0 = state(x=x)
        for k in range(9):
            want = kleene_iterate(loop, POST_X, s0, k)
            assert path_sum(loop, POST_X, s0, WALK_VS, k) == want
            assert encoding.plan_eval(s0, k) == want
            peaks = [max(p, len(t)) for p, t in zip(peaks, tables)]
            assert max(peaks) <= cap
    assert peaks == [cap] * len(tables)


def test_final_factors_are_kept_per_state():
    """``plan_truncations`` keeps one final factor per distinct state of the
    frontiers, keyed on the state alone."""
    encoding = encode_loop(WALK, POST_X, WALK_VS)
    s0 = state(x=30)
    encoding.plan_truncations(s0, 6)
    frontiers = wp.path_frontiers(WALK, WALK_VS, s0, encoding._factor_cache, 5)
    seen = {s for frontier in frontiers for s in frontier}
    assert isinstance(encoding._finals, wp.Memo)
    assert set(encoding._finals) == seen
    assert all(type(key) is State for key in encoding._finals)


def test_plan_takes_the_state_cap_by_keyword_only():
    """A stale positional domain raises, where it would be read as the cap."""
    encoding = encode_loop(WALK, POST_X, WALK_VS)
    s0 = state(x=30)
    with pytest.raises(TypeError):
        encoding.plan_truncations(s0, 1, calkin_wilf(3))
    with pytest.raises(TypeError):
        encoding.plan_eval(s0, 1, 10)
    assert encoding.plan_eval(s0, 1, state_cap=10) == ZERO


def test_plan_reads_a_quantified_post_over_the_default_domain():
    """Without a domain, the plan evaluates each final factor over
    ``eval_exp``'s default domain at that state, as ``path_sum`` does."""
    geo = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    cases = [(geo, VarSet.of("c", "x"), state(c=1, x=0)),
             (WALK, WALK_VS, state(x=37))]
    posts = ("sup v: [v < x] * v", "inf w: [w < x] * x + [x < w + 1] * w",
             "x + (sup v: [v < x] * 1/2)")
    for loop, varset, s0 in cases:
        for text in posts:
            post = parse_exp(text)
            encoding = encode_loop(loop, post, varset)
            want = [path_sum(loop, post, s0, varset, k) for k in range(5)]
            assert encoding.plan_truncations(s0, 4) == want
            assert [encoding.plan_eval(s0, k) for k in range(5)] == want
    post = parse_exp(posts[0])
    want = [ZERO, ZERO, F(2, 5), F(67, 80), F(281, 240)]
    assert [kleene_iterate(geo, post, state(c=1, x=0), k) for k in range(5)] == want
    assert encode_loop(geo, post, VarSet.of("c", "x")).plan_truncations(
        state(c=1, x=0), 4) == want


def test_kleene_reads_a_quantified_post_with_the_exit_guard(capsys, tmp_path):
    """The fixed-point iterate reads [!guard] * post at each exit state, as
    the path sum and the plan do, so all three search a quantified post
    over the same default domain, which holds the guard's constants."""
    text = "sup v: [v < x] * v"
    post, s0 = parse_exp(text), state(x=37)
    want = [path_sum(WALK, post, s0, WALK_VS, k) for k in range(5)]
    assert want[3:] == [F(25, 2), F(145, 8)]
    assert [kleene_iterate(WALK, post, s0, k) for k in range(5)] == want
    walk = tmp_path / "walk.pgcl"
    walk.write_text(WALK_TEXT)
    assert main(["encode-loop", "--program", str(walk), "--post", text,
                 "--eval-at", "x=37", "--depth-k", "4"]) == 0
    listing = capsys.readouterr().out.splitlines()
    for k in (3, 4):
        assert main(["wp", "--kleene", str(k), "-p", str(walk), "-f", text,
                     "--at", "x=37"]) == 0
        assert f"k={k}: {capsys.readouterr().out.strip()}" == listing[k]
