"""Self-test of the benchmark's reference computations against known values.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

These guard the yardsticks, not the engine: a wrong reference would make
the benchmark reject correct answers or accept wrong ones.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent


def test_geometric_closed_form_matches_dp():
    values = ref.loop_values("geo", (F(1), F(0)), 12)
    assert values == [ref.geo_closed_form(k) if k else 0 for k in range(13)]
    assert values[4] == F(11, 8)


def test_geometric_loop_with_false_guard_returns_x():
    assert ref.loop_values("geo", (F(0), F(5)), 3) == [0, 5, 5, 5]


def test_walk_dp_small_cases():
    # from 39 the walk stops after one step at 40 or 41
    assert ref.loop_values("walk", F(39), 2) == [0, 0, F(81, 2)]
    # from 38: 39 (then 40 or 41) or 40, all stopped within three steps
    assert ref.loop_values("walk", F(38), 3)[3] == F(1, 2) * F(81, 2) + F(1, 2) * 40


def test_walk_path_counts():
    # far from the boundary every step branches: 2^(k-1) sequences, and the
    # states after j steps are x0 + j .. x0 + 2j
    assert ref.path_counts("walk", F(0), 5) == (16, 1 + 2 + 3 + 4 + 5)
    assert ref.path_counts("walk", F(40), 4) == (1, 4)


def test_harmonic_and_factorial():
    assert ref.harmonic(3) == F(11, 6)
    assert ref.factorial(5) == 120
    assert ref.factorial(0) == 1


def test_calkin_wilf_prefix():
    assert ref.calkin_wilf_prefix(6) == [0, 1, F(1, 2), 2, F(1, 3), F(3, 2), F(2, 3)]


def test_coin_flip_enumeration():
    coin = ("flip", ("assign", "x", ref.lit(0)), F(1, 3), ("assign", "x", ref.lit(1)))
    assert ref.run_prog(coin, {}) == {(): F(1, 3), (("x", F(1)),): F(2, 3)}
    assert ref.expected_value(coin, ("ar", ref.var("x")), {}) == F(2, 3)
    geo_body = ("seq", ("flip", ("assign", "c", ref.lit(0)), F(1, 2), ("assign", "c", ref.lit(1))),
                ("assign", "x", ("add", ref.var("x"), ref.lit(1))))
    assert ref.expected_value(geo_body, ("ar", ref.var("c")), {"c": F(1)}) == F(1, 2)


def test_truncated_subtraction_and_guards():
    assert ref.eval_term(("sub", ref.lit(3), ref.lit(5)), {}) == 0
    guard = ("and", ("le", ref.var("x"), ref.lit(2)), ("not", ("eq", ref.var("y"), ref.lit(1))))
    assert ref.eval_guard(guard, {"x": F(2)}) is True
    assert ref.eval_guard(guard, {"x": F(2), "y": F(1)}) is False


def test_quantifiers_range_over_the_domain():
    f = ("sup", "v", ("guard", ("lt", ref.var("v"), ref.lit(2)), ("ar", ref.var("v"))))
    assert ref.eval_expectation(f, {}, [F(0), F(1), F(3, 2), F(3)]) == F(3, 2)
    g = ("inf", "w", ("plus", ("ar", ref.var("w")),
                      ("guard", ("lt", ref.var("w"), ref.lit(1)), ("ar", ref.lit(5)))))
    assert ref.eval_expectation(g, {}, [F(0), F(1, 2), F(2)]) == 2


def test_printed_syntax():
    prog = ("seq", ("assign", "x", ("add", ref.var("x"), ref.lit(F(1, 2)))),
            ("ite", ("lt", ref.var("x"), ref.lit(1)), ("skip",), ("assign", "y", ref.lit(0))))
    assert ref.print_prog(prog) == "x := (x + 1/2); if (x < 1) {skip} else {y := 0}"
    assert ref.encode_loop_line(4) == "k=4: 11/8"
    assert ref.encode_loop_line(0) == "k=0: 0"


def test_calibration_scale_reads_nearby_samples():
    from calibrate import REFERENCE_S, Calibration

    cal = Calibration()
    # a host twice as slow as the reference for the first 10 s, then as fast
    cal.times = [0.1 * i for i in range(200)]
    cal.durations = [2 * REFERENCE_S] * 100 + [REFERENCE_S] * 100
    assert cal.scale(2.0, 3.0) == 0.5
    assert cal.scale(15.0, 15.2) == 1.0
    # past the last sample, the nearest samples decide
    assert cal.scale(100.0, 101.0) == 1.0


def test_metric_lists_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
