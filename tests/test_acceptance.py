"""Acceptance criteria, one test per criterion.

Each criterion prints a single pass/fail line (run pytest with ``-s`` to
see them inline; they also appear in captured output on failure).  All
comparisons are exact rational equality unless a tolerance is stated.
"""

import time
from fractions import Fraction as F

from wpengine.checks import (
    check_dnf,
    check_duality,
    check_fo,
    check_goedel,
    check_loop,
    check_prenex,
    check_series,
)
from wpengine.parser import parse_exp, parse_program
from wpengine.semantics import state
from wpengine.syntax import Var
from wpengine.wp import kleene_iterate
from wpengine.xreal import XReal

GEO = parse_program("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
POST_X = parse_exp("x")


def _report(number: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({name}): {status} [{detail}]")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_duality():
    started = time.time()
    report = check_duality(seed=1)
    elapsed = time.time() - started
    detail = f"{report.cases} evaluations, {elapsed:.1f}s"
    if report.failures:
        detail += f"; first failure {report.failures[0]}"
    _report(1, "loop-free duality", report.passed and elapsed < 30, detail)


def test_criterion_2_geometric_closed_form():
    started = time.time()
    failures = []
    for x0 in (F(0), F(3), F(7, 2)):
        sigma = state(c=1).set(Var("x"), x0)
        values = [kleene_iterate(GEO, POST_X, sigma, k) for k in range(13)]
        if any(a > b for a, b in zip(values, values[1:])):
            failures.append(f"not monotone at x={x0}")
        if x0 == 0:
            for k, value in enumerate(values):
                want = 2 - (k + 1) * F(1, 2) ** (k - 1)
                if value != XReal.of(want):
                    failures.append(f"k={k}: {value} != {want}")
        limit = kleene_iterate(GEO, POST_X, sigma, 30)
        if limit is XReal.INF or abs(limit - (x0 + 2)) >= F(1, 10 ** 6):
            failures.append(f"k=30 at x={x0}: {limit}")
    for k in range(1, 6):
        got = kleene_iterate(GEO, POST_X, state(c=0, x=5), k)
        if got != XReal.of(5):
            failures.append(f"guard-false k={k}: {got}")
    elapsed = time.time() - started
    _report(2, "geometric closed form", not failures and elapsed < 1,
            f"k<=12 exact at x=0, k=30 within 1e-6, {elapsed:.2f}s"
            + (f"; {failures[:2]}" if failures else ""))


def test_criterion_3_three_way_identity():
    started = time.time()
    report = check_loop(seed=3)
    elapsed = time.time() - started
    detail = f"{report.cases} depth checks over 20 loops, {elapsed:.1f}s"
    if report.failures:
        detail += f"; first failure {report.failures[0]}"
    _report(3, "three-way depth-k identity", report.passed and elapsed < 60,
            detail)


def test_criterion_4_prenex_rules():
    report = check_prenex(seed=4)
    detail = f"{report.cases} rule-instantiation evaluations"
    if report.failures:
        detail += f"; first failure {report.failures[0]}"
    _report(4, "prenex transformation rules", report.passed, detail)


def test_criterion_5_dedekind_normal_form():
    report = check_dnf(seed=5)
    detail = f"{report.cases} indicator and recovery checks"
    if report.failures:
        detail += f"; first failure {report.failures[0]}"
    _report(5, "cut normal form", report.passed, detail)


def test_criterion_6_goedelization():
    started = time.time()
    report = check_goedel(seed=6)
    elapsed = time.time() - started
    for note in report.notes:
        print(f"  minimality report: {note}")
    detail = f"{report.cases} encoding checks, {elapsed:.1f}s, " \
             f"{len(report.notes)} minimality notes"
    if report.failures:
        detail += f"; first failure {report.failures[0]}"
    _report(6, "sequence encodings", report.passed and elapsed < 60, detail)


def test_criterion_7_series():
    report = check_series(seed=7)
    detail = f"{report.cases} aggregate and product checks"
    if report.failures:
        detail += f"; first failure {report.failures[0]}"
    _report(7, "sums, products, unrestricted product", report.passed, detail)


def test_criterion_8_fo_embedding():
    report = check_fo(seed=8)
    detail = f"{report.cases} formula checks"
    if report.failures:
        detail += f"; first failure {report.failures[0]}"
    _report(8, "first-order embedding", report.passed, detail)
