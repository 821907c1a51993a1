"""Acceptance gate: each criterion of the selftest as its own test, one
pass/fail line each.  Heavy suites are shared through a session fixture
so the whole gate runs the engine exactly once."""

from pathlib import Path

import pytest

from grady.selftest import run_all

GOLDEN = Path(__file__).parent / "golden" / "selftest_seed0.out"


@pytest.fixture(scope="session")
def results():
    return {r.index: r for r in run_all(seed=0)}


def _assert_criterion(results, index):
    r = results[index]
    line = f"criterion {r.index:02d} " \
           f"{'pass' if r.passed else 'FAIL'} {r.name}: {r.detail} " \
           f"({r.seconds:.2f}s)"
    print(line)
    assert r.passed, line


def test_criterion_01_star_of_running_example(results):
    _assert_criterion(results, 1)


def test_criterion_02_decomposition_identity(results):
    _assert_criterion(results, 2)


def test_criterion_03_torus_on_the_line(results):
    _assert_criterion(results, 3)


def test_criterion_04_torsion_grading_on_the_line(results):
    _assert_criterion(results, 4)


def test_criterion_05_star_calculus_properties(results):
    _assert_criterion(results, 5)


def test_criterion_06_g_primary_decompositions(results):
    _assert_criterion(results, 6)


def test_criterion_07_no_embedded_primes(results):
    _assert_criterion(results, 7)


def test_criterion_08_uniqueness_across_decompositions(results):
    _assert_criterion(results, 8)


def test_criterion_09_torsion_free_specialization(results):
    _assert_criterion(results, 9)


def test_criterion_10_fitting_ideals(results):
    _assert_criterion(results, 10)


def test_criterion_11_oracle_differential(results):
    _assert_criterion(results, 11)


def test_criterion_12_equidimensionality(results):
    _assert_criterion(results, 12)


def test_selftest_lines_match_the_golden(results):
    """`grady selftest` at seed 0 with its timings left out: the detail
    lines pin every criterion's counts, not only its verdict."""
    lines = [f"criterion {r.index:2d} [{'pass' if r.passed else 'FAIL'}] "
             f"{r.name}: {r.detail}" for r in results.values()]
    lines.append("all criteria passed" if all(
        r.passed for r in results.values()) else "FAILURES present")
    assert "\n".join(lines) + "\n" == GOLDEN.read_text(encoding="utf-8")
