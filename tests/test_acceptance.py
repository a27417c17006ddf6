"""End-to-end acceptance gate: all six criteria at their stated tolerances.

Runs the same checks as ``ibrl validate`` and prints one pass/fail line per
criterion. These are slow (about a minute altogether) because they execute
the full experiment battery at its default sizes.
"""

import pytest

from ibrl.harness import run_all

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def results():
    out = run_all(seed=42)
    for result in out:
        print(result.line())
    return {r.number: r for r in out}


def test_criterion_1_classical_recovery(results):
    r = results[1]
    assert r.passed, r.line()


def test_criterion_2_conditioning_oracle(results):
    r = results[2]
    assert r.passed, r.line()


def test_criterion_3_interval_bandit_geometry(results):
    r = results[3]
    assert r.passed, r.line()


def test_criterion_4_predictor_sweep(results):
    r = results[4]
    assert r.passed, r.line()


def test_criterion_5_trap_bandit(results):
    r = results[5]
    assert r.passed, r.line()


def test_criterion_6_algebra_properties(results):
    r = results[6]
    assert r.passed, r.line()
