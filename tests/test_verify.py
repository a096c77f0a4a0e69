"""Verification-suite tests: every suite passes and reports deterministically."""

import pytest

from neqtemp.exceptions import ValidationError
from neqtemp.verify import GRID, SUITES, format_results, run_suite, run_suites

REDUCED = {
    "gibbs": 30,
    "passivity": 60,
    "basis-invariance": 20,
    "extension": 20,
    "relation": None,
    "heat": 10,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    res = run_suite(name, seed=7, count=REDUCED[name])
    assert res.passed, res.failures
    assert res.checks > 0


def test_run_all():
    results = run_suites("all", seed=7, count=10)
    assert [r.name for r in results] == list(SUITES)
    assert all(r.passed for r in results)


def test_unknown_suite():
    with pytest.raises(ValidationError):
        run_suite("nope", seed=1)


def test_format_deterministic():
    a = format_results(run_suites("gibbs", seed=3, count=15))
    b = format_results(run_suites("gibbs", seed=3, count=15))
    assert a == b
    assert "gibbs" in a and "PASS" in a


def test_format_reports_failures():
    res = run_suite("gibbs", seed=3, count=5)
    res.failures.append("synthetic failure")
    out = format_results([res])
    assert "FAIL" in out
    assert "synthetic failure" in out


def test_relation_follows_seed_and_count():
    # Seven checks per point: the first count grid points, then seeded off-grid points past the grid.
    checks = {count: run_suite("relation", seed=5, count=count).checks for count in (3, len(GRID), 30)}
    assert checks == {3: 21, len(GRID): 7 * len(GRID), 30: 210}
    assert run_suite("relation", seed=0).checks == 7 * len(GRID)
    on_grid = [format_results([run_suite("relation", seed=s, count=len(GRID))]) for s in (0, 3)]
    assert on_grid[0] == on_grid[1]
    off_grid = [run_suite("relation", seed=s, count=len(GRID) + 3) for s in (0, 3)]
    assert all(r.passed for r in off_grid)
    assert format_results(off_grid[:1]) != format_results(off_grid[1:])
