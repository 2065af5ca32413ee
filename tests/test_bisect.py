"""The one doubling-and-bisection driver behind every gamma search."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import regretsynth as rs
from regretsynth.errors import NoFeasibleUpperBound
from regretsynth.hinf import DOUBLING_LIMIT, bisect_level

from conftest import random_generalized_plant
from oracles import bisect_loop

THRESHOLDS = (1e-3, 0.7, 1.0, 3.3, 1e6)
TOLERANCES = ((1e-4, 1e-4), (1e-2, 1e-3), (0.0, 1e-6), (0.5, 0.0))


class Threshold:
    """Feasible iff g >= g_star; records every level it is asked about."""

    def __init__(self, g_star: float):
        self.g_star = g_star
        self.tried = []

    def __call__(self, g):
        self.tried.append(g)
        return SimpleNamespace(feasible=g >= self.g_star, level=g)


@pytest.mark.parametrize("g_star", THRESHOLDS)
@pytest.mark.parametrize("tol_abs, tol_rel", TOLERANCES)
def test_driver_tries_the_reference_levels_and_brackets(g_star, tol_abs, tol_rel):
    driver, reference = Threshold(g_star), Threshold(g_star)
    lo, hi, best = bisect_level(driver, tol_abs, tol_rel)
    assert (lo, hi) == bisect_loop(reference, tol_abs, tol_rel)[:2]
    assert driver.tried == reference.tried
    assert best.feasible and best.level == hi >= g_star
    assert lo == 0.0 or lo < g_star
    assert hi - lo <= tol_abs + tol_rel * hi


@pytest.mark.parametrize("g_star, stop_below",
                         [(1e-3, 0.1), (0.7, 1.0), (0.7, 0.8), (3.3, 4.0),
                          (3.3, 3.5), (1e6, 2.0**20)])
def test_stop_below_ends_at_first_feasible_level_under_it(g_star, stop_below):
    driver, reference = Threshold(g_star), Threshold(g_star)
    lo, hi, _ = bisect_level(driver, 1e-9, 1e-9, stop_below=stop_below)
    assert (lo, hi) == bisect_loop(reference, 1e-9, 1e-9, stop_below)[:2]
    assert driver.tried == reference.tried
    assert driver.tried[-1] == hi and g_star <= hi <= stop_below
    assert all(g > stop_below for g in driver.tried[:-1] if g >= g_star)


def test_always_infeasible_raises_after_the_doublings():
    never = Threshold(float("inf"))
    with pytest.raises(NoFeasibleUpperBound):
        bisect_level(never, 1e-4, 1e-4)
    assert DOUBLING_LIMIT == 60
    assert never.tried == [2.0**k for k in range(DOUBLING_LIMIT)]


class LevelBudget(Threshold):
    """A threshold oracle that fails the test once it has been asked about
    200 levels, where a search with a reachable stopping rule is done."""

    def __call__(self, g):
        if len(self.tried) >= 200:
            raise RuntimeError("bisection did not stop after 200 levels")
        return super().__call__(g)


@pytest.mark.parametrize("tol_abs, tol_rel",
                         [(0.0, 0.0), (-1.0, 1e-4), (1e-4, -1.0),
                          (float("nan"), 1e-4), (1e-4, float("nan")),
                          (float("inf"), 0.0)])
def test_unreachable_tolerances_raise_before_any_level(tol_abs, tol_rel):
    oracle = LevelBudget(0.7)
    with pytest.raises(ValueError):
        bisect_level(oracle, tol_abs, tol_rel)
    assert oracle.tried == []


def test_hinf_optimize_runs_the_reference_search():
    P = random_generalized_plant(2)
    g, res = rs.hinf_optimize(P, 1e-3, 1e-3)
    _, hi, best = bisect_loop(lambda x: rs.synth_hinf(P, x), 1e-3, 1e-3)
    assert g == hi
    assert res.achieved_norm == best.achieved_norm
    assert res.controller.A.tobytes() == best.controller.A.tobytes()
