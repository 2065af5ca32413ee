"""The one doubling-and-bisection driver behind every gamma search."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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


STOP_BELOW = [(1e-3, 0.1), (0.7, 1.0), (0.7, 0.8), (3.3, 4.0), (3.3, 3.5),
              (1e6, 2.0**20)]


def starts_around(lo, hi):
    """Starts for a search whose cold answer is (lo, hi]: on it, a few
    final nodes off, 10% off, across the nearest power of two, at or
    below 1, and near the last doubling 2^59."""
    width = hi - lo
    power = 2.0 ** round(math.log2(hi))
    return [hi, hi + 3 * width, hi - 3 * width, hi + 0.5 * width, 1.1 * hi,
            0.9 * hi, 1.01 * power, 0.99 * power, 1.0, 0.25,
            2.0**59, 2.0**59 * (1 - 1e-12), 2.0**59 * 1.25]


@pytest.mark.parametrize("g_star", THRESHOLDS)
@pytest.mark.parametrize("tol_abs, tol_rel", TOLERANCES)
def test_a_start_gives_the_cold_bracket(g_star, tol_abs, tol_rel):
    lo, hi, _ = bisect_loop(Threshold(g_star), tol_abs, tol_rel)
    for start in starts_around(lo, hi):
        driver = Threshold(g_star)
        lo_w, hi_w, best = bisect_level(driver, tol_abs, tol_rel, start=start)
        assert (lo_w, hi_w) == (lo, hi), start
        assert best.level == hi
        assert len(driver.tried) == len(set(driver.tried)), start


# the three thresholds above 1 at every tolerance, and one whose final node
# has the lower end 1
ON_THE_ANSWER = [(g, *tol) for g in THRESHOLDS if g > 1.0 for tol in TOLERANCES] \
    + [(1.2, 0.5, 0.0)]


@pytest.mark.parametrize("g_star, tol_abs, tol_rel", ON_THE_ANSWER)
def test_a_start_on_the_answer_tries_its_final_node_only(g_star, tol_abs, tol_rel):
    lo, hi, _ = bisect_loop(Threshold(g_star), tol_abs, tol_rel)
    driver = Threshold(g_star)
    assert bisect_level(driver, tol_abs, tol_rel, start=hi)[:2] == (lo, hi)
    assert driver.tried == ([1.0, hi] if lo == 1.0 else [1.0, hi, lo])


class Jagged(Threshold):
    """Feasible above g_star except on a comb of levels: verdicts that are
    not monotone in g."""

    def __call__(self, g):
        self.tried.append(g)
        return SimpleNamespace(feasible=g >= self.g_star and int(g * 37.0) % 3 != 0,
                               level=g)


@pytest.mark.parametrize("tol_abs, tol_rel", TOLERANCES)
@pytest.mark.parametrize("start", [None, 1.0, 2.6, 2.9, 3.4, 5.0, 40.0])
def test_non_monotone_verdicts_still_give_a_bracket(tol_abs, tol_rel, start):
    driver = Jagged(2.5)
    lo, hi, best = bisect_level(driver, tol_abs, tol_rel, start=start)
    verdicts = {}
    for g in driver.tried:
        assert g not in verdicts
        verdicts[g] = Jagged(2.5)(g).feasible
    assert lo == 0.0 or verdicts[lo] is False
    assert verdicts[hi] is True and best.feasible and best.level == hi
    assert hi - lo <= tol_abs + tol_rel * hi


@pytest.mark.parametrize("g_star, stop_below", STOP_BELOW)
def test_stop_below_ends_at_first_feasible_level_under_it(g_star, stop_below):
    driver, reference = Threshold(g_star), Threshold(g_star)
    lo, hi, _ = bisect_level(driver, 1e-9, 1e-9, stop_below=stop_below)
    assert (lo, hi) == bisect_loop(reference, 1e-9, 1e-9, stop_below)[:2]
    assert driver.tried == reference.tried
    assert driver.tried[-1] == hi and g_star <= hi <= stop_below
    assert all(g > stop_below for g in driver.tried[:-1] if g >= g_star)


@pytest.mark.parametrize("g_star, stop_below", STOP_BELOW)
@pytest.mark.parametrize("scale", [1.0, 1.1, 0.9, 3.0])
def test_stop_below_with_a_start_ends_where_the_cold_search_does(g_star, stop_below,
                                                                 scale):
    lo, hi, _ = bisect_loop(Threshold(g_star), 1e-9, 1e-9, stop_below)
    driver = Threshold(g_star)
    assert bisect_level(driver, 1e-9, 1e-9, stop_below, start=scale * hi)[:2] == (lo, hi)
    assert len(driver.tried) == len(set(driver.tried))


def test_always_infeasible_raises_after_the_doublings():
    never = Threshold(float("inf"))
    with pytest.raises(NoFeasibleUpperBound):
        bisect_level(never, 1e-4, 1e-4)
    assert DOUBLING_LIMIT == 60
    assert never.tried == [2.0**k for k in range(DOUBLING_LIMIT)]


@pytest.mark.parametrize("start", [3.0, 2.0**40 * 1.3, 2.0**59, 2.0**59 * 1.5])
def test_always_infeasible_with_a_start_raises_after_every_doubling(start):
    never = Threshold(float("inf"))
    with pytest.raises(NoFeasibleUpperBound, match="up to 5.76e"):
        bisect_level(never, 1e-4, 1e-4, start=start)
    doublings = {2.0**k for k in range(DOUBLING_LIMIT)}
    assert doublings <= set(never.tried) and len(never.tried) == len(set(never.tried))
    # the other levels lie on start's path of the tree
    assert all(start / 2 < g < 2 * start for g in set(never.tried) - doublings)


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


_BISECT_IN_CHILD = """
import sys
from types import SimpleNamespace
from regretsynth.hinf import bisect_level
g_star, tol_abs, tol_rel = (float(arg) for arg in sys.argv[1:4])
start = None if sys.argv[4] == "None" else float(sys.argv[4])
lo, hi, _ = bisect_level(lambda g: SimpleNamespace(feasible=g >= g_star),
                         tol_abs, tol_rel, start=start)
sys.stdout.write(repr((lo, hi)))
"""


@pytest.mark.parametrize("g_star, tol_abs", [(1.8339, 1e-20), (1e17, 0.5)])
@pytest.mark.parametrize("with_start", [False, True])
def test_a_tolerance_below_the_float_spacing_ends_at_adjacent_floats(g_star, tol_abs,
                                                                     with_start):
    """With tol_rel 0, an absolute tolerance below the spacing of floats at
    the answer cannot be met; the search ends where the midpoint no longer
    splits the bracket.  The search runs in a child process with a
    timeout, so a search that never ends fails the test."""
    start = 1.01 * g_star if with_start else None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(rs.__file__).resolve().parents[1]),
                                         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _BISECT_IN_CHILD, repr(g_star),
                          repr(tol_abs), "0.0", repr(start)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    lo, hi = eval(out.stdout)
    assert lo < g_star <= hi
    assert not lo < 0.5 * (lo + hi) < hi


def test_hinf_optimize_runs_the_reference_search():
    P = random_generalized_plant(2)
    g, res = rs.hinf_optimize(P, 1e-3, 1e-3)
    _, hi, best = bisect_loop(lambda x: rs.synth_hinf(P, x), 1e-3, 1e-3)
    assert g == hi
    assert res.achieved_norm == best.achieved_norm
    assert res.controller.A.tobytes() == best.controller.A.tobytes()


def _controller_bytes(res):
    K = res.controller
    return tuple(getattr(K, m).tobytes() for m in "ABCD")


# seed -> a level the search visits whose closed-loop norm lies within the
# bracket's width under it: the bracket there says infeasible
AT_THE_NORM = {0: 3.879150390625, 3: 16.435546875, 6: 3.185302734375}
NORM_VERDICTS = {"below", "above", "bracket"}
CANDIDATE_VERDICTS = {"parrott", "R_singular", "X_riccati", "X_indefinite", "Y_riccati",
                      "Y_indefinite", "spectral_radius", "feedthrough_factorization",
                      "closed_loop_unstable"}
VERDICTS = NORM_VERDICTS | CANDIDATE_VERDICTS


def _split(levels):
    """A hinf_search record as (the first search's entries, the entry of
    the level it returned, the fallback's entries)."""
    k = next(i for i, (_, verdict) in enumerate(levels) if verdict in NORM_VERDICTS)
    return levels[:k], levels[k], levels[k + 1:]


def _check_record(levels, g):
    """The record's parts hold the verdicts of their searches; returns the
    levels of the search that gave ``g``."""
    first, (returned, verdict), fallback = _split(levels)
    assert {v for _, v in first} <= CANDIDATE_VERDICTS | {"riccati_ok"}
    assert (returned, "riccati_ok") in first
    assert {v for _, v in fallback} <= VERDICTS
    assert rs.hinf.fell_back(levels) == bool(fallback)
    if not fallback:
        assert returned == g and verdict in {"below", "bracket"}
        return [level for level, _ in first]
    assert verdict in {"above", "bracket"}
    assert dict(fallback)[g] in {"below", "bracket"}
    return [level for level, _ in fallback]


@pytest.mark.parametrize("seed", range(8))
def test_decided_search_matches_the_search_over_synth_hinf_bitwise(seed):
    P = random_generalized_plant(seed)
    g, res = rs.hinf_optimize(P, 1e-4, 1e-4)
    tried = []
    reference = random_generalized_plant(seed)
    _, hi, best = bisect_loop(lambda x: tried.append(x) or rs.synth_hinf(reference, x),
                              1e-4, 1e-4)
    levels = res.metadata["search_levels"]
    assert _check_record(levels, g) == tried
    # a level passes the Riccati tests exactly when synth_hinf gets a
    # stable candidate to bracket, and fails with synth_hinf's reason
    for level, verdict in _split(levels)[0]:
        reason = rs.synth_hinf(reference, level).metadata["reason"]
        assert verdict == ("riccati_ok" if reason in (
            "ok", "norm_at_level", "norm_uncertified") else reason)
    assert np.float64(g).tobytes() == np.float64(hi).tobytes()
    assert _controller_bytes(res) == _controller_bytes(best)
    assert np.float64(res.achieved_norm).tobytes() == \
        np.float64(best.achieved_norm).tobytes()
    assert res.metadata["norm_bracket"] == best.metadata["norm_bracket"]
    assert {k: v for k, v in res.metadata.items() if k != "search_levels"} == best.metadata
    if seed in AT_THE_NORM:
        level = AT_THE_NORM[seed]
        assert (level, "bracket") in levels
        at = rs.synth_hinf(reference, level)
        assert not at.feasible and at.metadata["reason"] == "norm_at_level"
        assert at.metadata["norm_bracket"][0] < level


def _count_calls(monkeypatch, name):
    """Arguments of every call of ``hinf.<name>`` from now on."""
    calls = []
    func = getattr(rs.hinf, name)
    monkeypatch.setattr(rs.hinf, name, lambda *a, **k: calls.append(a) or func(*a, **k))
    return calls


def test_search_brackets_only_undecided_levels_and_the_result(monkeypatch):
    P = random_generalized_plant(1)
    brackets = _count_calls(monkeypatch, "hinf_norm")
    g, res = rs.hinf_optimize(P, 1e-4, 1e-4)
    levels = res.metadata["search_levels"]
    # no level of the first search is bracketed, and its returned level
    # is decided by norm_below, so the one bracket is hinf_optimize's
    first, returned, fallback = _split(levels)
    assert returned == (g, "below") and not fallback
    assert {v for _, v in first} <= CANDIDATE_VERDICTS | {"riccati_ok"}
    assert len(brackets) == 1
    assert brackets[-1][0] is res.closed_loop
    assert res.feasible and res.achieved_norm < g


def test_a_search_without_fallback_decides_one_norm(monkeypatch):
    P = random_generalized_plant(1)
    below = _count_calls(monkeypatch, "norm_below")
    brackets = _count_calls(monkeypatch, "hinf_norm")
    lo, g, res, levels = rs.hinf_search(P, 1e-4, 1e-4)
    assert not rs.hinf.fell_back(levels)
    # the bracket's lower end is a level whose candidate failed
    assert 0.0 < lo < g and dict(levels)[lo] in CANDIDATE_VERDICTS
    assert len(below) == 1 and below[0][1] == g
    assert not brackets
    assert isinstance(res, rs.hinf._Decided) and res.feasible


def test_a_returned_level_that_fails_falls_back_to_the_decided_search(monkeypatch):
    P = random_generalized_plant(0)
    candidates = _count_calls(monkeypatch, "_candidate")
    lo, g, res, levels = rs.hinf_search(P, 1e-4, 1e-4)
    first, (returned, verdict), fallback = _split(levels)
    # the first search returned a level whose norm is not below it
    assert rs.hinf.fell_back(levels) and fallback
    assert (returned, "riccati_ok") in first and verdict in {"above", "bracket"}
    # no level is synthesized twice
    assert [a[1] for a in candidates] == list(dict.fromkeys(level for level, _ in levels))
    assert not rs.synth_hinf(random_generalized_plant(0), returned).feasible
    # the fallback is the search over synth_hinf, bit for bit
    tried = []
    reference = random_generalized_plant(0)
    lo_ref, hi, best = bisect_loop(
        lambda x: tried.append(x) or rs.synth_hinf(reference, x), 1e-4, 1e-4)
    assert [level for level, _ in fallback] == tried
    assert np.float64(g).tobytes() == np.float64(hi).tobytes() and g > returned
    # the lower end is the fallback's
    assert lo == lo_ref
    assert _controller_bytes(res) == _controller_bytes(best)
    br = rs.hinf_norm(rs.lft_lower(P, res.controller), return_bracket=True)
    assert br.certified and br.upper < g
    assert rs.hinf.certify_returned(g, res).achieved_norm == best.achieved_norm


@pytest.mark.parametrize("seed", range(8))
def test_hinf_search_matches_hinf_optimize_bitwise(seed, monkeypatch):
    P = random_generalized_plant(seed)
    brackets = _count_calls(monkeypatch, "hinf_norm")
    # the norms of these plants are above 1, so only 64 ends a search early
    for stop_below in (None, 1.0, 64.0):
        brackets.clear()
        lo, g, res, levels = rs.hinf_search(P, 1e-4, 1e-4, stop_below)
        # one bracket per undecided level, none for the level returned
        assert len(brackets) == len({level for level, v in levels if v == "bracket"})
        if stop_below is None:
            g_opt, res_opt = rs.hinf_optimize(P, 1e-4, 1e-4)
            assert levels == res_opt.metadata["search_levels"]
        else:
            # hinf_optimize takes no stop_below: the reference is the
            # search over synth_hinf that stops where this one does
            tried = []
            lo_opt, g_opt, res_opt = bisect_loop(
                lambda x: tried.append(x) or rs.synth_hinf(P, x), 1e-4, 1e-4, stop_below)
            assert _check_record(levels, g) == tried
            assert lo == lo_opt
        assert np.float64(g).tobytes() == np.float64(g_opt).tobytes()
        assert _controller_bytes(res) == _controller_bytes(res_opt)
        assert res.feasible


def test_a_decision_the_bracket_contradicts_raises(monkeypatch):
    # a bracket that runs out of levels certifies nothing, so the level
    # the decisions returned is not feasible by the bracket
    monkeypatch.setattr(rs.norms, "_MAX_LEVELS", 0)
    with pytest.raises(rs.errors.RegretSynthError, match="contradicts"):
        rs.hinf_optimize(random_generalized_plant(1), 1e-4, 1e-4)
