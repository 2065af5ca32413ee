from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import regretsynth as rs
import regretsynth.robust as robust
from regretsynth.regret import (KIND_ADDITIVE, KIND_COMPETITIVE, KIND_GENERAL, KIND_HINF,
                                bisect_gamma_j, regret_weighted_plant)

from conftest import random_generalized_plant, scalar_plant
from oracles import (additive_bisection_reference, cr_bisection_reference,
                     ray_point_reference, verify_regret_loop)


@pytest.fixture(scope="module")
def scalar_k0():
    P = scalar_plant()
    return P, rs.build_noncausal(P)


def test_level_kind_tags():
    assert rs.RegretLevel(1.0, 0.0).kind == KIND_HINF
    assert rs.RegretLevel(0.0, 2.0).kind == KIND_COMPETITIVE
    assert rs.RegretLevel(1.5, 1.0).kind == KIND_ADDITIVE
    assert rs.RegretLevel(1.5, 2.0).kind == KIND_GENERAL
    with pytest.raises(ValueError):
        rs.RegretLevel(-1.0, 0.0)


def test_zero_state_plants_synthesize():
    for seed in range(4):
        P = random_generalized_plant(seed, n=0)
        K0 = rs.build_noncausal(P)
        g_inf, _ = rs.hinf_optimize(P, 1e-4, 1e-4)
        results = [rs.synth_regret(P, rs.RegretLevel(0.5 * g_inf, 1.0), K0=K0)]
        results += [rs.optimize_special(P, kind, K0=K0)[1]
                    for kind in (KIND_COMPETITIVE, KIND_ADDITIVE)]
        front = rs.pareto_front(P, n_points=3, K0=K0, gamma_inf=g_inf)
        results += [point.result for point in front.points]
        for res in results:
            assert res.feasible and res.achieved_norm < res.gamma
        # d never reaches e: gamma_C and gamma_inf sit at the search's
        # floor, and the rays through the segment between them are finite
        assert 0.0 < front.metadata["gamma_c"] <= 1e-4 and g_inf <= 1e-4
        assert all(np.isfinite([p.ray, p.gamma_d]).all() for p in front.points)


def test_hinf_collapse(scalar_k0):
    # gamma_J = 0 must agree with plain H-infinity synthesis
    P, K0 = scalar_k0
    g_inf, _ = rs.hinf_optimize(P, 1e-4, 1e-4)
    res = rs.synth_regret(P, rs.RegretLevel.hinf(1.01 * g_inf), K0=K0)
    assert res.feasible
    res = rs.synth_regret(P, rs.RegretLevel.hinf(0.95 * g_inf), K0=K0)
    assert not res.feasible


def test_level_one_one_bound_sampled(scalar_k0):
    P, K0 = scalar_k0
    level = rs.RegretLevel(1.0, 1.0)
    res = rs.synth_regret(P, level, K0=K0)
    assert res.feasible
    rep = rs.verify_regret(res.controller, P, level, n_trials=200, seed=3,
                           K0=K0)
    assert rep.passed, rep
    assert rep.worst_margin < 0


def test_tightened_level_fails_verification(scalar_k0):
    P, K0 = scalar_k0
    level = rs.RegretLevel(1.0, 1.0)
    res = rs.synth_regret(P, level, K0=K0)
    tight = rs.RegretLevel(0.5, 0.5)
    rep = rs.verify_regret(res.controller, P, tight, n_trials=120, seed=4,
                           K0=K0)
    assert not rep.passed
    assert rep.worst_margin > 0


@pytest.mark.parametrize("n_trials", [0, -5])
def test_verify_regret_rejects_no_trials(scalar_k0, monkeypatch, n_trials):
    # with no trials the check would pass a controller that misses the level
    P, K0 = scalar_k0
    res = rs.synth_regret(P, rs.RegretLevel(1.0, 1.0), K0=K0)
    closed = []
    monkeypatch.setattr(rs.regret, "lft_lower", closed.append)
    with pytest.raises(ValueError, match="n_trials"):
        rs.verify_regret(res.controller, P, rs.RegretLevel(0.5, 0.5),
                         n_trials=n_trials, K0=K0)
    assert closed == []  # rejected before any work


def test_weighted_loop_stabilization_equivalence(scalar_k0):
    # K stabilizes F_L(P, K) iff it stabilizes the weighted loop
    P, K0 = scalar_k0
    level = rs.RegretLevel(1.0, 1.0)
    res = rs.synth_regret(P, level, K0=K0)
    K = res.controller
    assert rs.lft_lower(P, K).is_schur()
    assert res.closed_loop.is_schur()  # the weighted loop from synthesis


def test_optimize_special_cases(scalar_k0):
    P, K0 = scalar_k0
    g_inf, _ = rs.optimize_special(P, "hinf", 1e-4, 1e-4, K0=K0)
    g_c, _ = rs.optimize_special(P, "competitive-ratio", 1e-4, 1e-4, K0=K0)
    g_r, res_r = rs.optimize_special(P, "additive-regret", 1e-4, 1e-4, K0=K0)
    assert g_c >= 1.0  # competitive ratio can never beat the benchmark
    assert g_r <= g_inf + 1e-6  # additive regret never exceeds plain hinf
    assert res_r.metadata["kind"] == KIND_ADDITIVE


@pytest.mark.parametrize("name", ["scalar", "siso"])
def test_competitive_ratio_is_one_weighted_hinf_search(store, scalar_k0, name):
    if name == "scalar":
        P, K0 = scalar_k0
        g_c, res = rs.optimize_special(P, "competitive-ratio", 1e-4, 1e-4, K0=K0)
    else:
        P, K0 = store.nominal(name), store.k0(name)
        g_c, res = store.special(name, "competitive-ratio")
    g_ref, res_ref = cr_bisection_reference(P, K0)
    assert res_ref.feasible
    assert abs(g_c - g_ref) <= 1e-4 + 1e-4 * max(g_c, g_ref)
    # the certificate is the weighted H-infinity problem's, in the ratio's units
    assert res.feasible and res.gamma == g_c
    assert rs.hinf_norm(res.closed_loop) <= res.achieved_norm < g_c
    gd = res.metadata["gamma_d_regularized"]
    assert res.metadata["level"] == (0.0, g_c) and gd == rs.EPS_CR * g_c
    assert res.metadata["kind"] == KIND_COMPETITIVE
    # g_c's own verdict closes the record, unless the search fell back
    # and the search over decide_level certified g_c
    levels = res.metadata["search_levels"]
    if rs.hinf.fell_back(levels):
        assert dict(levels)[g_c] in ("below", "bracket")
    else:
        assert levels[-1] in ((g_c, "below"), (g_c, "bracket"))
        assert (g_c, "riccati_ok") in levels
    rep = rs.verify_regret(res.controller, P, rs.RegretLevel(gd, g_c),
                           n_trials=200, seed=5, K0=K0)
    assert rep.passed, rep


def test_optimize_special_records_its_levels(scalar_k0):
    P, K0 = scalar_k0
    tried = []

    def feasibility(level):
        res = rs.synth_regret(P, level, K0=K0)
        tried.append((level.gamma_d, res))
        return res

    g, res = rs.optimize_special(P, "additive-regret", 1e-3, 1e-3, K0=K0,
                                 feasibility=feasibility)
    levels = res.metadata["search_levels"]
    assert levels == tuple((gd, "feasible" if r.feasible else r.metadata["reason"])
                           for gd, r in tried)
    assert dict(levels)[g] == "feasible"
    # the trace leaves the search and its result alone
    _, hi, best = rs.hinf.bisect_level(
        lambda x: rs.synth_regret(P, rs.RegretLevel.additive(x), K0=K0), 1e-3, 1e-3)
    assert g == hi
    assert {k: v for k, v in res.metadata.items() if k != "search_levels"} == best.metadata
    for name in "ABCD":
        assert getattr(res.controller, name).tobytes() == \
            getattr(best.controller, name).tobytes()
    assert res.achieved_norm == best.achieved_norm


@pytest.mark.parametrize("name, tol, falls_back", [
    # the scalar plant's candidate at 0.82080078125 passes the Riccati
    # tests with a norm at the level
    ("scalar", (1e-4, 1e-4), True), ("siso", (1e-4, 1e-4), False),
    ("boeing747", (1e-2, 1e-3), False), ("quartercar", (1e-4, 1e-4), False)])
def test_additive_point_matches_the_bisection_over_synth_regret(
        store, scalar_k0, monkeypatch, name, tol, falls_back):
    P, K0 = scalar_k0 if name == "scalar" else (store.nominal(name), store.k0(name))
    calls = []
    for module, fn in ((rs.hinf, "norm_below"), (rs.regret, "synth_regret")):
        def counted(*args, _fn=getattr(module, fn), _name=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, fn, counted)
    g, res = rs.optimize_special(P, "additive-regret", *tol, K0=K0)
    monkeypatch.undo()
    levels = res.metadata["search_levels"]
    assert rs.hinf.fell_back(levels) == falls_back
    assert dict(levels)[g] in ("below", "bracket") and calls.count("synth_regret") == 1
    if not falls_back:
        # the Riccati tests decide the search, and norm_below only the
        # level returned
        assert calls.count("norm_below") == 1 and levels[-1][0] == g
        assert not {verdict for _, verdict in levels[:-1]} & {
            "below", "above", "bracket", "feasible"}
    # the point is the bisection's over synth_regret, bit for bit
    g_ref, ref = additive_bisection_reference(P, K0, *tol)
    assert g == g_ref and res.feasible and res.achieved_norm == ref.achieved_norm
    assert {k: v for k, v in res.metadata.items() if k != "search_levels"} == ref.metadata
    for m in "ABCD":
        assert getattr(res.controller, m).tobytes() == getattr(ref.controller, m).tobytes()


def test_additive_point_falls_back_when_its_returned_level_fails(scalar_k0, monkeypatch):
    # the first level returned reads above: the search runs again over
    # decide_level and returns a level certified on its own
    P, K0 = scalar_k0
    norm_below, seen = rs.hinf.norm_below, []

    def first_above(cl, gamma):
        seen.append(gamma)
        return False if len(seen) == 1 else norm_below(cl, gamma)

    monkeypatch.setattr(rs.hinf, "norm_below", first_above)
    g, res = rs.optimize_special(P, "additive-regret", 1e-3, 1e-3, K0=K0)
    monkeypatch.undo()
    levels = res.metadata["search_levels"]
    assert rs.hinf.fell_back(levels)
    first = next(lv for lv in levels if lv[1] in ("below", "above", "bracket"))
    assert first[1] == "above" and first[0] != g
    assert dict(levels)[g] in ("below", "bracket")
    assert res.feasible and res.gamma == 1.0 and res.achieved_norm < 1.0
    assert res.metadata["level"] == (g, 1.0)
    again = rs.synth_regret(P, rs.RegretLevel.additive(g), K0=K0)
    assert again.feasible and again.achieved_norm == res.achieved_norm


def test_pareto_front_scalar(scalar_k0):
    P, K0 = scalar_k0
    front = rs.pareto_front(P, n_points=5, tol_abs=1e-3, tol_rel=1e-3, K0=K0)
    gj = front.gamma_j_values()
    for p in front.points:
        assert dict(p.result.metadata["search_levels"])[p.gamma_j_upper] in (
            "below", "bracket")
    # dominance: non-increasing within bisection slack
    assert np.all(np.diff(gj) <= 1e-6 + 2 * (1e-3 + 1e-3 * gj[:-1]))
    # endpoints approach the special cases
    g_c, _ = rs.optimize_special(P, "competitive-ratio", 1e-3, 1e-3, K0=K0)
    assert gj[0] <= g_c * 1.05 + 2e-3
    assert gj[-1] <= 0.5 * gj[0]
    # independent per-point recomputation matches
    def feas(level):
        return rs.synth_regret(P, level, K0=K0)

    for p in front.points[:2]:
        again = bisect_gamma_j(feas, p.gamma_d, 1e-3, 1e-3)
        assert abs(again.gamma_j_upper - p.gamma_j_upper) <= 2 * (
            1e-3 + 1e-3 * p.gamma_j_upper
        )


@pytest.mark.parametrize("name, n_points, tol", [("scalar", 5, (1e-3, 1e-3)),
                                                 ("boeing747", 8, (1e-2, 1e-3))])
def test_oracle_front_points_are_cold_searches(store, scalar_k0, monkeypatch, name,
                                               n_points, tol):
    # each point of an oracle front (robust_pareto_front) is bisect_gamma_j
    # with a fresh oracle, here a nominal synth_regret one in place of DK
    if name == "scalar":
        P, K0 = scalar_k0
    else:
        P, K0 = store.nominal(name), store.k0(name)
    calls = []  # (gamma_d, gamma_J, result) of each call, one list per oracle

    def factory(unc, *, K0):
        calls.append([])

        def oracle(level, mine=calls[-1]):
            res = rs.synth_regret(unc.nominal(), level, K0=K0)
            mine.append((level.gamma_d, level.gamma_J, res))
            return res
        return oracle

    monkeypatch.setattr(robust, "dk_feasibility_oracle", factory)
    unc = SimpleNamespace(nominal=lambda: P)
    front = rs.robust_pareto_front(unc, n_points=n_points, tol_abs=tol[0],
                                   tol_rel=tol[1], K0=K0)
    nominal = rs.pareto_front(P, n_points=n_points, tol_abs=tol[0], tol_rel=tol[1], K0=K0)
    assert [p.gamma_d for p in front.points] == [p.gamma_d for p in nominal.points]
    assert len(calls) == n_points
    for p, called in zip(front.points, calls):
        cold = bisect_gamma_j(lambda level: rs.synth_regret(P, level, K0=K0),
                              p.gamma_d, *tol)
        assert (p.gamma_d, p.gamma_j_lower, p.gamma_j_upper, p.ray) == \
            (cold.gamma_d, cold.gamma_j_lower, cold.gamma_j_upper, None)
        assert p.result.feasible and p.result.achieved_norm == cold.result.achieved_norm
        for m in "ABCD":
            assert getattr(p.result.controller, m).tobytes() == \
                getattr(cold.result.controller, m).tobytes()
        levels = p.result.metadata["search_levels"]
        assert levels == cold.result.metadata["search_levels"]
        # the oracle was called once per recorded level, and only at gamma_d
        assert [(gd, gj) for gd, gj, _ in called] == [(p.gamma_d, g) for g, *_ in levels]
        # the metadata is the oracle's at the upper end plus the record
        at_upper = [res for _, gj, res in called if gj == p.gamma_j_upper]
        assert p.result.metadata == {**at_upper[-1].metadata, "search_levels": levels}


@pytest.mark.parametrize("name, n_points, tol", [("siso", 5, (1e-4, 1e-4)),
                                                 ("boeing747", 8, (1e-2, 1e-3)),
                                                 ("quartercar", 6, (1e-4, 1e-4))])
def test_ray_front_points_are_certified_at_their_own_levels(store, name, n_points, tol):
    P, K0 = store.nominal(name), store.k0(name)
    tol_abs, tol_rel = tol
    g_inf, _ = store.special(name, "hinf", tol_abs, tol_rel)
    front = rs.pareto_front(P, n_points=n_points, tol_abs=tol_abs, tol_rel=tol_rel,
                            K0=K0, gamma_inf=g_inf)
    rays = [p.ray for p in front.points]
    assert rays == sorted(rays)
    for p in front.points:
        lo, hi, r = p.gamma_j_lower, p.gamma_j_upper, p.ray
        assert p.gamma_d == r * hi and p.result.metadata["level"] == (p.gamma_d, hi)
        # the weighted problem's certificate, in gamma_J's units
        assert p.result.feasible and p.result.gamma == hi
        assert rs.hinf_norm(p.result.closed_loop) <= p.result.achieved_norm < hi
        # the bracket holds on gamma_d as well as on gamma_J
        assert r * (hi - lo) <= tol_abs + tol_rel * p.gamma_d
        # synthesized afresh at its own level, the point is met
        assert rs.synth_regret(P, rs.RegretLevel(p.gamma_d, hi), K0=K0).feasible
        # the point is the one a cold search over decide_level gives
        ref_lo, ref_hi, ref = ray_point_reference(P, K0, r, tol_abs, tol_rel)
        assert (lo, hi) == (ref_lo, ref_hi)
        assert p.result.achieved_norm == ref.achieved_norm
        for m in "ABCD":
            assert getattr(p.result.controller, m).tobytes() == \
                getattr(ref.controller, m).tobytes()
        # the ray's lower end is not met on the ray's plant, nor by a fresh
        # synthesis at (r lo, lo), but for a tie: a candidate whose norm
        # the fallback found at the level, which the other route may
        # place a roundoff below it.  Without a fallback the lower end's
        # candidate failed the Riccati tests.
        Pw, _ = regret_weighted_plant(P, K0, rs.RegretLevel(r, 1.0))
        assert 0.0 < lo and not rs.synth_hinf(Pw, lo).feasible
        fresh = rs.synth_regret(P, rs.RegretLevel(r * lo, lo), K0=K0)
        levels = p.result.metadata["search_levels"]
        verdict = dict(levels)[lo]
        assert verdict not in ("riccati_ok", "below")
        if rs.hinf.fell_back(levels) and verdict in ("above", "bracket"):
            assert not fresh.feasible or fresh.achieved_norm > 1.0 - 1e-6
        else:
            assert verdict not in ("above", "bracket") and not fresh.feasible
    # the steepest ray ends at gamma_inf, within the search's tolerance
    assert front.points[-1].gamma_d <= g_inf + tol_abs + tol_rel * g_inf


def test_ray_front_builds_one_factor_per_point(store, monkeypatch):
    # plus the factor of gamma_C's search, and no per-level synthesis:
    # one hinf_search per ray and one for gamma_C, each deciding by
    # norm_below only the level it returns and its fallback's levels
    P, K0 = store.nominal("boeing747"), store.k0("boeing747")
    g_inf, _ = store.special("boeing747", "hinf", 1e-2, 1e-3)
    calls = []
    for fn in ("spectral_factor_regret", "synth_regret"):
        def counted(*args, _fn=getattr(rs.regret, fn), _name=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rs.regret, fn, counted)
    searches, below = [], []
    search, norm_below = rs.regret.hinf_search, rs.hinf.norm_below
    monkeypatch.setattr(rs.regret, "hinf_search",
                        lambda *a, **k: searches.append(search(*a, **k)) or searches[-1])
    monkeypatch.setattr(rs.hinf, "norm_below",
                        lambda *a, **k: below.append(a) or norm_below(*a, **k))
    front = rs.pareto_front(P, n_points=8, tol_abs=1e-2, tol_rel=1e-3, K0=K0,
                            gamma_inf=g_inf)
    assert calls == ["spectral_factor_regret"] * 9
    assert len(searches) == 9
    assert [p.result.metadata["search_levels"] for p in front.points] == \
        [levels for *_, levels in searches[1:]]
    # norm_below decides at most the levels a record gives a norm
    # verdict: the level returned, and the fallback's levels after one
    decided = [v for *_, levels in searches for _, v in levels
               if v in ("below", "above", "bracket")]
    assert len(below) <= len(decided)


@pytest.mark.parametrize("n_points", [0, -3])
def test_fronts_reject_fewer_than_one_point(scalar_k0, monkeypatch, n_points):
    # an empty front has no point to report
    P, K0 = scalar_k0
    work = []
    monkeypatch.setattr(rs.regret, "hinf_search", work.append)
    with pytest.raises(ValueError, match="n_points"):
        rs.pareto_front(P, n_points=n_points, K0=K0)
    with pytest.raises(ValueError, match="n_points"):
        rs.robust_pareto_front(rs.build_example("siso"), n_points=n_points, K0=K0)
    assert work == []  # rejected before any work


def test_pareto_csv_rows(scalar_k0):
    P, K0 = scalar_k0
    front = rs.pareto_front(P, n_points=3, tol_abs=5e-3, tol_rel=5e-3, K0=K0)
    rows = front.csv_rows()
    assert len(rows) == 3
    for gd, lo, hi, norm, order in rows:
        assert lo <= hi and norm < 1.0 and order >= 1


@pytest.mark.parametrize("level, seed", [((1.0, 1.0), 3), ((0.5, 0.5), 4)])
def test_verify_regret_matches_per_trial_loop(scalar_k0, level, seed):
    P, K0 = scalar_k0
    K = rs.synth_regret(P, rs.RegretLevel(1.0, 1.0), K0=K0).controller
    level = rs.RegretLevel(*level)
    rep = rs.verify_regret(K, P, level, n_trials=120, seed=seed, K0=K0)
    assert rep == verify_regret_loop(K, P, level, n_trials=120, seed=seed, K0=K0)


def test_verify_regret_matches_per_trial_loop_two_disturbances():
    P = random_generalized_plant(5, n=4)
    K = rs.static_gain(np.zeros((P.n_u, P.n_y)), P.sample_time)
    level = rs.RegretLevel(3.0, 1.0)
    K0 = rs.build_noncausal(P)
    rep = rs.verify_regret(K, P, level, n_trials=90, seed=6, K0=K0)
    assert rep == verify_regret_loop(K, P, level, n_trials=90, seed=6, K0=K0)
    assert rep.n_trials == 90
