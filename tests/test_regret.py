from __future__ import annotations

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.regret import KIND_ADDITIVE, KIND_COMPETITIVE, KIND_GENERAL, KIND_HINF

from conftest import random_generalized_plant, scalar_plant
from oracles import cr_bisection_reference, verify_regret_loop


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
        rs.RegretLevel(1.0, 1.0, KIND_HINF)
    with pytest.raises(ValueError):
        rs.RegretLevel(-1.0, 0.0)


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
    assert dict(res.metadata["search_levels"])[g_c] in ("below", "bracket")
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


def test_pareto_front_scalar(scalar_k0):
    P, K0 = scalar_k0
    front = rs.pareto_front(P, n_points=5, tol_abs=1e-3, tol_rel=1e-3, K0=K0)
    gj = front.gamma_j_values()
    for p in front.points:
        assert dict(p.result.metadata["search_levels"])[p.gamma_j_upper] == "feasible"
    # dominance: non-increasing within bisection slack
    assert np.all(np.diff(gj) <= 1e-6 + 2 * (1e-3 + 1e-3 * gj[:-1]))
    # endpoints approach the special cases
    g_c, _ = rs.optimize_special(P, "competitive-ratio", 1e-3, 1e-3, K0=K0)
    assert gj[0] <= g_c * 1.05 + 2e-3
    assert gj[-1] <= 0.5 * gj[0]
    # independent per-point recomputation matches
    from regretsynth.regret import _bisect_gamma_j

    def feas(level):
        return rs.synth_regret(P, level, K0=K0)

    for p in front.points[:2]:
        again = _bisect_gamma_j(feas, p.gamma_d, 1e-3, 1e-3)
        assert abs(again.gamma_j_upper - p.gamma_j_upper) <= 2 * (
            1e-3 + 1e-3 * p.gamma_j_upper
        )


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
    rep = rs.verify_regret(K, P, level, n_trials=90, seed=6)
    assert rep == verify_regret_loop(K, P, level, n_trials=90, seed=6)
    assert rep.n_trials == 90
