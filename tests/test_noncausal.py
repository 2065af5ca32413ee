from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import regretsynth as rs
import regretsynth.noncausal as noncausal
from regretsynth.errors import RegretSynthError

from conftest import random_generalized_plant, random_stable_ss, scalar_plant
from oracles import (decay_rate, noncausal_cost_loop, noncausal_cost_per_trial,
                     noncausal_response, simulate_ehat)


def qp_oracle(P, d, pad=80):
    """Finite-horizon least-squares optimum with boundary padding.

    Builds e = M_u u + offset over a padded horizon and minimizes over
    the full control sequence.
    """
    T = len(d) + 2 * pad
    dd = np.zeros((T, P.n_d))
    dd[pad : pad + len(d)] = d.samples
    n, nu, ne = P.n_x, P.n_u, P.n_e
    # x_t = sum_{k<t} A^{t-1-k} (B_d d_k + B_u u_k)
    rows_x = np.zeros((T * ne, T * nu))
    rhs = np.zeros(T * ne)
    x_d = np.zeros((T + 1, n))
    powers = [np.linalg.matrix_power(P.A, k) for k in range(T + 1)]
    for t in range(T):
        x_d[t + 1] = P.A @ x_d[t] + P.B_d @ dd[t]
    impulse = [powers[k] @ P.B_u for k in range(T)]
    for t in range(T):
        rhs[t * ne : (t + 1) * ne] = P.C_e @ x_d[t]
        for k in range(t):
            blk = P.C_e @ impulse[t - 1 - k]
            rows_x[t * ne : (t + 1) * ne, k * nu : (k + 1) * nu] = blk
        rows_x[t * ne : (t + 1) * ne, t * nu : (t + 1) * nu] += P.D_eu
    u, *_ = np.linalg.lstsq(rows_x, -rhs, rcond=None)
    return float(np.sum((rows_x @ u + rhs) ** 2))


def random_stabilizing_controller(rng, P, max_tries=50):
    for _ in range(max_tries):
        K = random_stable_ss(rng, int(rng.integers(1, 3)), P.n_y, P.n_u,
                             rho=0.5)
        K = rs.StateSpace(K.A, K.B, 0.3 * K.C, 0.3 * K.D, K.sample_time)
        if rs.lft_lower(P, K).is_schur():
            return K
    raise RuntimeError("no stabilizing controller found")


def test_scalar_gains_closed_form():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    X = K0.X[0, 0]
    assert abs(X - (0.25 + np.sqrt(4.0625)) / 2) < 1e-9
    assert abs(K0.K_x[0, 0] - 0.5 * X / (1 + X)) < 1e-12
    assert abs(K0.H[0, 0] - (1 + X)) < 1e-12
    assert abs(K0.K_v[0, 0] - 1 / (1 + X)) < 1e-12
    assert abs(K0.K_d[0, 0] - X / (1 + X)) < 1e-12


def test_kd_equals_kv_x_bd():
    for seed in range(4):
        P = random_generalized_plant(seed)
        K0 = rs.build_noncausal(P)
        assert np.allclose(K0.K_d, K0.K_v @ K0.X @ P.B_d, atol=1e-12)
        assert decay_rate(K0) < 1.0
        assert np.abs(np.linalg.det(K0.A11)) > 0


def test_static_plant():
    # no states: e = D_eu u, so the non-causal optimum costs nothing
    rng = np.random.default_rng(0)
    for seed in range(4):
        P = random_generalized_plant(seed, n=0)
        K0 = rs.build_noncausal(P)
        assert K0.X.shape == (0, 0)
        d = rs.Signal(0, rng.standard_normal((10, P.n_d)))
        assert rs.eval_noncausal_cost(K0, d) == 0.0


def test_decoupled_disturbance():
    # B_d = 0: K_d = 0 and the benchmark cost vanishes
    ss = rs.StateSpace([[0.5]], [[0.0, 1.0]], [[1.0], [0.0], [1.0]],
                       [[0, 0], [0, 1.0], [0, 0]], 1.0)
    P = rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=2, n_y=1)
    K0 = rs.build_noncausal(P)
    assert np.max(np.abs(K0.K_d)) == 0.0
    rng = np.random.default_rng(0)
    d = rs.Signal(0, rng.standard_normal((10, 1)))
    assert rs.eval_noncausal_cost(K0, d) < 1e-20


def test_zero_disturbance_zero_cost():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    assert rs.eval_noncausal_cost(K0, rs.Signal(0, np.zeros((5, 1)))) == 0.0


def test_qp_oracle_scalar():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    rng = np.random.default_rng(42)
    d = rs.Signal(0, rng.standard_normal((20, 1)))
    J = rs.eval_noncausal_cost(K0, d)
    Jq = qp_oracle(P, d)
    assert abs(J - Jq) / Jq < 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_qp_oracle_random_plants(seed):
    P = random_generalized_plant(seed)
    K0 = rs.build_noncausal(P)
    rng = np.random.default_rng(seed + 100)
    d = rs.Signal(0, rng.standard_normal((15, P.n_d)))
    J = rs.eval_noncausal_cost(K0, d)
    Jq = qp_oracle(P, d)
    assert abs(J - Jq) / (1 + Jq) < 1e-6


def test_optimality_against_stabilizing_controllers():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    rng = np.random.default_rng(5)
    for _ in range(50):
        K = random_stabilizing_controller(rng, P)
        cl = rs.lft_lower(P, K)
        for _ in range(5):
            d = rs.Signal(0, rng.standard_normal((int(rng.integers(4, 25)), 1)))
            j_k = rs.simulate(cl, d).norm_sq()
            j_0 = rs.eval_noncausal_cost(K0, d)
            assert j_0 <= j_k + 1e-9 * (1 + j_k)


def test_phat_structure_and_identity():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (1.0, 1.0))
    n = P.n_x
    # block triangular with Schur and anti-Schur diagonal blocks
    assert np.max(np.abs(phat.A_hat[n:, :n])) == 0.0
    assert np.max(np.abs(np.linalg.eigvals(phat.A_hat[:n, :n]))) < 1.0
    assert np.min(np.abs(np.linalg.eigvals(phat.A_hat[n:, n:]))) > 1.0
    assert np.allclose(phat.D_hat.T @ phat.D_hat,
                       phat.gamma_d**2 * np.eye(P.n_d), atol=1e-14)
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = rs.Signal(0, rng.standard_normal((int(rng.integers(5, 30)), 1)))
        lhs = simulate_ehat(phat, d).norm_sq()
        rhs = d.norm_sq() + rs.eval_noncausal_cost(K0, d)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_phat_gamma_j_zero():
    P = random_generalized_plant(3)
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (2.0, 0.0))
    assert np.max(np.abs(phat.C_hat)) == 0.0
    rng = np.random.default_rng(7)
    d = rs.Signal(0, rng.standard_normal((12, P.n_d)))
    assert abs(simulate_ehat(phat, d).norm_sq() - 4.0 * d.norm_sq()) < 1e-10 * (
        1 + d.norm_sq()
    )


def test_per_step_identity_telescopes_for_any_input():
    # summed over a padded window the cost identity holds for arbitrary u
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    rng = np.random.default_rng(8)
    d = rs.Signal(0, rng.standard_normal((12, 1)))
    t0, x_opt, u_opt, e_opt, v = noncausal_response(K0, d)
    T = len(u_opt)
    din = d.on_window(t0, t0 + T - 1)
    # arbitrary decaying input
    u = 0.2 * rng.standard_normal((T, 1))
    u[: T // 4] = 0.0
    u[-T // 4 :] = 0.0
    x = np.zeros((T + 1, 1))
    for k in range(T):
        x[k + 1] = P.A @ x[k] + P.B_d @ din[k] + P.B_u @ u[k]
    j_direct = 0.0
    for k in range(T):
        e = P.C_e @ x[k] + P.D_eu @ u[k]
        j_direct += float(e @ e)
    # right side of the summed identity
    j_id = 0.0
    H = K0.H
    BdX = P.B_d.T @ K0.X @ P.B_d
    for k in range(T):
        u_o = -K0.K_x @ x[k] - K0.K_v @ v[k + 1] - K0.K_d @ din[k]
        w = K0.K_d @ din[k] + K0.K_v @ v[k + 1]
        j_id += float((u[k] - u_o) @ H @ (u[k] - u_o))
        j_id -= float(w @ H @ w)
        j_id += float(din[k] @ BdX @ din[k]) + 2 * float(v[k + 1] @ (P.B_d @ din[k]))
    assert abs(j_direct - j_id) <= 1e-8 * (1 + abs(j_direct))


def test_backward_recursion_contracts():
    P = random_generalized_plant(9)
    K0 = rs.build_noncausal(P)
    rng = np.random.default_rng(10)
    d = rs.Signal(0, rng.standard_normal((10, P.n_d)))
    t0, _, _, _, v = noncausal_response(K0, d)
    # state norm decays geometrically toward the window start
    pre = v[: d.t0 - t0]
    norms = np.linalg.norm(pre, axis=1)
    nz = norms[norms > 1e-300]
    assert nz[0] <= 1e-10 * (1 + np.max(np.linalg.norm(v, axis=1)))


def test_cost_matches_per_step_reference(monkeypatch):
    plants = [scalar_plant()] + [random_generalized_plant(seed, n=n, rho=rho)
                                 for seed, n, rho in ((31, 2, 0.5), (32, 4, 0.9),
                                                      (33, 6, 0.7))]
    rng = np.random.default_rng(30)
    for P in plants:
        K0 = rs.build_noncausal(P)
        for length in (1, 6, 40, 120):
            d = rs.Signal(0, rng.standard_normal((length, P.n_d)))
            ref = noncausal_cost_loop(K0, d)
            assert abs(rs.eval_noncausal_cost(K0, d) - ref) <= 1e-12 * ref
        with monkeypatch.context() as patch, \
                pytest.raises(RegretSynthError, match="cross-check"):
            patch.setattr(noncausal, "_CROSS_CHECK_REL", -1.0)
            rs.eval_noncausal_cost(K0, d)


def test_cost_solves_its_stein_equations_once_per_controller(schur_stein_calls):
    K0 = rs.build_noncausal(random_generalized_plant(34, n=3))
    schur_stein_calls.clear()  # the DARE's own Newton polish
    rng = np.random.default_rng(35)
    ds = [rs.Signal(0, rng.standard_normal((L, 2))) for L in (4, 30, 70)]
    costs = [rs.eval_noncausal_cost(K0, d) for d in ds for _ in range(2)]
    assert schur_stein_calls == [3, 3, 3]  # M, G_pre, G_cf
    # a fresh controller with the same matrices solves again, to the same bits
    fresh = dataclasses.replace(K0)
    assert [rs.eval_noncausal_cost(fresh, d) for d in ds for _ in range(2)] == costs
    assert len(schur_stein_calls) == 6


def test_costs_match_per_step_reference_in_mixed_batches():
    plants = [scalar_plant()] + [random_generalized_plant(seed, n=n, rho=rho)
                                 for seed, n, rho in ((36, 2, 0.5), (37, 5, 0.9))]
    rng = np.random.default_rng(38)
    lengths = (37, 1, 128, 5, 16, 90, 2, 127, 8)
    for P in plants:
        K0 = rs.build_noncausal(P)
        ds = [rs.Signal(0, np.zeros((L, P.n_d)) if L == 5 else
                        rng.standard_normal((L, P.n_d))) for L in lengths]
        costs = rs.eval_noncausal_cost(K0, ds)
        assert costs.shape == (len(ds),)
        assert costs[lengths.index(5)] == 0.0
        for d, cost in zip(ds, costs):
            if d.norm_sq() == 0.0:
                continue
            ref = noncausal_cost_loop(K0, d)
            assert abs(cost - ref) <= 1e-12 * ref
            # the same bits as the signal on its own
            assert cost == noncausal_cost_per_trial(K0, d)
            assert cost == rs.eval_noncausal_cost(K0, d)
        assert rs.eval_noncausal_cost(K0, []).shape == (0,)
        (cost,) = rs.eval_noncausal_cost(K0, ds[:1])
        assert cost == costs[0]
        single = rs.eval_noncausal_cost(K0, ds[0])
        assert type(single) is float and single == cost


def test_cross_check_raises_from_inside_a_batch(monkeypatch):
    P = random_generalized_plant(39, n=3)
    K0 = rs.build_noncausal(P)
    rng = np.random.default_rng(40)
    zero = rs.Signal(0, np.zeros((6, P.n_d)))
    ds = [zero, rs.Signal(0, rng.standard_normal((20, P.n_d))), zero]
    monkeypatch.setattr(noncausal, "_CROSS_CHECK_REL", -1.0)
    with pytest.raises(RegretSynthError, match="cross-check"):
        rs.eval_noncausal_cost(K0, ds)
    # zero signals are not simulated, so they pass any cross-check
    assert list(rs.eval_noncausal_cost(K0, [zero, zero])) == [0.0, 0.0]


# a unit step long enough that the simulated cost and the
# completion-of-squares sum differed by 1.2e-8 of 1 + |cost|
_LONG_STEP = 400_000


def _siso_input(kind, length, n_d):
    if kind == "step":
        return rs.Signal(0, np.ones((length, n_d)))
    return rs.Signal(0, np.random.default_rng(42).standard_normal((length, n_d)))


def test_cross_check_holds_on_a_long_step(store):
    K0 = store.k0("siso")
    d = _siso_input("step", _LONG_STEP, K0.plant.n_d)
    assert 0.0 < rs.eval_noncausal_cost(K0, d) < np.inf


@pytest.mark.parametrize("gain, factor", [("K_v", 1 + 1e-9), ("K_x", 1 + 1e-9),
                                          ("K_v", 1 + 1e-7)])
@pytest.mark.parametrize("kind, length", [("white", 60), ("step", _LONG_STEP)])
def test_cross_check_catches_wrong_gains(store, gain, factor, kind, length):
    # the gate scales with the terms of the sum, not with the cost, so a
    # gain off by 1e-9 shows on short and on long inputs alike
    K0 = store.k0("siso")
    wrong = dataclasses.replace(K0, **{gain: getattr(K0, gain) * factor})
    with pytest.raises(RegretSynthError, match="cross-check"):
        rs.eval_noncausal_cost(wrong, _siso_input(kind, length, K0.plant.n_d))


def test_response_window_ends_when_the_state_is_negligible():
    # the mode at 1 - 1e-4 is neither driven nor weighted: a window sized
    # from the decay rate would pad 276,000 steps on each side
    ss = rs.StateSpace(np.diag([0.5, 1.0 - 1e-4]), [[1.0, 1.0], [0.0, 0.0]],
                       [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                       [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]], 1.0)
    P = rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=2, n_y=1)
    K0 = rs.build_noncausal(P)
    assert decay_rate(K0) > 1.0 - 2e-4
    d = rs.Signal(3, np.random.default_rng(41).standard_normal((50, 1)))
    t0, x, u, e, v = noncausal_response(K0, d)
    assert len(e) < len(d) + 200 and t0 < d.t0
    assert x.shape[0] == v.shape[0] == len(e) + 1 == len(u) + 1
    J = rs.eval_noncausal_cost(K0, d)
    assert abs(np.sum(e * e) - J) <= 1e-9 * J


def test_quartercar_response_window(store):
    # the quarter car's slow mode (0.9991) is driven, so its window stays
    # long; sizing both sides from the decay rate gave 61,440 samples
    K0 = store.k0("quartercar")
    d = rs.Signal(0, np.random.default_rng(0).standard_normal((50, K0.plant.n_d)))
    t0, x, u, e, v = noncausal_response(K0, d)
    assert len(e) < 45_000
    J = rs.eval_noncausal_cost(K0, d)
    assert abs(np.sum(e * e) - J) <= 1e-9 * J
