from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import regretsynth as rs
from regretsynth.errors import NotDetectable, NotStabilizable

from conftest import random_generalized_plant
from oracles import care_sign_reference


def test_random_plants_optimize_and_validate():
    for seed in range(4):
        P = random_generalized_plant(seed)
        g, res = rs.hinf_optimize(P, 1e-4, 1e-4)
        assert res.feasible
        assert res.achieved_norm < g
        assert res.controller.n_x <= P.n_x
        # certificate is recomputed from scratch
        cl = rs.lft_lower(P, res.controller)
        assert cl.is_schur()
        assert abs(rs.hinf_norm(cl) - res.achieved_norm) < 1e-9
        # beats the open loop
        assert g < rs.hinf_norm(P.ed_subsystem()) + 1e-9


def test_static_plant_optimizes_and_validates():
    for seed in range(4):
        P = random_generalized_plant(seed, n=0)
        g, res = rs.hinf_optimize(P, 1e-4, 1e-4)
        assert res.feasible and res.controller.n_x == 0
        # the static controller's certified norm is below its level
        assert res.achieved_norm < g
        assert rs.hinf_norm(rs.lft_lower(P, res.controller)) <= res.achieved_norm


def test_synthesis_records_the_norm_bracket(monkeypatch):
    P = random_generalized_plant(1)
    g, res = rs.hinf_optimize(P, 1e-4, 1e-4)
    lower, upper = res.metadata["norm_bracket"]
    assert upper == res.achieved_norm < g
    assert lower <= upper <= lower * (1 + 2e-9) * (1 + 1e-15)
    assert res.metadata["norm_status"] in ("no_crossing", "peaks_below")
    assert res.metadata["norm_iterations"] >= 1
    # the bracket is the one hinf_norm gives for the returned closed loop
    br = rs.hinf_norm(res.closed_loop, return_bracket=True)
    assert (br.lower, br.upper) == (lower, upper)
    # a closed loop whose norm the iteration cannot certify is never feasible
    monkeypatch.setattr(rs.norms, "_MAX_LEVELS", 0)
    stalled = rs.synth_hinf(P, 2.0 * upper)
    assert not stalled.feasible
    assert stalled.metadata["reason"] == "norm_uncertified"
    assert stalled.metadata["norm_status"] == "iteration_limit"
    assert stalled.achieved_norm == np.inf


def test_feasibility_monotone_ladder():
    P = random_generalized_plant(5)
    g, _ = rs.hinf_optimize(P, 1e-3, 1e-3)
    for factor in (1.05, 1.2, 1.5, 2.0, 4.0):
        assert rs.synth_hinf(P, g * factor).feasible, factor
    assert not rs.synth_hinf(P, 0.5 * g).feasible


def test_bisection_matches_grid_scan():
    P = random_generalized_plant(6)
    g, _ = rs.hinf_optimize(P, 1e-4, 1e-4)
    grid = np.linspace(0.8 * g, 1.3 * g, 41)
    verdicts = [rs.synth_hinf(P, x).feasible for x in grid]
    first = next(i for i, v in enumerate(verdicts) if v)
    # no feasible level below the bisected optimum beyond tolerance
    assert grid[first] >= g - (1e-4 + 1e-4 * g) - 1e-12
    assert all(verdicts[first:])


def test_decoupled_control_trivial():
    # e(z) = 0.5 d(z) / z with u having no effect on e: optimum is 0.5
    ss = rs.StateSpace([[0.0]], [[0.5, 0.0]], [[1.0], [1.0]],
                       [[0.0, 0.0], [0.3, 0.0]], 1.0)
    P = rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=1, n_y=1)
    assert rs.synth_hinf(P, 0.6).feasible
    assert not rs.synth_hinf(P, 0.45).feasible
    g, _ = rs.hinf_optimize(P, 1e-4, 1e-4)
    assert abs(g - 0.5) < 0.01


def test_not_stabilizable_raises():
    ss = rs.StateSpace([[2.0]], [[1.0, 0.0]], [[1.0], [1.0]],
                       [[0.0, 1.0], [0.5, 0.0]], 1.0)
    P = rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=1, n_y=1)
    # the margin is kept on the plant; the verdict is raised on every call
    for gamma in (1.0, 2.0):
        with pytest.raises(NotStabilizable):
            rs.synth_hinf(P, gamma)
    with pytest.raises(NotStabilizable):
        rs.hinf_optimize(P)


def test_not_detectable_raises():
    ss = rs.StateSpace([[2.0]], [[1.0, 1.0]], [[1.0], [0.0]],
                       [[0.0, 1.0], [0.5, 0.0]], 1.0)
    P = rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=1, n_y=1)
    for gamma in (1.0, 2.0):
        with pytest.raises(NotDetectable):
            rs.synth_hinf(P, gamma)


def test_zero_disturbance_path():
    # B_d = 0 and D_ed = 0: any positive level is feasible, optimum
    # collapses to the tolerance floor
    ss = rs.StateSpace([[0.5]], [[0.0, 1.0]], [[1.0], [1.0]],
                       [[0.0, 0.2], [0.1, 0.0]], 1.0)
    P = rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=1, n_y=1)
    g, res = rs.hinf_optimize(P, 1e-3, 1e-3)
    assert g <= 2e-3
    assert res.feasible


def test_nonzero_gamma_required():
    P = random_generalized_plant(7)
    res = rs.synth_hinf(P, 0.0)
    assert not res.feasible


def test_hinf_optimize_sets_up_each_level_once(boeing_nominal, monkeypatch,
                                               system_balance_calls):
    # a fresh plant: the set-up is kept on the instance
    P = dataclasses.replace(boeing_nominal)
    levels, controllers = [], []
    regularize = rs.hinf._regularized_blocks
    central = rs.hinf._central_controller
    monkeypatch.setattr(rs.hinf, "_regularized_blocks",
                        lambda P, eps: levels.append(eps) or regularize(P, eps))
    monkeypatch.setattr(rs.hinf, "_central_controller",
                        lambda *args: controllers.append(1) or central(*args))
    rs.hinf_optimize(P, 1e-2, 1e-3)
    # the Boeing plant escalates through the whole ladder 1e-8, 1e-6, 1e-4
    assert sorted(levels) == [1e-8, 1e-6, 1e-4]
    assert system_balance_calls == [P.n_x] * 3
    # while the bisection tried many more levels of gamma
    assert len(controllers) > 2 * len(levels)


def _result_bytes(res):
    K = res.controller
    mats = () if K is None else tuple(m.tobytes() for m in (K.A, K.B, K.C, K.D))
    return mats, res.feasible, np.float64(res.achieved_norm).tobytes(), \
        res.metadata["reason"]


def test_cached_setup_gives_the_fresh_plants_result(boeing_nominal):
    P = dataclasses.replace(boeing_nominal)
    g, _ = rs.hinf_optimize(P, 1e-2, 1e-3)
    for gamma in (g, 0.5 * g):
        warm = rs.synth_hinf(P, gamma)
        fresh = rs.synth_hinf(dataclasses.replace(boeing_nominal), gamma)
        assert _result_bytes(warm) == _result_bytes(fresh)
    assert rs.synth_hinf(P, g).feasible
    assert not rs.synth_hinf(P, 0.5 * g).feasible


def _hamiltonian(A, G, Q):
    """[[A, -G], [-Q, -A']]: its stabilizing X solves A'X + XA - XGX + Q = 0."""
    return np.block([[A, -G], [-Q, -A.T]])


@pytest.mark.parametrize("seed", range(8))
def test_care_schur_matches_scipy_care(seed):
    rng = np.random.default_rng(seed)
    n, m = 2 + seed, 1 + seed % 3
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((1 + seed % 2, n))
    W = rng.standard_normal((m, m))
    R = W @ W.T + 0.1 * np.eye(m)
    Q = C.T @ C
    G = B @ np.linalg.solve(R, B.T)
    X = rs.hinf.care_schur(_hamiltonian(A, G, Q))
    X_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
    assert np.array_equal(X, X.T)

    def residual(X):
        return A.T @ X + X @ A - X @ G @ X + Q

    scale = np.max(np.abs(X)) * (1.0 + np.max(np.abs(A)))
    assert np.max(np.abs(residual(X))) <= 1e-12 * scale
    # 1e-9 relative, widened on ill-conditioned seeds by the first-order
    # error bound |Omega^{-1}| (|res X| + |res X_ref|), Omega the
    # Lyapunov operator of L = A - G X: there scipy's own residual is
    # up to 50 times ours
    L = A - G @ X
    omega = np.kron(np.eye(n), L.T) + np.kron(L.T, np.eye(n))
    bound = (np.linalg.norm(residual(X)) + np.linalg.norm(residual(X_ref))) \
        / np.linalg.svd(omega, compute_uv=False)[-1]
    assert np.linalg.norm(X - X_ref) <= max(1e-9 * np.linalg.norm(X_ref), bound)


def _oscillator_hamiltonian(omega, damping):
    """An oscillator that no input reaches and no output sees, beside a
    stable mode that both do: H has the eigenvalues -damping +- j omega
    and their mirror images."""
    A = np.array([[-damping, omega, 0.0], [-omega, -damping, 0.0],
                  [0.0, 0.0, -1.0]])
    G = Q = np.diag([0.0, 0.0, 1.0])
    return _hamiltonian(A, G, Q)


@pytest.mark.parametrize("omega, damping", [(1.0, 0.0), (1.0, 1e-12),
                                            (100.0, 5e-9)])
def test_care_schur_rejects_an_imaginary_axis_eigenvalue(omega, damping):
    # on the axis, or within 1e-9 (1 + |lambda|) of it: at omega = 100 a
    # gate that ignored Im(lambda) would pass the damping 5e-9
    assert rs.hinf.care_schur(_oscillator_hamiltonian(omega, damping)) is None


def test_care_schur_solves_the_damped_oscillator():
    # the fixture above with a damping away from the axis is solved, so
    # the rejections come from the damping alone; the oscillator block
    # is unweighted, so its part of X is zero
    X = rs.hinf.care_schur(_oscillator_hamiltonian(100.0, 0.5))
    X_ref = np.zeros((3, 3))
    X_ref[2, 2] = np.sqrt(2.0) - 1.0  # -2x - x^2 + 1 = 0 for the mode -1
    assert np.max(np.abs(X - X_ref)) <= 1e-12


def test_care_schur_rejects_a_subspace_that_is_not_a_graph():
    # an unstable mode that no input reaches: the stable subspace of H
    # holds [0; e_1], so V1 is singular
    A = np.diag([1.0, -2.0])
    G = np.diag([0.0, 1.0])
    Q = np.diag([0.0, 1.0])
    assert rs.hinf.care_schur(_hamiltonian(A, G, Q)) is None


def test_care_schur_gives_the_sign_iterations_verdicts(monkeypatch):
    hamiltonians = []
    schur = rs.hinf.care_schur
    monkeypatch.setattr(rs.hinf, "care_schur",
                        lambda H: hamiltonians.append(H) or schur(H))
    for seed in range(6):
        P = random_generalized_plant(seed)
        g, _ = rs.hinf_optimize(P, 1e-3, 1e-3)
        for factor in (0.3, 0.9, 0.999, 1.01, 1.5, 4.0):
            rs.synth_hinf(P, factor * g)
    solved = 0
    for H in hamiltonians:
        X, X_ref = schur(H), care_sign_reference(H)
        assert (X is None) == (X_ref is None)
        if X is not None:
            solved += 1
            assert np.max(np.abs(X - X_ref)) <= 1e-6 * np.max(np.abs(X_ref))
    # both verdicts occur
    assert 0 < solved < len(hamiltonians)
