from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import GammaDZero, SingularX, StabilizabilityFailure
from regretsynth.regret import regret_weighted_plant
from regretsynth.riccati import DareProblem, dare_residual, solve_dare
from regretsynth.spectral import CHECK_THETAS, _w_basis

from conftest import random_generalized_plant, random_stable_ss, scalar_plant
from oracles import (_sym, identity_error_loop, inner, n_e_hat, para_hermitian_apply,
                     phat_statespace, regret_factor_reference, regret_qtilde, simulate_ehat,
                     spectral_factorize_general, verify_factor,
                     w_realization_reference)


def factor_product_error(F, system, thetas):
    Fr = F.freqresp(thetas)
    Pr = system.freqresp(thetas)
    worst = 0.0
    for k in range(len(thetas)):
        lhs = Fr[k].conj().T @ Fr[k]
        rhs = Pr[k].conj().T @ Pr[k]
        worst = max(worst, np.max(np.abs(lhs - rhs)) / max(1, np.max(np.abs(rhs))))
    return worst


def test_adjoint_static():
    D = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]])
    g = rs.static_gain(D, 1.0)
    e = rs.Signal(0, np.random.default_rng(0).standard_normal((6, 3)))
    d = para_hermitian_apply(g, e)
    assert np.allclose(d.on_window(0, 5), e.samples @ D, atol=1e-14)


def test_adjoint_property_causal():
    rng = np.random.default_rng(1)
    g = random_stable_ss(rng, 3, 2, 2, rho=0.6)
    for _ in range(5):
        d = rs.Signal(0, rng.standard_normal((14, 2)))
        e = rs.Signal(0, rng.standard_normal((11, 2)))
        lhs = inner(rs.simulate(g, d), e)
        rhs = inner(d, para_hermitian_apply(g, e))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_adjoint_property_mixed_phat():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (1.0, 1.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = rs.Signal(0, rng.standard_normal((10, 1)))
        e = rs.Signal(0, rng.standard_normal((8, n_e_hat(phat))))
        lhs = inner(simulate_ehat(phat, d), e)
        rhs = inner(d, para_hermitian_apply(phat, e))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_general_factor_static_allpass():
    # D'D = I: the factor product is the identity at every angle
    D = np.array([[0.6, 0.8], [-0.8, 0.6]])
    g = rs.static_gain(D, 1.0)
    F = spectral_factorize_general(g)
    th = np.linspace(0, np.pi, 32)
    Fr = F.F.freqresp(th)
    for k in range(len(th)):
        assert np.max(np.abs(Fr[k].conj().T @ Fr[k] - np.eye(2))) < 1e-10


def test_general_factor_random_causal():
    rng = np.random.default_rng(3)
    g = random_stable_ss(rng, 3, 2, 2, rho=0.6)
    F = spectral_factorize_general(g)
    assert F.F.is_schur() and F.F_inv.is_schur()
    th = np.linspace(0, np.pi, 256)
    assert factor_product_error(F.F, g, th) < 1e-8


def test_regret_factor_gamma_j_zero():
    P = random_generalized_plant(5)
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (1.4, 0.0))
    F = rs.spectral_factor_regret(phat)
    th = np.linspace(0, np.pi, 64)
    Fr = F.F.freqresp(th)
    for k in range(len(th)):
        assert np.max(np.abs(Fr[k].conj().T @ Fr[k] - 1.96 * np.eye(P.n_d))) < 1e-8


def test_regret_factor_scalar_cross_checks():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (1.0, 1.0))
    F = rs.spectral_factor_regret(phat)
    assert F.F.n_x == P.n_x
    F_ref, _, _, primal = regret_factor_reference(phat)
    assert all(np.array_equal(got, want)
               for got, want in zip(_matrices(F.F), _matrices(F_ref)))
    # the closed-form primal solution satisfies the full-size DARE
    assert primal["xhat_dare_residual"] < 1e-10 * (
        1 + np.max(np.abs(primal["Xhat"]))
    )
    # V agrees with a direct solve of its own DARE
    Qt = regret_qtilde(K0, 1.0)
    A11iT = np.linalg.inv(K0.A11).T
    prob = DareProblem(A11iT, K0.X @ P.B_d, Qt, np.eye(1), np.zeros((1, 1)))
    V_direct = solve_dare(prob).X
    assert np.max(np.abs(primal["V"] - V_direct)) < 1e-9 * (
        1 + np.max(np.abs(V_direct))
    )


def test_reduced_matches_general():
    for seed in [0, 4, 8]:
        P = random_generalized_plant(seed)
        K0 = rs.build_noncausal(P)
        phat = rs.build_phat(K0, (0.8, 1.2))
        F_red = rs.spectral_factor_regret(phat)
        F_gen = spectral_factorize_general(phat)
        assert F_red.F.n_x == P.n_x
        assert F_gen.F.n_x == 2 * P.n_x
        th = np.linspace(0, np.pi, 256)
        Fr = F_red.F.freqresp(th)
        Fg = F_gen.F.freqresp(th)
        for k in range(len(th)):
            a = Fr[k].conj().T @ Fr[k]
            b = Fg[k].conj().T @ Fg[k]
            assert np.max(np.abs(a - b)) < 1e-8 * max(1, np.max(np.abs(b)))
        # equal energies on random disturbances
        rng = np.random.default_rng(seed)
        for _ in range(10):
            d = rs.Signal(0, rng.standard_normal((12, P.n_d)))
            lhs = rs.simulate(F_red.F, d).norm_sq()
            rhs = rs.simulate(F_gen.F, d).norm_sq()
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_factor_inverse_identity_and_poles():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (0.7, 1.0))
    F = rs.spectral_factor_regret(phat)
    th = np.linspace(0, np.pi, 64)
    Fr = F.F.freqresp(th)
    Fi = F.F_inv.freqresp(th)
    for k in range(len(th)):
        assert np.max(np.abs(Fr[k] @ Fi[k] - np.eye(P.n_d))) < 1e-10
    # F_inv poles must be the factor's primal closed-loop eigenvalues
    a_poles = np.sort_complex(F.F_inv.poles())
    direct = F.F.A - F.F.B @ np.linalg.solve(F.F.D, F.F.C)
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(direct)) - a_poles)) < 1e-8


def test_qtilde_psd():
    for seed in range(4):
        P = random_generalized_plant(seed)
        K0 = rs.build_noncausal(P)
        Qt = regret_qtilde(K0, 1.3)
        assert np.min(np.linalg.eigvalsh(Qt)) >= -1e-10 * (1 + np.max(np.abs(Qt)))


def test_w_block_cost_matches_closed_form():
    # the factor's w-block state cost, seen in v = L w, is the closed form
    # through X^{-1} wherever X is well conditioned
    for seed in range(4):
        P = random_generalized_plant(seed)
        K0 = rs.build_noncausal(P)
        assert np.linalg.cond(K0.X) < 1e5
        phat = rs.build_phat(K0, (0.5, 1.3))
        basis = _w_basis(phat)
        # T_w^{-T} M_w T_w^{-1} is a w-block form M_w seen in v
        T_w = w_realization_reference(phat)[5]
        Ti = np.linalg.solve(T_w.T, np.eye(P.n_x))
        Qt = regret_qtilde(K0, 1.3)
        err = np.max(np.abs(_sym(Ti @ (1.3**2 * basis.G_w) @ Ti.T) - Qt))
        assert err < 1e-10 * (1 + np.max(np.abs(Qt)))


def test_verify_factor_sampling():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (1.0, 1.0))
    F = rs.spectral_factor_regret(phat)
    rep = verify_factor(F, phat, trials=100, seed=1)
    assert rep.passed and rep.max_rel_deviation < 1e-7


def test_gamma_d_zero_raises():
    P = scalar_plant()
    K0 = rs.build_noncausal(P)
    phat = rs.build_phat(K0, (0.0, 2.0))
    with pytest.raises(GammaDZero):
        rs.spectral_factor_regret(phat)
    assert rs.effective_gamma_d(0.0, 2.0) == pytest.approx(2e-4)
    assert rs.effective_gamma_d(0.5, 2.0) == 0.5


def _matrices(F):
    return [F.A, F.B, F.C, F.D]


@pytest.mark.parametrize("name", ["siso", "boeing747", "quartercar"])
def test_regret_factor_matches_per_level_reference_bitwise(store, name):
    # hinf, competitive-ratio (regularized gamma_d), additive and general
    # levels; the K0-only half is computed at the first level and reused
    K0 = rs.build_noncausal(store.nominal(name))
    levels = [(2.5, 0.0), (rs.effective_gamma_d(0.0, 1.6), 1.6), (1.4, 1.0),
              (0.7, 2.2)]
    for gammas in levels:
        phat = rs.build_phat(K0, gammas)
        F = rs.spectral_factor_regret(phat)
        F_ref, F_inv_ref, diag_ref, _ = regret_factor_reference(phat)
        for got, want in zip(_matrices(F.F) + _matrices(F.F_inv),
                             _matrices(F_ref) + _matrices(F_inv_ref)):
            assert np.array_equal(got, want)
        assert F.diagnostics.keys() == diag_ref.keys()
        for key, want in diag_ref.items():
            assert F.diagnostics[key] == want, key
        # the general factor of the same closed loop checks its identity
        # on the same response
        G = spectral_factorize_general(phat)
        assert G.diagnostics["freq_identity_error"] == identity_error_loop(
            G.F, phat_statespace(phat).freqresp(CHECK_THETAS), CHECK_THETAS)
    assert list(K0.factor_setup) == ["w_basis"]


def test_factor_setup_is_computed_once_per_controller_and_read_only(monkeypatch):
    K0 = rs.build_noncausal(random_generalized_plant(6))
    # one PBH test per filled store
    fills = []
    pbh = rs.spectral.pbh_stabilizable
    monkeypatch.setattr(rs.spectral, "pbh_stabilizable",
                        lambda A, B: fills.append(A.shape) or pbh(A, B))
    factors = [rs.spectral_factor_regret(rs.build_phat(K0, g))
               for g in ((0.9, 1.1), (2.0, 0.0), (0.4, 3.0))]
    assert len(fills) == 1
    basis = K0.factor_setup["w_basis"]
    arrays = [basis.A, basis.B, basis.C_e, basis.G_w, basis.resolvent]
    assert all(not arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError):
        basis.G_w[0, 0] = 1.0
    # the levels do not share mutable state through the store
    assert factors[0].diagnostics is not factors[1].diagnostics
    # a fresh controller with the same matrices fills its own store
    fresh = dataclasses.replace(K0)
    rs.spectral_factor_regret(rs.build_phat(fresh, (0.9, 1.1)))
    assert len(fills) == 2


def test_failed_checks_raise_on_every_call():
    K0 = rs.build_noncausal(random_generalized_plant(7))
    # X not positive definite: nothing is stored, every call raises
    bad_x = dataclasses.replace(K0, X=-K0.X)
    for _ in range(2):
        with pytest.raises(SingularX):
            rs.spectral_factor_regret(rs.build_phat(bad_x, (1.0, 1.0)))
    assert bad_x.factor_setup == {}
    # B_d = 0: (A11^-T, X B_d) is anti-stable with no input
    P = random_generalized_plant(7)
    ss = P.ss
    B = ss.B.copy()
    B[:, :P.n_d] = 0.0
    P0 = rs.GeneralizedPlant(rs.StateSpace(ss.A, B, ss.C, ss.D, ss.sample_time),
                             n_d=P.n_d, n_u=P.n_u, n_e=P.n_e, n_y=P.n_y)
    K0 = rs.build_noncausal(P0)
    for gammas in ((1.0, 1.0), (1.0, 1.0), (0.5, 2.0)):
        with pytest.raises(StabilizabilityFailure):
            rs.spectral_factor_regret(rs.build_phat(K0, gammas))


@pytest.mark.parametrize("name", ["scalar", "siso", "boeing747", "quartercar"])
def test_competitive_ratio_factor_scales_with_the_level(store, name):
    # at (EPS_CR gamma, gamma) both DARE costs are gamma^2 times those at
    # (EPS_CR, 1), so the factor is gamma times the factor at gamma = 1:
    # the premise of optimize_special's single competitive-ratio search
    P = scalar_plant() if name == "scalar" else store.nominal(name)
    K0 = rs.build_noncausal(P) if name == "scalar" else store.k0(name)

    def factor(gamma):
        level = rs.RegretLevel.competitive_ratio(gamma)
        return regret_weighted_plant(P, K0, level)[1]

    def rel_error(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    unit = factor(1.0)
    assert unit.gamma_d == rs.EPS_CR
    F1 = unit.F.freqresp(CHECK_THETAS)
    F1_inv = unit.F_inv.freqresp(CHECK_THETAS)
    # the inverse inherits the factor's error times its conditioning
    # (about 6e3 on the quarter-car)
    inv_tol = 1e-9 * np.max(np.linalg.cond(F1))
    for gamma in (0.5, 3.0, 20.0):
        scaled = factor(gamma)
        assert scaled.gamma_d == rs.EPS_CR * gamma
        assert rel_error(scaled.F.freqresp(CHECK_THETAS), gamma * F1) <= 1e-9
        assert rel_error(scaled.F_inv.freqresp(CHECK_THETAS), F1_inv / gamma) <= inv_tol
