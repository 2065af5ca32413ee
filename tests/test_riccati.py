from __future__ import annotations

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import AssumptionViolated
from regretsynth.riccati import dare_residual

from conftest import random_generalized_plant
from oracles import qz_dare


def value_iteration_oracle(p, tol=1e-14, max_iter=100000):
    """Independent fixed-point iteration from X0 = Q."""
    X = p.Q.copy()
    for _ in range(max_iter):
        G = p.A.T @ X @ p.B + p.S
        H = p.R + p.B.T @ X @ p.B
        X_next = p.A.T @ X @ p.A + p.Q - G @ np.linalg.solve(H, G.T)
        X_next = 0.5 * (X_next + X_next.T)
        if np.max(np.abs(X_next - X)) < tol * (1 + np.max(np.abs(X))):
            return X_next
        X = X_next
    return X


def test_scalar_closed_form():
    p = rs.DareProblem([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    sol = rs.solve_dare(p, check_assumptions=True)
    expect = (0.25 + np.sqrt(4.0625)) / 2
    assert abs(sol.X[0, 0] - expect) < 1e-9
    assert sol.residual < 1e-10 * (1 + abs(sol.X[0, 0]))
    assert sol.spectral_radius() < 1.0


def test_one_step_dare():
    # A = 0 makes X = Q exactly
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((3, 3))
    Q = Q @ Q.T
    p = rs.DareProblem(np.zeros((3, 3)), rng.standard_normal((3, 2)), Q,
                       np.eye(2), np.zeros((3, 2)))
    sol = rs.solve_dare(p)
    assert np.max(np.abs(sol.X - Q)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_value_iteration_oracle_agreement(seed):
    rng = np.random.default_rng(seed)
    n = 4
    A = rng.standard_normal((n, n))
    A = 0.8 * A / max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((3, n))
    D = np.vstack([np.zeros((1, 2)), np.eye(2)])
    p = rs.DareProblem.from_output_data(A, B, C, D)
    sol = rs.solve_dare(p, check_assumptions=True)
    X_vi = value_iteration_oracle(p)
    assert np.max(np.abs(sol.X - X_vi)) < 1e-11 * (1 + np.max(np.abs(X_vi)))


def test_cross_term_support():
    rng = np.random.default_rng(7)
    n = 3
    A = rng.standard_normal((n, n))
    A = 0.7 * A / max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, 1))
    C_e = rng.standard_normal((2, n))
    D_eu = np.array([[0.4], [1.0]])  # makes S = C'D nonzero
    p = rs.DareProblem.from_output_data(A, B, C_e, D_eu)
    assert np.max(np.abs(p.S)) > 0
    sol = rs.solve_dare(p, check_assumptions=True)
    assert sol.residual < 1e-10 * (1 + np.max(np.abs(sol.X)))
    X_vi = value_iteration_oracle(p)
    assert np.max(np.abs(sol.X - X_vi)) < 1e-10 * (1 + np.max(np.abs(X_vi)))


def test_assumption_checker_scalar_pass():
    p = rs.DareProblem([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])
    report = rs.check_dare_assumptions(p)
    assert report.passed
    assert all(c.passed for c in report.conditions)


def test_assumption_checker_unstabilizable():
    p = rs.DareProblem([[2.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
    report = rs.check_dare_assumptions(p)
    assert not report.passed
    assert not report["stabilizable"].passed
    with pytest.raises(AssumptionViolated):
        rs.solve_dare(p, check_assumptions=True)


def test_assumption_checker_boeing(store):
    P = store.nominal("boeing747")
    p = rs.DareProblem.from_output_data(P.A, P.B_u, P.C_e, P.D_eu)
    assert np.allclose(p.Q, np.eye(4)) and np.allclose(p.R, np.eye(2))
    report = rs.check_dare_assumptions(p)
    assert report.passed


def test_completion_of_squares_identity():
    for seed in range(3):
        P = random_generalized_plant(seed)
        prob = rs.DareProblem.from_output_data(P.A, P.B_u, P.C_e, P.D_eu)
        sol = rs.solve_dare(prob)
        X, H, K = sol.X, sol.H, sol.K_x
        lhs = np.block([[prob.Q, prob.S], [prob.S.T, prob.R]])
        KI = np.hstack([K, np.eye(prob.m)])
        AB = np.hstack([prob.A, prob.B])
        rhs = KI.T @ H @ KI - AB.T @ X @ AB
        rhs = rhs + np.block([
            [X, np.zeros((prob.n, prob.m))],
            [np.zeros((prob.m, prob.n)), np.zeros((prob.m, prob.m))],
        ])
        tol = 1e-10 * (1 + np.max(np.abs(X)))
        assert np.max(np.abs(lhs - rhs)) < tol


def test_uniqueness_perturbation_breaks_residual():
    rng = np.random.default_rng(9)
    P = random_generalized_plant(11)
    prob = rs.DareProblem.from_output_data(P.A, P.B_u, P.C_e, P.D_eu)
    sol = rs.solve_dare(prob)
    W = rng.standard_normal((prob.n, prob.n))
    W = 1e-3 * (W + W.T) / 2
    assert dare_residual(prob, sol.X + W) > 1e-10 * (1 + np.max(np.abs(sol.X)))


def test_monotone_in_q():
    P = random_generalized_plant(13)
    prob = rs.DareProblem.from_output_data(P.A, P.B_u, P.C_e, P.D_eu)
    sol = rs.solve_dare(prob)
    bigger = rs.DareProblem(prob.A, prob.B, prob.Q + 0.5 * np.eye(prob.n),
                            prob.R, prob.S)
    sol2 = rs.solve_dare(bigger)
    eigs = np.linalg.eigvalsh(sol2.X - sol.X)
    assert eigs.min() >= -1e-10


def test_zero_q_dichotomy_mixed_spectrum():
    # dual-type DARE: Q = 0 with a mixed stable/anti-stable A
    rng = np.random.default_rng(21)
    A = np.diag([0.5, -0.3, 1.8, 2.5]) + 0.1 * rng.standard_normal((4, 4))
    while np.min(np.abs(np.abs(np.linalg.eigvals(A)) - 1)) < 0.05:
        A = np.diag([0.5, -0.3, 1.8, 2.5]) + 0.1 * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    p = rs.DareProblem(A, B, np.zeros((4, 4)), np.eye(2), np.zeros((4, 2)))
    sol = rs.solve_dare(p)
    assert sol.method == "zero_q_dichotomy"
    assert sol.spectral_radius() < 1.0
    assert sol.residual < 1e-8 * (1 + np.max(np.abs(sol.X)))
    assert np.min(np.linalg.eigvalsh(sol.X)) >= -1e-8 * (1 + np.max(np.abs(sol.X)))


def test_sda_solves_a_dare_with_near_singular_r():
    # R = (1e-4)^2 I, a nearly free input: a stiff problem for doubling;
    # unstable A, so X is far from the cost Q
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    A = 1.3 * A / max(np.abs(np.linalg.eigvals(A)))
    C = rng.standard_normal((2, 4))
    p = rs.DareProblem(A, rng.standard_normal((4, 2)), C.T @ C,
                       1e-8 * np.eye(2), np.zeros((4, 2)))
    sol = rs.solve_dare(p)
    assert sol.method == "sda"
    assert sol.spectral_radius() < 1.0
    X_qz = qz_dare(p)
    assert np.max(np.abs(sol.X - X_qz)) < 1e-12 * np.max(np.abs(X_qz))


@pytest.mark.parametrize("spectrum", [(0.5, -0.3, 1.8, 2.5), (1.2, -1.5, 2.5, 3.0)],
                         ids=["mixed", "anti-stable"])
def test_zero_q_dichotomy_matches_qz(spectrum):
    rng = np.random.default_rng(22)
    A = np.diag(spectrum) + 0.1 * rng.standard_normal((4, 4))
    assert np.min(np.abs(np.abs(np.linalg.eigvals(A)) - 1)) > 0.05
    p = rs.DareProblem(A, rng.standard_normal((4, 2)), np.zeros((4, 4)),
                       np.eye(2), np.zeros((4, 2)))
    sol = rs.solve_dare(p)
    assert sol.method == "zero_q_dichotomy"
    X_qz = qz_dare(p)
    assert np.max(np.abs(sol.X - X_qz)) < 1e-12 * np.max(np.abs(X_qz))
