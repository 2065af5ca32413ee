from __future__ import annotations

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import DimensionError, WellPosednessError

from conftest import (random_generalized_plant, random_stable_ss, same_bits,
                      with_signed_zeros)
from oracles import at_z, lft_lower_reference, matrix_lft_upper


def test_partition_invariants_enforced():
    ss = rs.StateSpace([[0.5]], [[1.0, 1.0]], [[1.0], [1.0]],
                       [[0.3, 0.0], [0.0, 0.0]], 1.0)
    with pytest.raises(DimensionError):  # D_ed != 0
        rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=1, n_y=1)


def test_lft_lower_zero_controller():
    for n in (3, 0):  # n = 0: a static plant
        P = random_generalized_plant(0, n=n)
        K = rs.static_gain(np.zeros((P.n_u, P.n_y)), 1.0)
        cl = rs.lft_lower(P, K)
        assert cl.n_x == n
        sub = P.ed_subsystem()
        for th in np.linspace(0, np.pi, 7):
            z = np.exp(1j * th)
            assert np.allclose(at_z(cl, z), at_z(sub, z), atol=1e-12)


def test_lft_lower_frequency_oracle():
    rng = np.random.default_rng(10)
    P = random_generalized_plant(5)
    K = random_stable_ss(rng, 2, P.n_y, P.n_u, rho=0.4)
    cl = rs.lft_lower(P, K)
    thetas = np.linspace(0, np.pi, 64)
    for th in thetas:
        z = np.exp(1j * th)
        Pz = at_z(P.ss, z)
        Kz = at_z(K, z)
        P11 = Pz[: P.n_e, : P.n_d]
        P12 = Pz[: P.n_e, P.n_d :]
        P21 = Pz[P.n_e :, : P.n_d]
        P22 = Pz[P.n_e :, P.n_d :]
        loop = np.eye(P.n_u) - Kz @ P22
        oracle = P11 + P12 @ Kz @ np.linalg.solve(
            np.eye(P.n_y) - P22 @ Kz, P21
        )
        rel = np.max(np.abs(at_z(cl, z) - oracle)) / max(1, np.max(np.abs(oracle)))
        assert rel < 1e-10


def test_lft_lower_matches_block_reference_bitwise():
    rng = np.random.default_rng(24)
    # (n, n_d, n_u, n_e, n_y): no plant states, and no d or e channel
    for n, nd, nu, ne, ny in ((3, 2, 1, 2, 1), (0, 1, 1, 1, 1), (4, 0, 2, 1, 2),
                              (4, 2, 1, 0, 1), (5, 2, 2, 3, 2)):
        base = random_stable_ss(rng, n, nd + nu, ne + ny)
        plants = []
        for ss in (base, with_signed_zeros(rng, base)):
            D = ss.D.copy()
            D[:ne, :nd] = D[ne:, nd:] = 0.0  # the standing zero feedthroughs
            plants.append(rs.GeneralizedPlant(rs.StateSpace(ss.A, ss.B, ss.C, D, 1.0),
                                              n_d=nd, n_u=nu, n_e=ne, n_y=ny))
        for nk in (0, 1, 3):
            K = random_stable_ss(rng, nk, ny, nu, rho=0.8)
            for plant in plants:
                for ctrl in (K, with_signed_zeros(rng, K)):
                    cl, ref = rs.lft_lower(plant, ctrl), lft_lower_reference(plant, ctrl)
                    assert all(same_bits(getattr(cl, m), getattr(ref, m))
                               for m in "ABCD")


def test_lft_upper_zero_delta():
    rng = np.random.default_rng(11)
    M = random_stable_ss(rng, 3, 3, 3)
    Delta = rs.static_gain(np.zeros((1, 1)), 1.0)
    cl = rs.lft_upper(M, Delta, n_w=1, n_v=1)
    M22 = M.subsystem([1, 2], [1, 2])
    for th in np.linspace(0, np.pi, 7):
        z = np.exp(1j * th)
        assert np.allclose(at_z(cl, z), at_z(M22, z), atol=1e-12)


def test_matrix_lft_upper_formula():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((4, 4))
    Delta = 0.3 * rng.standard_normal((2, 2))
    got = matrix_lft_upper(M, Delta, 2, 2)
    M11, M12 = M[:2, :2], M[:2, 2:]
    M21, M22 = M[2:, :2], M[2:, 2:]
    expect = M22 + M21 @ Delta @ np.linalg.inv(np.eye(2) - M11 @ Delta) @ M12
    assert np.allclose(got, expect, atol=1e-12)


def test_lft_upper_forced_singularity():
    # D_vw = 0.5 and D_Delta = 2 make I - D_vw D_Delta singular
    M = rs.StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                      np.array([[0.5, 1.0], [1.0, 0.0]]), 1.0)
    Delta = rs.static_gain([[2.0]], 1.0)
    with pytest.raises(WellPosednessError):
        rs.lft_upper(M, Delta, n_w=1, n_v=1)


def test_lft_upper_dynamic_oracle():
    rng = np.random.default_rng(13)
    M = random_stable_ss(rng, 3, 3, 3, rho=0.5)
    Delta = random_stable_ss(rng, 2, 1, 1, rho=0.4)
    cl = rs.lft_upper(M, Delta, n_w=1, n_v=1)
    for th in np.linspace(0, np.pi, 16):
        z = np.exp(1j * th)
        oracle = matrix_lft_upper(at_z(M, z), at_z(Delta, z), 1, 1)
        assert np.max(np.abs(at_z(cl, z) - oracle)) < 1e-10


def test_weight_disturbance_frequency_oracle():
    rng = np.random.default_rng(14)
    P = random_generalized_plant(7)
    W = random_stable_ss(rng, 2, P.n_d, P.n_d, rho=0.5)
    Pw = rs.weight_disturbance(P, W)
    K = random_stable_ss(rng, 2, P.n_y, P.n_u, rho=0.3)
    cl_w = rs.lft_lower(Pw, K)
    cl = rs.lft_lower(P, K)
    chained = rs.series(W, cl)
    for th in np.linspace(0, np.pi, 9):
        z = np.exp(1j * th)
        assert np.allclose(at_z(cl_w, z), at_z(chained, z), atol=1e-10)


def test_structural_prune_exactness():
    rng = np.random.default_rng(15)
    g = random_stable_ss(rng, 3, 1, 1, rho=0.5)
    # append a state fed only by a removed input (nothing reaches it)
    A = np.zeros((4, 4))
    A[:3, :3] = g.A
    A[3, 3] = 0.5
    B = np.vstack([g.B, np.zeros((1, 1))])
    C = np.hstack([g.C, np.zeros((1, 1))])
    big = rs.StateSpace(A, B, C, g.D, 1.0)
    pruned = rs.structural_prune(big)
    assert pruned.n_x == 3
    for th in np.linspace(0, np.pi, 5):
        z = np.exp(1j * th)
        assert np.allclose(at_z(pruned, z), at_z(big, z), atol=1e-12)
