from __future__ import annotations

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import (DimensionError, NonFiniteSystem, RegretSynthError,
                               SampleTimeError)
from regretsynth.hinf import tustin_c2d, tustin_d2c

from conftest import random_stable_ss, same_bits, with_signed_zeros
from oracles import (append_reference, at_z, balance_states_reference, dcgain,
                     freqresp_reference, schur_stein_reference,
                     series_reference)


def test_dimension_checks():
    with pytest.raises(DimensionError):
        rs.StateSpace([[1, 0]], [[1]], [[1]], [[1]])
    with pytest.raises(DimensionError):
        rs.StateSpace([[1]], [[1]], [[1]], [[1, 2]])
    with pytest.raises(SampleTimeError):
        rs.StateSpace([[0.5]], [[1]], [[1]], [[0]], sample_time=-1.0)


@pytest.mark.parametrize("where", ["A", "B", "C", "D"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(where, value):
    mats = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
    mats[where] = [[value]]
    with pytest.raises(NonFiniteSystem, match=f"matrix {where} has a non-finite entry"):
        rs.StateSpace(*(mats[name] for name in "ABCD"), 1.0)
    assert issubclass(NonFiniteSystem, RegretSynthError)


@pytest.mark.parametrize("ts", [np.inf, np.nan, 0.0, -1.0])
def test_sample_time_must_be_finite_and_positive(ts):
    with pytest.raises(SampleTimeError, match="finite positive number"):
        rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], ts)
    assert rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], "unit").sample_time == "unit"


def test_immutability():
    g = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError):
        g.A[0, 0] = 2.0


def test_schur_and_poles():
    g = rs.StateSpace([[0.5, 1.0], [0.0, -0.3]], np.eye(2), np.eye(2),
                      np.zeros((2, 2)), 1.0)
    assert g.is_schur()
    assert np.allclose(sorted(g.poles()), [-0.3, 0.5])
    bad = rs.StateSpace([[1.2]], [[1]], [[1]], [[0]], 1.0)
    assert not bad.is_schur()


def test_zoh_integrator_closed_form():
    # x' = u  ->  A = 1, B = Ts
    ss = rs.zoh_discretize([[0.0]], [[1.0]], [[1.0]], [[0.0]], 0.25)
    assert abs(ss.A[0, 0] - 1.0) < 1e-14
    assert abs(ss.B[0, 0] - 0.25) < 1e-14


def test_zoh_scalar_closed_form():
    ss = rs.zoh_discretize([[-1.0]], [[1.0]], [[1.0]], [[0.0]], 0.1)
    assert abs(ss.A[0, 0] - np.exp(-0.1)) < 1e-14
    assert abs(ss.B[0, 0] - (1.0 - np.exp(-0.1))) < 1e-14


def test_zoh_siso_plant_closed_form():
    # G(s) = 15 / (s + 5.6), Ts = 0.001
    Ac, Bc, Cc, Dc = rs.tf1_to_ss(0.0, 15.0, 1.0, 5.6)
    ss = rs.zoh_discretize(Ac, Bc, Cc, Dc, 0.001)
    assert abs(ss.A[0, 0] - np.exp(-0.0056)) < 1e-14
    # C B / |pole residue|: compare DC gain and the first Markov term
    markov1 = float(ss.C[0, 0] * ss.B[0, 0])
    assert abs(markov1 - (15.0 / 5.6) * (1 - np.exp(-0.0056))) < 1e-12
    assert abs(dcgain(ss)[0, 0] - 15.0 / 5.6) < 1e-9


def test_zoh_stable_stays_schur():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        Ac = rng.standard_normal((n, n))
        Ac = Ac - (np.max(np.linalg.eigvals(Ac).real) + 0.5) * np.eye(n)
        ss = rs.zoh_discretize(Ac, rng.standard_normal((n, 1)),
                               rng.standard_normal((1, n)), [[0.0]], 0.05)
        assert ss.is_schur()


def test_series_frequency_oracle():
    rng = np.random.default_rng(1)
    g1 = random_stable_ss(rng, 3, 2, 2)
    g2 = random_stable_ss(rng, 2, 2, 3)
    cascade = rs.series(g1, g2)
    for th in np.linspace(0, np.pi, 9):
        z = np.exp(1j * th)
        assert np.allclose(at_z(cascade, z), at_z(g2, z) @ at_z(g1, z), atol=1e-12)


def test_invert_is_exact_inverse():
    rng = np.random.default_rng(2)
    g = random_stable_ss(rng, 3, 2, 2)
    gi = rs.invert(g)
    for th in [0.0, 0.7, 2.2]:
        z = np.exp(1j * th)
        assert np.allclose(at_z(g, z) @ at_z(gi, z), np.eye(2), atol=1e-10)


def test_sample_time_mismatch():
    a = rs.StateSpace([[0.1]], [[1]], [[1]], [[0]], 1.0)
    b = rs.StateSpace([[0.1]], [[1]], [[1]], [[0]], 0.5)
    with pytest.raises(SampleTimeError):
        rs.series(a, b)


def test_tustin_round_trip_and_mapping():
    rng = np.random.default_rng(3)
    g = random_stable_ss(rng, 4, 2, 3)
    Ac, Bc, Cc, Dc = tustin_d2c(g.A, g.B, g.C, g.D)
    A2, B2, C2, D2 = tustin_c2d(Ac, Bc, Cc, Dc)
    assert np.max(np.abs(A2 - g.A)) < 1e-12
    assert np.max(np.abs(D2 - g.D)) < 1e-12
    for th in [0.3, 1.1, 2.9]:
        z = np.exp(1j * th)
        s = (z - 1) / (z + 1)
        Gd = at_z(g, z)
        Gc = Cc @ np.linalg.solve(s * np.eye(4) - Ac, Bc) + Dc
        assert np.max(np.abs(Gd - Gc)) < 1e-10


def test_balanced_tf1():
    Ac, Bc, Cc, Dc = rs.tf1_to_ss(1000.0, 804.0, 1.0, 8040.0)
    assert abs(abs(Bc[0, 0]) - abs(Cc[0, 0])) < 1e-9
    assert Dc[0, 0] == 1000.0


def _at_z_loop(g, thetas):
    return np.array([at_z(g, np.exp(1j * th)) for th in thetas])


def test_freqresp_blocks_match_at_z_bitwise():
    rng = np.random.default_rng(4)
    # (4, 4, 2): a square B, which must still be read as one matrix per angle
    for n, n_u, n_y in ((40, 2, 3), (70, 1, 1), (3, 2, 2), (4, 4, 2)):
        g = random_stable_ss(rng, n, n_u, n_y, rho=0.95)
        thetas = np.sort(rng.uniform(0.0, np.pi, 150))
        if n >= 40:  # several stacked blocks
            assert rs.statespace.FREQRESP_BLOCK // n**2 < thetas.size
        assert np.array_equal(g.freqresp(thetas), _at_z_loop(g, thetas))
        assert np.array_equal(g.freqresp(thetas[:1]), _at_z_loop(g, thetas[:1]))


def test_freqresp_pole_on_circle_falls_back_per_angle():
    # pole at z = 1: the block holding theta = 0 is singular
    g = rs.StateSpace([[1.0, 0.2], [0.0, 0.5]], [[1.0], [1.0]],
                      [[1.0, 1.0]], [[0.0]], 1.0)
    thetas = np.array([0.3, 0.0, 1.2, 2.9])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(2) - g.A, g.B)
    resp = g.freqresp(thetas)
    assert np.array_equal(resp, _at_z_loop(g, thetas))
    # evaluated just outside the circle, where the response is large
    assert np.isfinite(resp[1]).all() and abs(resp[1, 0, 0]) > 1e8
    # the regular angles of that block stay on the stacked route
    regular = [0, 2, 3]
    assert np.array_equal(resp[regular], g.freqresp(thetas[regular]))


def test_schur_stein_matches_solve_triangular_bitwise():
    rng = np.random.default_rng(11)
    for n in range(1, 31):
        A = random_stable_ss(rng, n, 1, 1, rho=0.9).A
        # far from normal: a shear with cond(S) about 1e6 around a
        # triangular core with large off-diagonal entries
        core = np.diag(rng.uniform(-0.9, 0.9, n)) + 5.0 * np.triu(
            rng.standard_normal((n, n)), 1)
        S = np.eye(n) + 1e3 * np.triu(rng.standard_normal((n, n)), 1) / n
        skewed = S @ core @ np.linalg.inv(S)
        for M in (A, skewed):
            Q = rng.standard_normal((n, n))
            Q = Q @ Q.T
            Z, Xs = rs.statespace._schur_stein(M, Q)
            Z_ref, Xs_ref = schur_stein_reference(M, Q)
            assert np.array_equal(Z, Z_ref) and np.array_equal(Xs, Xs_ref)


def test_schur_stein_singular_column_raises():
    # eigenvalues 1 and 0.5: column 1 - T[j, j] conj(T[j, j]) is zero
    A = np.array([[0.5, 0.3], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        schur_stein_reference(A, np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        rs.statespace._schur_stein(A, np.eye(2))
    with pytest.raises(ValueError):
        rs.statespace._schur_stein(0.5 * np.eye(2), np.array([[1.0, np.nan],
                                                             [np.nan, 1.0]]))


def _kernel_systems(rng, n_u, n_y):
    """Random systems with n_u inputs and n_y outputs: no states, one,
    several, and ones with signed zeros."""
    for n in (0, 1, 3, 6):
        g = random_stable_ss(rng, n, n_u, n_y, rho=0.9)
        yield g
        yield with_signed_zeros(rng, g)


def _same_system(g, h):
    return (g.sample_time == h.sample_time
            and all(same_bits(getattr(g, m), getattr(h, m)) for m in "ABCD"))


def test_append_and_series_match_block_references_bitwise():
    rng = np.random.default_rng(21)
    # (n_u, n_y) pairs with zero-width B or C among them
    dims = ((1, 1), (2, 3), (0, 2), (2, 0), (0, 0))
    for n_u1, n_y1 in dims:
        for n_u2, n_y2 in dims:
            for g1 in _kernel_systems(rng, n_u1, n_y1):
                g2 = with_signed_zeros(rng, random_stable_ss(
                    rng, int(rng.integers(0, 4)), n_u2, n_y2, rho=0.9))
                assert _same_system(rs.append(g1, g2), append_reference(g1, g2))
                g2 = random_stable_ss(rng, int(rng.integers(0, 4)), n_y1, n_y2,
                                      rho=0.9)
                for h in (g2, with_signed_zeros(rng, g2)):
                    assert _same_system(rs.series(g1, h), series_reference(g1, h))


def test_freqresp_matches_resolvent_reference():
    rng = np.random.default_rng(22)
    thetas = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 60)])
    for n, n_u, n_y in ((0, 2, 2), (1, 1, 1), (5, 2, 3), (40, 2, 1), (4, 0, 2),
                        (4, 2, 0)):
        g = random_stable_ss(rng, n, n_u, n_y, rho=0.95)
        if n >= 40:  # several stacked blocks
            assert rs.statespace.FREQRESP_BLOCK // n**2 < thetas.size
        for h in (g, with_signed_zeros(rng, g)):
            resp = h.freqresp(thetas)
            assert resp.shape == (thetas.size, n_y, n_u)
            assert np.array_equal(resp, freqresp_reference(h, thetas))
    # a pole exactly on the circle: the block holding theta = 0 is
    # evaluated angle by angle
    g = rs.StateSpace([[1.0, 0.2], [0.0, 0.5]], [[1.0], [1.0]],
                      [[1.0, 1.0]], [[0.0]], 1.0)
    thetas = np.array([0.3, 0.0, 1.2, 2.9])
    resp = g.freqresp(thetas)
    assert abs(resp[1, 0, 0]) > 1e8
    assert np.array_equal(resp, freqresp_reference(g, thetas))


def test_balance_states_matches_reference_bitwise():
    rng = np.random.default_rng(23)
    cases = []
    for n, n_u, n_y in ((0, 1, 1), (1, 1, 1), (4, 2, 3), (8, 1, 2), (5, 0, 2),
                        (5, 2, 0), (5, 0, 0)):
        g = random_stable_ss(rng, n, n_u, n_y, rho=0.9)
        cases += [g, with_signed_zeros(rng, g, share=0.5)]
    # states scaled by 2^-60 to 2^60: the first sweep's exponents are
    # clipped at +-16, and the balancing takes several sweeps
    g = random_stable_ss(rng, 6, 2, 2, rho=0.9)
    t = 2.0 ** np.array([-60.0, -30.0, 0.0, 10.0, 40.0, 60.0])
    clipped = rs.StateSpace(t[:, None] * g.A / t, t[:, None] * g.B, g.C / t, g.D)
    cases.append(clipped)
    off = np.abs(clipped.A)
    np.fill_diagonal(off, 0.0)
    rows = off.sum(axis=1) + np.abs(clipped.B).sum(axis=1)
    cols = off.sum(axis=0) + np.abs(clipped.C).sum(axis=0)
    assert np.max(np.abs(0.5 * np.log2(rows / cols))) > 16
    # a state with no off-diagonal coupling is left alone
    A = np.diag([0.5, 0.25, -0.5])
    A[0, 1] = 1e6
    cases.append(rs.StateSpace(A, [[1.0], [0.0], [0.0]], [[0.0, 1.0, 0.0]], [[0.0]]))
    for g in cases:
        out = rs.statespace.balance_states(g.A, g.B, g.C)
        ref = balance_states_reference(g.A, g.B, g.C)
        assert all(same_bits(x, y) for x, y in zip(out, ref))
    # the clipped case is rescaled
    A_bal = rs.statespace.balance_states(clipped.A, clipped.B, clipped.C)[0]
    assert not np.array_equal(A_bal, clipped.A)
