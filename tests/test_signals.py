from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import NonDecaying

from conftest import random_stable_ss
from oracles import impulse, inner, response_energy_loop, response_energy_per_trial


def test_zero_in_zero_out():
    rng = np.random.default_rng(0)
    g = random_stable_ss(rng, 3, 2, 1)
    y = rs.simulate(g, rs.Signal(0, np.zeros((5, 2))))
    assert y.norm_sq() == 0.0


def test_impulse_markov_parameters():
    rng = np.random.default_rng(1)
    g = random_stable_ss(rng, 3, 2, 2, rho=0.6)
    y = rs.simulate(g, impulse(2, channel=1))
    assert y.t0 == 0
    assert np.allclose(y.samples[0], g.D[:, 1])
    for t in range(1, 21):
        expect = (g.C @ np.linalg.matrix_power(g.A, t - 1) @ g.B)[:, 1]
        assert np.allclose(y.samples[t], expect), t


def test_window_truncation_energy():
    rng = np.random.default_rng(2)
    g = random_stable_ss(rng, 4, 1, 1, rho=0.9)
    d = rs.Signal(0, rng.standard_normal((10, 1)))
    y = rs.simulate(g, d)
    # tail sample beyond the window must be negligible vs total energy
    x = np.zeros(4)
    din = d.on_window(d.t0, y.t1)
    for k in range(len(din)):
        x = g.A @ x + g.B @ din[k]
    assert np.linalg.norm(x) ** 2 <= 1e-10 * (1 + y.norm_sq())


def test_series_composition_property():
    rng = np.random.default_rng(3)
    g1 = random_stable_ss(rng, 2, 1, 2, rho=0.5)
    g2 = random_stable_ss(rng, 3, 2, 1, rho=0.5)
    d = rs.Signal(0, rng.standard_normal((12, 1)))
    y_direct = rs.simulate(rs.series(g1, g2), d)
    y_chain = rs.simulate(g2, rs.simulate(g1, d))
    lo, hi = y_direct.t0, y_direct.t1
    assert np.allclose(y_direct.on_window(lo, hi), y_chain.on_window(lo, hi),
                       atol=1e-9)


def test_forward_requires_stability():
    g = rs.StateSpace([[1.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(NonDecaying):
        rs.simulate(g, impulse(1))


def test_window_ends_when_the_state_is_negligible():
    # the mode at 1 - 1e-4 is not driven by B: a window sized from the
    # spectral radius would run about 276,000 steps past the input
    g = rs.StateSpace(np.diag([0.5, 1.0 - 1e-4]), [[1.0], [0.0]],
                      [[1.0, 1.0]], [[0.0]], 1.0)
    d = rs.Signal(0, np.random.default_rng(4).standard_normal((600, 1)))
    y = rs.simulate(g, d)
    assert len(y) < len(d) + 100
    ref = response_energy_loop(g, d)
    assert abs(y.norm_sq() - ref) <= 1e-12 * ref
    x = np.zeros(2)
    for d_k in d.on_window(0, y.t1):
        x = g.A @ x + g.B @ d_k
    assert np.linalg.norm(x) <= rs.signals.TRUNC_TOL * np.sqrt(1 + y.norm_sq())


def test_window_never_exceeds_the_spectral_radius_bound(monkeypatch):
    g = rs.StateSpace([[0.9]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    monkeypatch.setattr(rs.signals, "decay_extension", lambda rho, tol, n_x: 3)
    y = rs.simulate(g, impulse(1))
    assert y.t0 == 0 and len(y) == 1 + 7 * 3
    assert y.samples[21, 0] == pytest.approx(0.9**20)


def test_inner_window_alignment():
    a = rs.Signal(-2, np.ones((4, 1)))
    b = rs.Signal(1, 2 * np.ones((3, 1)))
    assert inner(a, b) == 2.0  # overlap only at t = 1


def test_response_energy_ill_conditioned_similarity():
    # a benign system seen through a shear with cond(T) = 1e6: the exact
    # tail must not depend on how far from normal the realization is
    # (over 400 such systems x 5 inputs the largest deviation is 2e-11)
    rng = np.random.default_rng(0)
    g = random_stable_ss(rng, 5, 2, 2, rho=0.7)
    T = np.eye(5)
    T[0, 4] = T[1, 3] = 1e3
    T_inv = 2.0 * np.eye(5) - T  # the shear part squares to zero
    assert np.array_equal(T @ T_inv, np.eye(5))
    assert 0.9e6 < np.linalg.cond(T) < 1.1e6
    gT = rs.StateSpace(T @ g.A @ T_inv, T @ g.B, g.C @ T_inv, g.D, 1.0)
    for _ in range(5):
        d = rs.Signal(0, rng.standard_normal((20, 2)))
        ref = rs.simulate(gT, d).norm_sq()
        energy = rs.signals.response_energy(gT, d)
        assert abs(energy - ref) <= 1e-10 * ref
        assert abs(energy - response_energy_loop(gT, d)) <= 1e-12 * ref


def test_response_energy_matches_per_step_reference():
    rng = np.random.default_rng(5)
    for n, rho in ((1, 0.3), (2, 0.95), (4, 0.7), (6, 0.9), (8, 0.5)):
        g = random_stable_ss(rng, n, 2, 3, rho=rho)
        for length in (1, 7, 16, 17, 40, 90):
            d = rs.Signal(0, rng.standard_normal((length, 2)))
            ref = response_energy_loop(g, d)
            assert abs(rs.signals.response_energy(g, d) - ref) <= 1e-12 * ref


def test_response_energy_extension_cap():
    # rho = 0.999: after len(d) free steps the Gramian form still holds
    # far more than TAIL_FRACTION of the energy, so the cap decides
    g = rs.StateSpace([[0.999]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    d = rs.Signal(0, np.ones((40, 1)))
    peak = sum(0.999**k for k in range(40))  # no state exceeds it
    x_cap = 0.999**40 * peak
    assert x_cap**2 / (1 - 0.999**2) > rs.signals.TAIL_FRACTION * 80 * peak**2
    energy = rs.signals.response_energy(g, d)
    assert abs(energy - response_energy_loop(g, d)) <= 1e-12 * energy
    ref = rs.simulate(g, d).norm_sq()
    assert abs(energy - ref) <= 1e-9 * ref


def test_response_energy_static_system():
    g = rs.static_gain([[1.0, -2.0], [0.5, 3.0]], 1.0)
    d = rs.Signal(0, np.random.default_rng(6).standard_normal((9, 2)))
    assert rs.signals.response_energy(g, d) == np.sum((d.samples @ g.D.T) ** 2)


def test_response_energy_solves_the_gramian_once_per_system(schur_stein_calls):
    rng = np.random.default_rng(7)
    g = random_stable_ss(rng, 5, 2, 2, rho=0.8)
    ds = [rs.Signal(0, rng.standard_normal((L, 2))) for L in (3, 20, 50)]
    energies = [rs.signals.response_energy(g, d) for d in ds for _ in range(2)]
    assert schur_stein_calls == [5]
    # a fresh system with the same matrices solves again, to the same bits
    copy = rs.StateSpace(g.A.copy(), g.B.copy(), g.C.copy(), g.D.copy(), 1.0)
    assert [rs.signals.response_energy(copy, d) for d in ds for _ in range(2)] == energies
    assert schur_stein_calls == [5, 5]


def _mixed_batch(rng, dim, lengths):
    """Disturbances of the given lengths; the one of length 5 is zero."""
    return [rs.Signal(0, np.zeros((L, dim)) if L == 5 else rng.standard_normal((L, dim)))
            for L in lengths]


BATCH_LENGTHS = (37, 1, 128, 5, 16, 17, 90, 2, 64, 127, 33, 8)


@pytest.mark.parametrize("n", [2, 5, 8, 13, 22, 40])
def test_stacked_product_rounds_like_the_per_trial_one(n):
    # the lock-step kernels rest on this: one stacked np.matmul over the
    # trials gives the bits of A @ x taken trial by trial
    rng = np.random.default_rng(n)
    A, X = rng.standard_normal((n, n)), rng.standard_normal((37, n))
    stacked = np.matmul(A, X[:, :, None])[:, :, 0]
    assert np.array_equal(stacked, np.array([A @ x for x in X]))


def test_response_energy_of_a_sequence_matches_per_step_reference():
    rng = np.random.default_rng(8)
    for n, rho in ((1, 0.3), (3, 0.95), (8, 0.7), (13, 0.9)):
        g = random_stable_ss(rng, n, 2, 3, rho=rho)
        ds = _mixed_batch(rng, 2, BATCH_LENGTHS)
        energies = rs.signals.response_energy(g, ds)
        assert energies.shape == (len(ds),)
        for d, energy in zip(ds, energies):
            ref = response_energy_loop(g, d)
            assert abs(energy - ref) <= 1e-12 * ref
            # the same bits as the signal on its own: the lock-step
            # recursion rounds like the per-signal one
            assert energy == response_energy_per_trial(g, d)
            assert energy == rs.signals.response_energy(g, d)
        assert energies[BATCH_LENGTHS.index(5)] == 0.0


def test_response_energy_of_a_robust_check_sequence(store):
    # benchmark size: the robust quarter-car loop closed through a sampled
    # DELTA_ORDER-state Delta (39 states), and 200 disturbances drawn as
    # in verify_robust_regret, which span several blocks
    unc = store.uncertain("quartercar")
    _, res = store.robust_special("quartercar", "additive-regret")
    delta = rs.sample_uncertainty(unc.n_v, unc.n_w, rs.robust.DELTA_ORDER, seed=3,
                                  sample_time=unc.sample_time).Delta
    cl = rs.lft_upper(rs.lft_lower(unc.as_generalized(), res.controller), delta,
                      unc.n_w, unc.n_v)
    assert cl.is_schur() and cl.n_x >= 35
    rng = np.random.default_rng(11)
    ds = [rs.Signal(0, rng.standard_normal((int(rng.integers(8, 50)), unc.n_d)))
          for _ in range(200)]
    assert len(rs.signals.trial_blocks([len(d) for d in ds], cl.n_u + 3 * cl.n_x)) >= 10
    energies = rs.signals.response_energy(cl, ds)
    for i, (d, energy) in enumerate(zip(ds, energies)):
        assert energy == response_energy_per_trial(cl, d)
        assert energy == rs.signals.response_energy(cl, d)
        if i % 10 == 0:
            ref = response_energy_loop(cl, d)
            assert abs(energy - ref) <= 1e-12 * ref


def test_response_energy_of_small_sequences():
    rng = np.random.default_rng(9)
    g = random_stable_ss(rng, 4, 2, 2, rho=0.8)
    assert rs.signals.response_energy(g, []).shape == (0,)
    d = rs.Signal(0, rng.standard_normal((30, 2)))
    (energy,) = rs.signals.response_energy(g, [d])
    assert abs(energy - response_energy_loop(g, d)) <= 1e-12 * energy
    # a signal on its own gives a float, of the same bits
    single = rs.signals.response_energy(g, d)
    assert type(single) is float and single == energy
    static = rs.static_gain([[1.0, -2.0], [0.5, 3.0]], 1.0)
    ds = _mixed_batch(rng, 2, (9, 5, 1))
    assert list(rs.signals.response_energy(static, ds)) == \
        [np.sum((d.samples @ static.D.T) ** 2) for d in ds]


def test_response_energy_of_a_sequence_requires_stability():
    g = rs.StateSpace([[1.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(NonDecaying):
        rs.signals.response_energy(g, [impulse(1)] * 3)


def test_trial_blocks_cover_every_trial_within_the_budget():
    lengths = [40, 3, 128, 128, 0, 7, 3, 90, 127, 1]
    row_size = 2000  # a padded trial of 128 samples fills 258,000 entries
    blocks = rs.signals.trial_blocks(lengths, row_size)
    order = np.concatenate(blocks)
    assert sorted(order) == list(range(len(lengths)))
    assert [lengths[i] for i in order] == sorted(lengths)
    for block in blocks:
        longest = max(lengths[i] for i in block)
        assert block.size == 1 or \
            block.size * (longest + 1) * row_size <= rs.signals.TRIAL_BLOCK
    assert rs.signals.trial_blocks([], row_size) == []


def test_lock_step_kernels_bound_their_working_arrays(store):
    # 200 disturbances of 127 samples on the quarter-car loop: the state
    # histories of all of them would take 3.3 MB for the energies alone
    P = store.nominal("quartercar")
    K0 = store.k0("quartercar")
    cl = rs.lft_lower(P, rs.static_gain(np.zeros((P.n_u, P.n_y)), P.sample_time))
    rng = np.random.default_rng(10)
    ds = [rs.Signal(0, rng.standard_normal((127, P.n_d))) for _ in range(200)]
    rs.signals.response_energy(cl, ds[:1])  # the Gramian, once per system
    rs.eval_noncausal_cost(K0, ds[:1])  # the cached Stein solutions
    for kernel, system in ((rs.signals.response_energy, cl),
                           (rs.eval_noncausal_cost, K0)):
        tracemalloc.start()
        try:
            kernel(system, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (kernel.__name__, peak)
