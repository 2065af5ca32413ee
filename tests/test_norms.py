from __future__ import annotations

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import UnstableSystem
from regretsynth.norms import _golden_max_lockstep, norm_grid, sigma_max_on_grid

from conftest import random_stable_ss


def test_static_norm_is_sigma_max():
    D = np.array([[1.0, 2.0], [0.0, 0.5]])
    g = rs.static_gain(D, 1.0)
    assert abs(rs.hinf_norm(g) - np.linalg.svd(D, compute_uv=False)[0]) < 1e-12


def test_first_order_peak():
    g = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    val, theta = rs.hinf_norm(g, return_theta=True)
    assert abs(val - 2.0) < 1e-6
    assert theta < 1e-4
    # confirm against a dense grid
    dense = sigma_max_on_grid(g, np.linspace(0, np.pi, 10**4)).max()
    assert val >= dense - 1e-9


def test_unstable_rejected():
    g = rs.StateSpace([[1.01]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    with pytest.raises(UnstableSystem):
        rs.hinf_norm(g)


def test_induced_norm_consistency():
    # ||G d||_2 <= (1 + 1e-6) ||G||_inf ||d||_2 over random finite signals
    rng = np.random.default_rng(4)
    g = random_stable_ss(rng, 3, 2, 2, rho=0.85)
    bound = (1 + 1e-6) * rs.hinf_norm(g)
    for _ in range(1000):
        d = rs.Signal(0, rng.standard_normal((int(rng.integers(2, 30)), 2)))
        y = rs.simulate(g, d)
        assert y.norm() <= bound * d.norm() + 1e-12


def test_norm_catches_sharp_resonance():
    # pole very close to the circle at an interior angle
    r, th0 = 0.9995, 0.8
    A = r * np.array([[np.cos(th0), np.sin(th0)], [-np.sin(th0), np.cos(th0)]])
    g = rs.StateSpace(A, [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]], 1.0)
    peak_direct = sigma_max_on_grid(g, np.linspace(th0 - 1e-3, th0 + 1e-3, 20001)).max()
    assert rs.hinf_norm(g) >= peak_direct * (1 - 1e-6)


def test_margins_no_crossover():
    m = rs.loop_margins(rs.static_gain([[0.5]], 1.0))
    assert not m.has_crossover


def test_margins_integrator():
    # k/s with unity crossover at k: PM ~ 90 degrees for small Ts * wc
    k = 2.0
    L = rs.zoh_discretize([[0.0]], [[1.0]], [[k]], [[0.0]], 0.01)
    m = rs.loop_margins(L)
    assert m.has_crossover
    assert abs(m.phase_margin_deg - 90.0) < 1.0
    assert abs(m.crossover_rad_s - k) < 0.05 * k


def test_frequency_grid_invariants():
    grid = rs.FrequencyGrid.default(128)
    th = grid.thetas
    assert th[0] == 0.0 and th[-1] == np.pi
    assert np.all(np.diff(th) > 0)
    fine = grid.refined_near([0.5])
    assert len(fine) > len(grid)


def _sigma_at(g, th):
    return np.linalg.svd(g.at_z(np.exp(1j * th)), compute_uv=False)[0]


def _golden_max(f, a, b, rel_tol, max_iter=80):
    """Scalar golden-section maximization, one point per evaluation."""
    gold = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gold * (b - a)
    d = a + gold * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(max_iter):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - gold * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gold * (b - a)
            fd = f(d)
        x, fx = (c, fc) if fc >= fd else (d, fd)
        if fx > best_f:
            best_x, best_f = x, fx
        if (b - a) <= rel_tol * max(abs(a), abs(b), 1e-12):
            break
    return best_x, best_f


def _hinf_norm_per_peak(g, tol=1e-6):
    """The gridded norm refined one peak at a time, one angle per
    evaluation: what the lock-step refinement must reproduce."""
    thetas = norm_grid(g)
    vals = np.array([_sigma_at(g, th) for th in thetas])
    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    peaks = [i for i in range(thetas.size)
             if vals[i] >= padded[i] and vals[i] >= padded[i + 2]]
    peaks.sort(key=lambda i: -vals[i])
    best = (float(np.max(vals)), float(thetas[int(np.argmax(vals))]))
    for i in peaks[:12]:
        lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, thetas.size - 1)]
        if hi <= lo:
            continue
        x, fx = _golden_max(lambda th: _sigma_at(g, th), lo, hi, tol * 1e-2)
        if fx > best[0]:
            best = (float(fx), float(x))
    return best


def _resonance(r, th0):
    return r * np.array([[np.cos(th0), np.sin(th0)], [-np.sin(th0), np.cos(th0)]])


def test_sigma_max_on_grid_matches_per_angle_svd():
    g = random_stable_ss(np.random.default_rng(9), 5, 2, 3, rho=0.95)
    thetas = np.linspace(0.0, np.pi, 301)
    per_angle = [_sigma_at(g, th) for th in thetas]
    assert np.array_equal(sigma_max_on_grid(g, thetas), per_angle)
    assert np.array_equal(rs.l2_gain_curve(g, thetas), per_angle)


def test_lockstep_refinement_matches_per_peak_search():
    systems = [rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)]
    for r, th0 in ((0.9995, 0.8), (0.99999, 2.5), (0.999, 1e-3)):
        systems.append(rs.StateSpace(_resonance(r, th0), [[1.0], [0.0]],
                                     [[0.0, 1.0]], [[0.0]], 1.0))
    # two resonances seen through a 2 x 2 map: several peaks refined at once
    A = np.zeros((4, 4))
    A[:2, :2], A[2:, 2:] = _resonance(0.9995, 0.8), _resonance(0.998, 2.0)
    systems.append(rs.StateSpace(A, [[1.0, 0.0], [0.0, 0.3], [0.5, 1.0], [0.0, 0.0]],
                                 [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.2, 0.0]],
                                 np.zeros((2, 2)), 1.0))
    systems.append(random_stable_ss(np.random.default_rng(10), 6, 2, 2, rho=0.97))
    for g in systems:
        assert rs.hinf_norm(g, return_theta=True) == _hinf_norm_per_peak(g)


def test_lockstep_brackets_match_scalar_searches():
    # brackets of very different widths stop at different steps
    g = random_stable_ss(np.random.default_rng(11), 6, 2, 2, rho=0.97)
    rng = np.random.default_rng(12)
    lo = np.sort(rng.uniform(0.0, 3.0, 9))
    hi = lo + np.logspace(-6, -0.5, 9)
    for rel_tol in (1e-8, 1e-4):
        xs, fxs = _golden_max_lockstep(lambda th: sigma_max_on_grid(g, th),
                                       lo, hi, rel_tol)
        for k in range(lo.size):
            x, fx = _golden_max(lambda th: _sigma_at(g, th), lo[k], hi[k], rel_tol)
            assert (xs[k], fxs[k]) == (x, fx)
