from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

import regretsynth as rs
from regretsynth.errors import UnstableSystem
import regretsynth.norms as norms
from regretsynth.norms import sigma_max_on_grid

from conftest import random_plant_with_dscale_pole, random_stable_ss
from oracles import (at_z, crossover_bisection_reference, hinf_norm_dense, margin_grid,
                     norm_grid)


def test_static_norm_is_sigma_max():
    D = np.array([[1.0, 2.0], [0.0, 0.5]])
    g = rs.static_gain(D, 1.0)
    assert abs(rs.hinf_norm(g) - np.linalg.svd(D, compute_uv=False)[0]) < 1e-12


def test_first_order_peak():
    g = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    br = rs.hinf_norm(g, return_bracket=True)
    val, theta = br.upper, br.theta
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


@pytest.mark.parametrize("gain", [1.0, -1.0])
def test_margins_unit_static_loop_has_no_crossover(gain):
    # |L| = 1 at every angle, so |L| - 1 never changes sign: no angle is
    # a crossover, although every angle has |L| = 1
    assert not rs.loop_margins(rs.static_gain([[gain]], 1.0)).has_crossover


def test_margins_find_crossings_inside_one_grid_cell():
    # |L| = 1.5 but for a notch at 2: zeros at (1 - 1e-7) e^{+-2j}, poles at
    # (1 - 1e-5) e^{+-j (2 + 3e-5)}.  |L| falls through 1 at 1.99993891 and
    # rises through it at 2.00001309, both inside one cell of the grid that
    # the crossover search once scanned for a sign change
    q, p = (1 - 1e-7) * np.exp(2j), (1 - 1e-5) * np.exp(1j * (2 + 3e-5))
    num, den = np.real(np.poly([q, np.conj(q)])), np.real(np.poly([p, np.conj(p)]))
    num *= 1.5 * np.polyval(den, 1.0) / np.polyval(num, 1.0)
    b = num[1:] - num[0] * den[1:]
    L = rs.StateSpace([[-den[1], -den[2]], [1.0, 0.0]], [[1.0], [0.0]], b[None, :],
                      [[num[0]]], 1.0)
    assert abs(abs(L.freqresp([0.0])[0, 0, 0]) - 1.5) < 1e-12
    grid = margin_grid(L)
    gap = np.abs(L.freqresp(grid)[:, 0, 0]) - 1.0
    assert np.all(gap > 0)
    m = rs.loop_margins(L)
    assert abs(m.crossover_theta - 1.99993891) < 1e-7
    ref = crossover_bisection_reference(L, 1.9999, 2.0)
    assert abs(m.crossover_theta - ref) <= 1e-14 + 1e-10 * ref


def test_margins_integrator():
    # k/s with unity crossover at k: PM ~ 90 degrees for small Ts * wc
    k = 2.0
    L = rs.zoh_discretize([[0.0]], [[1.0]], [[k]], [[0.0]], 0.01)
    m = rs.loop_margins(L)
    assert m.has_crossover
    assert abs(m.phase_margin_deg - 90.0) < 1.0
    assert abs(m.crossover_rad_s - k) < 0.05 * k


@pytest.mark.parametrize("seed", range(6))
def test_margins_crossover_matches_scalar_bisection(seed, monkeypatch):
    # the level-1 pencil's crossover lands within the scalar bisection's
    # tolerance of it, with one freqresp call to probe the candidates and
    # one for the phase
    rng = np.random.default_rng(seed)
    L = random_stable_ss(rng, 1 + seed, 1, 1, rho=0.95, feedthrough=False)
    # a peak of 2 puts |L| = 1 on the way to and from it
    L = rs.StateSpace(L.A, L.B, 2.0 * L.C / rs.hinf_norm(L), L.D, 1.0)
    thetas = margin_grid(L)
    gap = np.abs(L.freqresp(thetas)[:, 0, 0]) - 1.0
    crossings = np.nonzero(gap[:-1] * gap[1:] < 0)[0]
    calls = []
    freqresp = rs.StateSpace.freqresp
    monkeypatch.setattr(rs.StateSpace, "freqresp",
                        lambda self, th: calls.append(th) or freqresp(self, th))
    m = rs.loop_margins(L)
    i = crossings[0]
    ref = crossover_bisection_reference(L, thetas[i], thetas[i + 1])
    assert abs(m.crossover_theta - ref) <= 1e-14 + 1e-10 * ref
    assert len(calls) <= 2


def test_frequency_grid_invariants():
    grid = rs.FrequencyGrid.default(128)
    th = grid.thetas
    assert th[0] == 0.0 and th[-1] == np.pi
    assert np.all(np.diff(th) > 0)
    fine = grid.refined_near([0.5])
    assert fine.thetas.size > th.size


def _sigma_at(g, th):
    return np.linalg.svd(at_z(g, np.exp(1j * th)), compute_uv=False)[0]


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


def _hinf_norm_gridded(g, tol=1e-6):
    """The gridded norm that the level-set iteration replaced: sigma_max
    on ``norm_grid`` with a base of 512 points and the 12 largest local
    maxima refined by golden section.  A lower bound."""
    thetas = norm_grid(g, 512)
    vals = np.array([_sigma_at(g, th) for th in thetas])
    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    peaks = [i for i in range(thetas.size)
             if vals[i] >= padded[i] and vals[i] >= padded[i + 2]]
    peaks.sort(key=lambda i: -vals[i])
    best = float(np.max(vals))
    for i in peaks[:12]:
        lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, thetas.size - 1)]
        if hi > lo:
            best = max(best, _golden_max(lambda th: _sigma_at(g, th), lo, hi, tol * 1e-2)[1])
    return best


def test_sigma_max_on_grid_matches_per_angle_svd():
    g = random_stable_ss(np.random.default_rng(9), 5, 2, 3, rho=0.95)
    thetas = np.linspace(0.0, np.pi, 301)
    per_angle = [_sigma_at(g, th) for th in thetas]
    assert np.array_equal(sigma_max_on_grid(g, thetas), per_angle)


def _second_order(eps, th0, zero_th=None, gain=1.0):
    """(A, B, C, D) of gain * (z - q)(z - q') / ((z - p)(z - p')), p and q
    at radius 1 - eps and angles th0 and zero_th; without zero_th, the
    all-pole section scaled to a peak of about ``gain`` at th0."""
    r = 1.0 - eps
    den = np.array([1.0, -2.0 * r * np.cos(th0), r * r])
    if zero_th is None:
        num = np.array([0.0, 0.0, 2.0 * eps * np.sin(th0)]) * gain
    else:
        num = np.array([1.0, -2.0 * r * np.cos(zero_th), r * r]) * gain
    b = num[1:] - num[0] * den[1:]
    return (np.array([[-den[1], -den[2]], [1.0, 0.0]]), np.array([[1.0], [0.0]]),
            b[None, :], np.array([[num[0]]]))


def test_norm_catches_peak_narrower_than_a_grid_cell():
    # twelve resonances of peak 1 and, at 2.7, a pole/zero pair one pole
    # width apart: sigma_max there is 0.95 at the pole angle but peaks at
    # 0.95 * golden ratio / sqrt(2) = 1.0869 within 1e-6 rad of it.  The
    # gridded norm refines only its 12 largest grid maxima and misses it.
    eps = 1e-6
    blocks = [_second_order(eps, 0.2 + 0.2 * i) for i in range(12)]
    blocks.append(_second_order(eps, 2.7, 2.7 + eps, 0.95 / np.sqrt(2.0)))
    g = rs.StateSpace(*(scipy.linalg.block_diag(*[b[k] for b in blocks])
                        for k in range(4)), 1.0)
    # the peak of the pair alone; the conjugate pair moves it by ~1e-6
    peak = 0.95 * (1.0 + np.sqrt(5.0)) / 2.0 / np.sqrt(2.0)
    assert _hinf_norm_gridded(g) < 1.0001
    br = rs.hinf_norm(g, return_bracket=True)
    assert br.certified
    assert abs(br.upper / peak - 1.0) < 1e-5
    assert br.lower <= hinf_norm_dense(g) * (1 + 1e-12) <= br.upper
    assert abs(br.theta - 2.7) < 1e-5
    assert br.upper <= br.lower * (1 + 2e-9) * (1 + 1e-15)


def test_norm_with_pole_near_minus_one_matches_dense_reference():
    # the D-scale fit puts real poles at +-0.99999, where the bilinear map
    # needs (A + I)^{-1}; the discrete pencil does not
    for seed in range(4):
        g = random_plant_with_dscale_pole(np.random.default_rng(seed))
        assert np.min(np.abs(g.poles() + 1.0)) < 2e-5
        ref = hinf_norm_dense(g)
        br = rs.hinf_norm(g, return_bracket=True)
        assert br.certified
        assert br.upper >= ref
        assert br.lower <= ref * (1 + 1e-12)
        assert br.upper <= ref * (1 + 1e-8)


def test_stall_is_resolved_by_local_search(monkeypatch):
    # at the level (1 + 2 tol) * 2 the pair of eigenvalues near z = 1 sits
    # about 5e-5 from the circle, so it is a confirmed candidate, but no
    # midpoint rises above the level: the local search shows the peak
    # below it
    g = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    br = rs.hinf_norm(g, return_bracket=True)
    assert br.status == "peaks_below" and br.certified
    assert br.lower <= 2.0 <= br.upper <= 2.0 * (1 + 2e-9) * (1 + 1e-15)
    # a looser tolerance puts the pair off the tolerance band: no stall
    monkeypatch.setattr(norms, "_NORM_TOL", 1e-3)
    loose = rs.hinf_norm(g, return_bracket=True)
    assert loose.status == "no_crossing" and loose.lower <= 2.0 <= loose.upper


def test_iteration_limit_certifies_nothing(monkeypatch):
    g = rs.StateSpace(*_second_order(1e-6, 2.7, 2.7 + 1e-6), 1.0)
    assert rs.hinf_norm(g, return_bracket=True).iterations > 1
    monkeypatch.setattr(norms, "_MAX_LEVELS", 1)
    br = rs.hinf_norm(g, return_bracket=True)
    assert br.status == "iteration_limit" and not br.certified
    assert br.upper == np.inf and rs.hinf_norm(g) == np.inf


def test_bracket_holds_on_random_systems():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n, m, p = (int(v) for v in rng.integers(1, 7, 3))
        g = random_stable_ss(rng, n, m, p, rho=float(rng.uniform(0.5, 0.999)))
        ref = hinf_norm_dense(g)
        br = rs.hinf_norm(g, return_bracket=True)
        assert br.certified
        assert br.lower <= ref * (1 + 1e-12) and br.upper >= ref
        assert sigma_max_on_grid(g, [br.theta])[0] == br.lower
        assert rs.hinf_norm(g) == br.upper


def test_norm_of_zero_system_and_of_one_zero_at_every_seed_angle():
    g = rs.StateSpace(np.diag([0.5, -0.3]), np.zeros((2, 1)), np.ones((1, 2)),
                      [[0.0]], 1.0)
    br = rs.hinf_norm(g, return_bracket=True)
    assert (br.lower, br.upper, br.status) == (0.0, 0.0, "exact")
    # 1 - z^-16 vanishes at every angle k pi / 8 and has no pole to seed
    # from; the Markov parameters start the iteration and it finds 2
    h = rs.StateSpace(np.eye(16, k=-1), np.eye(16, 1), -np.eye(1, 16, 15), [[1.0]], 1.0)
    br = rs.hinf_norm(h, return_bracket=True)
    val, theta = br.upper, br.theta
    assert 2.0 <= val <= 2.0 * (1 + 3e-9)
    assert abs(abs(np.sin(8.0 * theta)) - 1.0) < 1e-8


def _edge_peaked(rng, n, m, p, sign):
    """A random stable system plus a dominant real pole near sign * 1,
    so that sigma_max peaks at theta = 0 (sign 1) or pi (sign -1)."""
    A = np.zeros((n, n))
    B = 5.0 * rng.standard_normal((n, m))
    C = 5.0 * rng.standard_normal((p, n))
    A[-1, -1] = sign * rng.uniform(0.9, 0.999)
    if n > 1:
        h = random_stable_ss(rng, n - 1, m, p, rho=0.5, feedthrough=False)
        A[:-1, :-1], B[:-1], C[:, :-1] = h.A, h.B, h.C
    return rs.StateSpace(A, B, C, rng.standard_normal((p, m)), 1.0)


def _decision_levels(br):
    """The bracket's own ends, one float either side of the upper end,
    and levels 1e-9 and 1e-6 either side of the ends."""
    u, lo = br.upper, br.lower
    return (u, np.nextafter(u, np.inf), np.nextafter(u, -np.inf),
            lo * (1 - 1e-9), lo * (1 + 1e-9), u * (1 - 1e-6), u * (1 + 1e-6))


def test_norm_below_never_contradicts_the_bracket():
    rng = np.random.default_rng(20)
    edges = 0
    for i in range(300):
        n = int(rng.integers(1, 31))
        m, p = (int(v) for v in rng.integers(1, 4, 2))
        if i % 3:
            g = _edge_peaked(rng, n, m, p, 1 if i % 3 == 1 else -1)
        else:
            g = random_stable_ss(rng, n, m, p, rho=float(rng.uniform(0.3, 0.9999)),
                                 feedthrough=bool(i % 2))
        br = rs.hinf_norm(g, return_bracket=True)
        assert br.certified
        edges += br.theta in (0.0, np.pi)
        answers = [norms.norm_below(g, level) for level in _decision_levels(br)]
        for level, below in zip(_decision_levels(br), answers):
            # None defers to the bracket; an answer must be the bracket's
            assert below is None or below == (br.upper < level), (i, level)
        # a level 1e-6 away from the norm is decided
        assert answers[5:] == [False, True], i
    assert edges >= 150


def test_norm_below_samples_the_ends_and_the_arcs_between_crossings():
    # 1 / (z + 0.5) peaks at pi with 2 and falls to 2/3 at 0: a decision
    # that sampled only theta = 0 and the crossings would call 1.5 a bound
    g = rs.StateSpace([[-0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    assert norms.norm_below(g, 1.5) is False
    assert norms.norm_below(g, 2.0 * (1 + 1e-6)) is True
    # two resonances: the level 1.5 crosses only the larger one, whose
    # arc between its crossings lies above it
    blocks = [_second_order(1e-3, 0.5), _second_order(1e-3, 2.0, gain=2.0)]
    h = rs.StateSpace(*(scipy.linalg.block_diag(*[b[k] for b in blocks])
                        for k in range(4)), 1.0)
    assert norms.norm_below(h, 1.5) is False
    assert norms.norm_below(h, rs.hinf_norm(h) * (1 + 1e-6)) is True
    # at the stall of test_stall_is_resolved_by_local_search the norm 2
    # is within the bracket's width of the level: only the bracket tells
    s = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    assert norms.norm_below(s, 2.0 * (1 + 2e-9)) is None


def test_norm_below_special_systems_and_levels():
    g = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    for level in (0.0, -1.0, np.nan):
        assert norms.norm_below(g, level) is False
    assert norms.norm_below(g, np.inf) is None
    static = rs.static_gain([[3.0, 4.0]], 1.0)
    assert norms.norm_below(static, 5.0) is False
    assert norms.norm_below(static, np.nextafter(5.0, np.inf)) is True
    zero = rs.StateSpace(np.diag([0.5, -0.3]), np.zeros((2, 1)), np.ones((1, 2)),
                         [[0.0]], 1.0)
    assert norms.norm_below(zero, 1e-300) is True
    with pytest.raises(UnstableSystem):
        norms.norm_below(rs.StateSpace([[1.5]], [[1.0]], [[1.0]], [[0.0]], 1.0), 1.0)
