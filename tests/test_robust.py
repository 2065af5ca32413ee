from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import UnstableSystem
import regretsynth.robust as robust
from regretsynth.robust import (_SectionMemo, _logmag_jacobian, _logmag_residual,
                                _scaled_sigma, dk_scaled_plant)

from conftest import scalar_plant
from oracles import (NotAFailurePoint, at_z, dscale_residual_loop, fit_dscale_loop,
                     matrix_lft_upper, robust_perf_test_reference,
                     verify_robust_regret_loop, worst_case_const_delta)


def scalar_uncertain_plant():
    """Scalar plant with an input-multiplicative uncertainty channel."""
    # x+ = 0.5 x + d + (u + 0.4 w); v = u
    ss = rs.StateSpace([[0.5]], [[0.4, 1.0, 1.0]],
                       [[0.0], [1.0], [0.0], [1.0]],
                       [[0.0, 0.0, 1.0],
                        [0.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0],
                        [0.0, 0.0, 0.0]], 1.0)
    return rs.UncertainPlant(ss, n_w=1, n_d=1, n_u=1, n_v=1, n_e=2, n_y=1)


def test_matrix_rp_closed_form():
    M0 = np.array([[0.0, 2.0], [0.125, 0.0]])
    passed, d_opt, val = rp_one(M0, 1, 1)
    assert passed
    assert abs(val - 0.5) < 1e-6
    # off-diagonal balance: |2 d| = |0.125 / d| at the optimum
    assert abs(d_opt - 0.25) < 1e-3


def test_matrix_rp_block_diagonal():
    M0 = np.diag([0.7, 0.4])
    passed, _, val = rp_one(M0, 1, 1)
    assert passed and abs(val - 0.7) < 1e-9


def test_matrix_rp_matches_dense_grid():
    rng = np.random.default_rng(5)
    for _ in range(6):
        M0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        _, _, val = rp_one(M0, 2, 2)
        dense = min(_scaled_sigma(M0, 2, 2, x)
                    for x in np.logspace(-6, 6, 10000))
        # golden must not be worse than the dense scan, and the scan's
        # own resolution bounds how much better it can look
        assert val <= dense + 1e-6 * max(1.0, dense)
        assert val >= dense - 5e-5 * max(1.0, dense)


def _golden_min_scalar(M0, n_v, n_w, log_span, tol=1e-7):
    """One matrix's golden section, one scaling per evaluation."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0

    def f(x):
        val = float(_scaled_sigma(M0, n_v, n_w, 10.0 ** x))
        return val if np.isfinite(val) else 1e300

    a, b = -log_span, log_span
    c = b - phi * (b - a)
    e = a + phi * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(200):
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + phi * (b - a)
            fe = f(e)
        if b - a < tol:
            break
    x = c if fc <= fe else e
    return float(10.0 ** x), min(fc, fe)


def rp_one(M0, n_v, n_w):
    """:func:`matrix_rp_test` on one matrix, a stack of one: (passed,
    d_opt, value) as scalars."""
    passed, d_opt, val = rs.matrix_rp_test(np.asarray(M0)[None], n_v, n_w)
    return bool(passed[0]), float(d_opt[0]), float(val[0])


def _bits(x):
    """The bytes of a float, with every NaN equal."""
    x = np.float64(x)
    return "nan" if np.isnan(x) else x.tobytes()


def test_matrix_rp_stack_matches_single_calls_bitwise(monkeypatch):
    rng = np.random.default_rng(8)
    M = rng.standard_normal((60, 4, 3)) + 1j * rng.standard_normal((60, 4, 3))
    lane = np.arange(M.shape[0])
    uncoupled = lane % 5 == 0  # D = 1 without a search
    one_block = (lane % 7 == 1) & ~uncoupled  # D leaves the value alone
    M[uncoupled, :2, 1:] = 0.0
    M[uncoupled, 2:, :1] = 0.0
    M[one_block, :2, 1:] = 0.0
    for span in (12.0, 6.5):
        monkeypatch.setattr(robust, "_RP_LOG_SPAN", span)
        passed, d_opt, val = rs.matrix_rp_test(M, 2, 1)
        assert np.all(d_opt[uncoupled] == 1.0)
        assert np.all(np.isnan(d_opt[one_block]))
        assert np.all(np.isfinite(d_opt[~one_block]))
        for k in range(M.shape[0]):
            single = rp_one(M[k], 2, 1)
            assert single[0] == passed[k]
            assert (_bits(single[1]), _bits(single[2])) == (_bits(d_opt[k]), _bits(val[k]))
            if uncoupled[k]:
                continue
            d_ref, val_ref = _golden_min_scalar(M[k], 2, 1, span)
            assert abs(val[k] - val_ref) <= 1e-12 * val_ref
            if not one_block[k]:
                assert abs(np.log10(d_opt[k] / d_ref)) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_rp_slope_matches_central_difference(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 7, size=2)
    n_v, n_w = rng.integers(1, 3), rng.integers(1, 3)
    M = rng.standard_normal((8, m, n)) + 1j * rng.standard_normal((8, m, n))
    t = rng.uniform(-1.5, 1.5, 8)
    sigma, slope = robust._sigma_and_slope(M, n_v, n_w, t)
    h = 1e-5
    central = (_scaled_sigma(M, n_v, n_w, 10.0 ** (t + h))
               - _scaled_sigma(M, n_v, n_w, 10.0 ** (t - h))) / (2 * h)
    assert np.allclose(sigma, _scaled_sigma(M, n_v, n_w, 10.0 ** t), rtol=1e-13, atol=0)
    assert np.all(np.abs(slope - central) <= 1e-6 * sigma)


def test_matrix_rp_flat_lane_leaves_d_undetermined():
    # a roundoff-zero M12 against M21 = 5e-5, as at theta = pi on a loop
    # with a transmission zero at z = -1: the value does not depend on D
    flat = np.array([[0.3 + 0.1j, 1e-18], [5e-5, 0.6 - 0.2j], [0.2, 0.1]])
    # an M12 of 1e-6 moves the value by 5e-6 one decade away: D counts
    weak = flat.copy()
    weak[0, 1] = 1e-6
    for M0, free in ((flat, True), (weak, False)):
        _, d_opt, val = rp_one(M0, 1, 1)
        d_ref, val_ref = _golden_min_scalar(M0, 1, 1, 12.0)
        assert abs(val - val_ref) <= 1e-12 * val_ref
        assert np.isnan(d_opt) == free
        if not free:
            # the curve is so shallow that roundoff in the value moves
            # its minimizer by about 1e-6 decades
            assert abs(np.log10(d_opt / d_ref)) <= 1e-4


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _kink_matrix(rng):
    """M = diag(U_v, U_e) M0 diag(V_w, V_d) with n_v = n_w = 2, where the
    singular values of the scaled M0 are d, 1/d and 0.8/d: the optimum
    t = 0 is a kink (sigma_1 = sigma_2 = 1), and the Frobenius balance
    lies at t = log10(1.64) / 4."""
    M0 = np.zeros((4, 4))
    M0[0, 2], M0[2, 0], M0[3, 1] = 1.0, 1.0, 0.8
    left = np.zeros((4, 4), complex)
    right = np.zeros((4, 4), complex)
    left[:2, :2], left[2:, 2:] = _unitary(rng, 2), _unitary(rng, 2)
    right[:2, :2], right[2:, 2:] = _unitary(rng, 2), _unitary(rng, 2)
    return left @ M0 @ right


def test_matrix_rp_kink_away_from_the_frobenius_start():
    rng = np.random.default_rng(3)
    for _ in range(4):
        M0 = _kink_matrix(rng)
        _, d_opt, val = rp_one(M0, 2, 2)
        _, val_ref = _golden_min_scalar(M0, 2, 2, 12.0)
        assert abs(val - val_ref) <= 1e-6 * val_ref
        assert abs(val - 1.0) <= 1e-6
        assert abs(np.log10(d_opt)) <= 1e-6


def test_matrix_rp_evaluates_only_inside_the_bracket(monkeypatch):
    # every point the search evaluates lies between the last point seen
    # sloping down and the first seen sloping up
    seen = []
    sigma_and_slope = robust._sigma_and_slope

    def recorded(M0, n_v, n_w, t):
        sigma, slope = sigma_and_slope(M0, n_v, n_w, t)
        seen.append((float(t[0]), float(slope[0])))
        return sigma, slope

    monkeypatch.setattr(robust, "_sigma_and_slope", recorded)
    rng = np.random.default_rng(11)
    cases = [(_kink_matrix(rng), 2, 2) for _ in range(4)]
    cases += [(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)), 2, 1)
              for _ in range(8)]
    for M0, n_v, n_w in cases:
        seen.clear()
        rp_one(M0, n_v, n_w)
        assert 1 <= len(seen) <= 40
        for i, (t, _) in enumerate(seen):
            a = max([-12.0] + [tj for tj, g in seen[:i] if g < 0])
            b = min([12.0] + [tj for tj, g in seen[:i] if g >= 0])
            assert a <= t <= b


def test_matrix_rp_cold_restart_invariance(monkeypatch):
    rng = np.random.default_rng(6)
    M0 = rng.standard_normal((4, 4))
    monkeypatch.setattr(robust, "_RP_LOG_SPAN", 8.0)
    _, d1, v1 = rp_one(M0, 2, 2)
    monkeypatch.setattr(robust, "_RP_LOG_SPAN", 5.0)
    _, d2, v2 = rp_one(M0, 2, 2)
    assert abs(v1 - v2) < 1e-6 * max(1.0, v1)


def test_scalar_d_leaves_m11_alone():
    rng = np.random.default_rng(7)
    M0 = rng.standard_normal((4, 4))
    M11 = M0[:2, :2]
    s0 = np.linalg.svd(M11, compute_uv=False)[0]
    for d in (0.1, 1.0, 10.0):
        r = np.ones(4)
        c = np.ones(4)
        r[:2] = d
        c[:2] = 1.0 / d
        S = M0 * np.outer(r, c)
        assert abs(np.linalg.svd(S[:2, :2], compute_uv=False)[0] - s0) < 1e-12


def test_worst_case_delta_scalar():
    # doubling the closed-form example drives the scaled minimum to one
    M0 = 2 * np.array([[0.0, 2.0], [0.125, 0.0]])
    D0 = worst_case_const_delta(M0, 1, 1)
    assert np.linalg.svd(D0, compute_uv=False)[0] <= 1 + 1e-9
    gain = matrix_lft_upper(M0, D0, 1, 1)
    assert np.linalg.svd(gain, compute_uv=False)[0] >= 1 - 1e-6


def test_worst_case_delta_strictly_failing():
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(20):
        M0 = 1.4 * rng.standard_normal((4, 4))
        passed, _, val = rp_one(M0, 2, 2)
        if passed:
            continue
        D0 = worst_case_const_delta(M0, 2, 2)
        assert np.linalg.svd(D0, compute_uv=False)[0] <= 1 + 1e-9
        try:
            gain = matrix_lft_upper(M0, D0, 2, 2)
        except rs.errors.WellPosednessError:
            found += 1
            continue
        assert np.linalg.svd(gain, compute_uv=False)[0] >= min(val, 1.0) - 1e-6
        found += 1
    assert found >= 5


def test_worst_case_delta_rejects_passing_point():
    with pytest.raises(NotAFailurePoint):
        worst_case_const_delta(0.1 * np.eye(2), 1, 1)


def test_sample_uncertainty_norm_audit():
    # the recorded norm is the scale factor times the raw norm; the
    # audit measures the returned Delta on its own
    def audit(s):
        nrm = rs.hinf_norm(s.Delta)
        assert nrm <= 1.0 + 1e-9
        assert abs(nrm - s.norm) <= 1e-12 * nrm

    for seed in range(200):
        s = rs.sample_uncertainty(2, 2, seed)
        audit(s)
        assert s.Delta.is_schur() and s.Delta.n_x == robust.DELTA_ORDER
    # one channel each way, as in the closed-loop spread studies
    for seed in range(20):
        s = rs.sample_uncertainty(1, 1, seed, sample_time=0.001)
        audit(s)
        assert s.Delta.n_x == robust.DELTA_ORDER


def test_fit_dscale_constant():
    pts = [(t, 3.0) for t in np.linspace(0, np.pi, 40)]
    D = rs.fit_dscale(pts)
    assert D.order == 0
    assert abs(D.system.D[0, 0] - 3.0) < 1e-9


def test_fit_dscale_flat_within_tolerance():
    thetas = np.linspace(0, np.pi, 40)
    pts = [(t, 3.0 * (1 + 0.01 * np.sin(5 * t))) for t in thetas]
    D = rs.fit_dscale(pts)
    assert D.order == 0


def test_fit_dscale_recovers_first_order(monkeypatch):
    monkeypatch.setattr(robust, "_D_FIT_TOL", 0.05)
    thetas = np.linspace(1e-3, np.pi, 120)
    z = np.exp(1j * thetas)
    target = np.abs((z - 0.3) / (z - 0.8))
    D = rs.fit_dscale(list(zip(thetas, target)))
    mag = np.abs(D.system.freqresp(thetas)[:, 0, 0])
    assert np.max(np.abs(mag / target - 1)) < 0.01
    assert D.system.is_schur()
    assert rs.invert(D.system).is_schur()


def test_fit_dscale_drops_undetermined_samples(monkeypatch):
    thetas = np.linspace(1e-3, np.pi, 120)
    z = np.exp(1j * thetas)
    pts = list(zip(thetas, np.abs((z - 0.3) / (z - 0.8))))
    free = [(t, np.nan) for t in (0.05, 1.3, np.pi)]
    mixed = pts[:40] + free[:2] + pts[40:] + free[2:]
    with monkeypatch.context() as patch:
        patch.setattr(robust, "_D_FIT_TOL", 0.05)
        ref = rs.fit_dscale(pts)
        D = rs.fit_dscale(mixed)
    assert (D.order, D.fit_error) == (ref.order, ref.fit_error)
    for name in "ABCD":
        assert getattr(D.system, name).tobytes() == getattr(ref.system, name).tobytes()
    # no sample constrains D: the unit scaling
    D = rs.fit_dscale(free)
    assert (D.order, D.fit_error) == (0, 0.0)
    assert D.system.D[0, 0] == 1.0


def _dscale_fit_points(rng, k):
    """Sample angles, targets and parameter vectors of a k-section fit: at
    three scales with a zero and a negative entry, and one with roots
    saturated at the clip bound (|x| > 19, where tanh(x) rounds to 1)."""
    thetas = np.sort(rng.uniform(0.0, np.pi, 97))
    target = rng.standard_normal(thetas.size)
    points = []
    for scale in (0.1, 1.0, 4.0):
        params = scale * rng.standard_normal(1 + 2 * k)
        params[rng.integers(0, params.size)] = 0.0
        params[rng.integers(0, params.size)] = -abs(params[0]) - 0.5
        points.append(params)
    saturated = rng.standard_normal(1 + 2 * k)
    saturated[1::2] = rng.choice([-1.0, 1.0], k) * rng.uniform(19.5, 30.0, k)
    points.append(saturated)
    return thetas, target, points


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_logmag_residual_matches_section_loop(k):
    thetas, target, points = _dscale_fit_points(np.random.default_rng(k), k)
    s2 = np.sin(0.5 * thetas) ** 2
    ejt = np.exp(1j * thetas)
    for params in points:
        res = _logmag_residual(params, _SectionMemo(s2, k), target)
        ref = dscale_residual_loop(params, ejt, target)
        assert np.max(np.abs(res[: thetas.size] - ref)) <= 1e-13
        assert np.array_equal(res[thetas.size :], robust._RIDGE * params)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_logmag_jacobian_matches_central_difference(k):
    thetas, target, points = _dscale_fit_points(np.random.default_rng(k), k)
    s2 = np.sin(0.5 * thetas) ** 2
    for params in points:
        jac = _logmag_jacobian(params, _SectionMemo(s2, k), target).T
        assert jac.shape == (thetas.size + params.size, params.size)
        for j in range(params.size):
            h = 1e-6 * max(1.0, abs(params[j]))
            up, down = params.copy(), params.copy()
            up[j] += h
            down[j] -= h
            diff = (_logmag_residual(up, _SectionMemo(s2, k), target)
                    - _logmag_residual(down, _SectionMemo(s2, k), target)) / (up[j] - down[j])
            scale = max(1.0, float(np.max(np.abs(diff))))
            assert np.max(np.abs(jac[:, j] - diff)) <= 1e-6 * scale
            if abs(params[j]) > 19.0:  # a saturated root leaves only its ridge row
                assert np.count_nonzero(jac[:, j]) == 1


def test_logmag_jacobian_reuses_the_residual_point(monkeypatch):
    calls = {"tanh": 0, "log10": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(robust.np, name, counted)
    s2 = np.sin(0.5 * np.linspace(0.0, np.pi, 50)) ** 2
    params = np.array([0.3, 0.5, -0.2, 1.1, 0.7])
    memo = _SectionMemo(s2, 2)
    _logmag_residual(params, memo, np.zeros(50))
    assert calls == {"tanh": 1, "log10": 1}
    _logmag_jacobian(params.copy(), memo, np.zeros(50))
    assert calls == {"tanh": 1, "log10": 1}  # q is taken from the memo
    _logmag_jacobian(params + 1.0, memo, np.zeros(50))
    assert calls == {"tanh": 2, "log10": 1}


def test_fit_dscale_skips_starts_with_non_finite_residuals(monkeypatch):
    calls = []
    residual = robust._logmag_residual

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(robust, "_logmag_residual", counted)
    thetas = np.linspace(1e-3, np.pi, 40)
    mags = np.ones_like(thetas)
    mags[7] = np.inf
    with np.errstate(invalid="ignore"):
        D = rs.fit_dscale(list(zip(thetas, mags)))
    # the fit error is infinite, which is not within the tolerance, and
    # the constant is fitted to the finite samples
    assert not D.fit_error <= robust._D_FIT_TOL
    assert D.fit_error == np.inf and D.order == 0 and D.system.D[0, 0] == 1.0
    # one residual at each of the 4 starts of orders 1-4, none solved
    assert len(calls) == 16


def _first_order_magnitudes(thetas, zeros, poles):
    z = np.exp(1j * thetas)
    mag = np.ones_like(thetas)
    for a, b in zip(zeros, poles):
        mag = mag * np.abs((z - a) / (z - b))
    return mag


# (zeros, poles, fit_tol, order of the reference fit); the notch is one
# no real cascade of order 4 follows
_FIT_INPUTS = [
    ((0.3,), (0.8,), 0.05, 1),
    ((-0.5, 0.3, 0.8, 0.97), (0.0, 0.6, 0.9, 0.99), 1e-3, 4),
    ((0.95 * np.exp(1j), 0.95 * np.exp(-1j)),
     (0.5 * np.exp(1j), 0.5 * np.exp(-1j)), 0.02, None),
]


def _fit_input(zeros, poles):
    thetas = np.linspace(1e-3, np.pi, 120)
    return list(zip(thetas, _first_order_magnitudes(thetas, zeros, poles)))


@pytest.mark.parametrize("zeros, poles, fit_tol, order", _FIT_INPUTS)
def test_fit_dscale_fits_as_well_as_the_2point_reference(zeros, poles, fit_tol, order,
                                                         monkeypatch):
    monkeypatch.setattr(robust, "_D_FIT_TOL", fit_tol)
    pts = _fit_input(zeros, poles)
    ref_order, ref_err, _ = fit_dscale_loop(pts, fit_tol=fit_tol)
    D = rs.fit_dscale(pts)
    if order is None:
        # past the highest order the best fit comes back out of tolerance
        assert not D.fit_error <= fit_tol
        assert ref_err > fit_tol
    else:
        assert ref_order == order
    assert D.order <= ref_order
    # the ridge rows pull an exact fit off by about eps^2 |x|^2: 2.9e-11
    # on the order-4 input, where all four starts reach the same point
    assert D.fit_error <= ref_err + 1e-12 + 100.0 * robust._RIDGE ** 2
    assert D.system.is_schur() and rs.invert(D.system).is_schur()


_FIT_IN_CHILD = """
import sys
import regretsynth as rs
import regretsynth.robust as robust
from test_robust import _FIT_INPUTS, _fit_input
zeros, poles, fit_tol, _ = _FIT_INPUTS[int(sys.argv[1])]
robust._D_FIT_TOL = fit_tol
D = rs.fit_dscale(_fit_input(zeros, poles))
sys.stdout.write(repr((D.order, D.fit_error, [getattr(D.system, name).tobytes().hex()
                                               for name in "ABCD"])))
"""


@pytest.mark.parametrize("case", [1, 2])
def test_fit_dscale_does_not_depend_on_heap_contents(case):
    """The order-4 and notch fits give the same bits whatever the heap
    held before: MALLOC_PERTURB_ fills freed and new blocks with a byte."""
    paths = [str(Path(rs.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    outputs = set()
    for perturb in (None, "90", "200"):
        env = {k: v for k, v in os.environ.items() if k != "MALLOC_PERTURB_"}
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        if perturb is not None:
            env["MALLOC_PERTURB_"] = perturb
        out = subprocess.run([sys.executable, "-c", _FIT_IN_CHILD, str(case)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        outputs.add(out.stdout)
    assert len(outputs) == 1, outputs


def test_build_m_composition_oracle():
    unc = scalar_uncertain_plant()
    P = unc.nominal()
    K0 = rs.build_noncausal(P)
    level = rs.RegretLevel(1.2, 1.0)
    res = rs.synth_regret(P, level, K0=K0)
    assert res.feasible
    phat = rs.build_phat(K0, (level.gamma_d, level.gamma_J))
    F = rs.spectral_factor_regret(phat)
    M = rs.build_M(unc, res.controller, F)
    ds = rs.sample_uncertainty(1, 1, seed=1)
    lhs = rs.lft_upper(M.M, ds.Delta, M.n_w, M.n_v)
    clK = rs.lft_lower(unc.as_generalized(), res.controller)
    rhs = rs.series(F.F_inv, rs.lft_upper(clK, ds.Delta, 1, 1))
    for th in np.linspace(0, np.pi, 64):
        z = np.exp(1j * th)
        rel = np.max(np.abs(at_z(lhs, z) - at_z(rhs, z)))
        assert rel < 1e-9 * (1 + np.max(np.abs(at_z(rhs, z))))


def test_robust_perf_requires_stable_m():
    M = rs.AugmentedOpenLoop(
        rs.StateSpace([[1.1]], [[1.0, 1.0]], [[1.0], [1.0]],
                      np.zeros((2, 2)), 1.0), 1, 1)
    with pytest.raises(UnstableSystem):
        rs.robust_perf_test(M)


def test_robust_perf_small_gain_violation():
    # M11 with norm above one: a scalar D commutes with it, so no scaling
    # brings the peak below that norm
    D = np.array([[1.2, 0.0], [0.0, 0.1]])
    M = rs.AugmentedOpenLoop(rs.static_gain(D, 1.0), 1, 1)
    rep = rs.robust_perf_test(M)
    assert rep.peak == 1.2


# relative gap allowed between robust_perf_test and its reference, on each
# angle and on the peak: the slope search stops within 1e-7 decades of
# log10 D, and the reference's scan within 1e-8, which at a kink of the
# scaled value costs ln(10) times that (relative)
RP_REFERENCE_TOL = 1e-6


def assert_matches_reference(M):
    """Each value of robust_perf_test and its peak agree with the
    reference's scan of log10 D, and it refines the grid near angles
    that are among the worst of the base grid by the reference."""
    rep = rs.robust_perf_test(M)
    thetas = np.array([th for th, _, _ in rep.pointwise])
    values = np.array([v for _, _, v in rep.pointwise])
    ref = robust_perf_test_reference(M, thetas)
    assert np.all(np.abs(values - ref) <= RP_REFERENCE_TOL * ref)
    assert abs(rep.peak - ref.max()) <= RP_REFERENCE_TOL * ref.max()
    grid, n_refine = robust._RP_GRID, robust._RP_N_REFINE
    on_grid = np.isin(thetas, grid.thetas)
    assert np.array_equal(thetas[on_grid], grid.thetas)
    # the worst angles by the test's own values, ties in angle order
    worst = np.argsort(-values[on_grid], kind="stable")[:n_refine]
    extra = np.setdiff1d(grid.refined_near(grid.thetas[worst]).thetas, grid.thetas)
    assert np.array_equal(thetas[~on_grid], extra)
    # ... are among the worst by the reference, up to the tolerance
    base = ref[on_grid]
    assert base[worst].min() >= np.sort(base)[-n_refine] * (1.0 - RP_REFERENCE_TOL)
    return rep, ref


def _dk_success(example):
    if example == "scalar":
        unc, level = scalar_uncertain_plant(), rs.RegretLevel(1.2, 1.0)
    else:
        unc, level = rs.build_example("quartercar"), rs.RegretLevel.additive(0.8)
    K0 = rs.build_noncausal(unc.nominal())
    return unc, level, K0


@pytest.mark.parametrize("example", ["scalar", "quartercar"])
def test_robust_perf_test_matches_reference_on_each_dk_step(example, monkeypatch):
    # the scaled test runs once per iteration that does not succeed, and
    # the success entry, whose K-step met level 1, has no scaled peak
    unc, level, K0 = _dk_success(example)
    tested = []
    test = robust.robust_perf_test
    monkeypatch.setattr(robust, "robust_perf_test",
                        lambda M: tested.append(M) or test(M))
    res = rs.dk_iteration(unc, level, K0=K0)
    trace = res.metadata["dk_trace"]
    assert res.feasible and tested
    assert "scaled_peak" not in trace[-1]
    assert all("scaled_peak" in t for t in trace[:-1])
    reports = [assert_matches_reference(M) for M in tested]
    assert [rep.peak for rep, _ in reports] == [t["scaled_peak"] for t in trace[:-1]]


@pytest.mark.parametrize("example", ["scalar", "quartercar"])
def test_dk_success_is_the_k_steps_bracketed_level(example):
    # the success certificate is the bracket of the D-scaled closed loop
    # of the last K-step, not a grid peak
    unc, level, K0 = _dk_success(example)
    res = rs.dk_iteration(unc, level, K0=K0)
    assert res.feasible and res.metadata["final_D"] is not None
    assert res.metadata["dk_trace"][-1]["hinf_value"] == 1.0
    _, F = rs.regret.regret_weighted_plant(unc.nominal(), K0, level)
    P_syn = robust.dk_scaled_plant(unc, F, res.metadata["final_D"])
    br = rs.hinf_norm(rs.lft_lower(P_syn, res.controller), return_bracket=True)
    assert res.achieved_norm == br.upper < 1.0
    assert res.metadata["norm_bracket"] == (br.lower, br.upper)
    assert not {"scaled_peak", "m11_norm"} & set(res.metadata)


def _resonance(theta0, radius, peak):
    """b / (z^2 - 2 r cos(theta0) z + r^2), scaled to about ``peak`` at theta0."""
    b = peak * (1.0 - radius) * 2.0 * np.sin(theta0)
    return rs.StateSpace([[2.0 * radius * np.cos(theta0), -radius**2], [1.0, 0.0]],
                         [[1.0], [0.0]], [[0.0, b]], [[0.0]], 1.0)


def test_robust_perf_test_matches_reference_on_constructed_inputs():
    # the static M of test_robust_perf_small_gain_violation: M11's norm
    # is the scaled peak
    static = rs.AugmentedOpenLoop(rs.static_gain(np.diag([1.2, 0.1]), 1.0), 1, 1)
    rep, _ = assert_matches_reference(static)
    assert rep.peak == 1.2
    # M11's resonance lies between two grid angles, far above the scaled
    # grid peak 1.05 of M22: the grid misses it, which is why the peak
    # only feeds the D-fit and DK success rests on the K-step's bracket
    thetas = robust._RP_GRID.thetas
    i = int(np.searchsorted(thetas, 1.5))
    theta0 = 0.5 * (thetas[i - 1] + thetas[i])
    peaked = rs.AugmentedOpenLoop(
        rs.append(_resonance(theta0, 1.0 - 1e-4, 2.0), rs.static_gain([[1.05]], 1.0)),
        1, 1)
    rep, _ = assert_matches_reference(peaked)
    assert rep.peak < 1.06 < 1.9 < rs.hinf_norm(peaked.M.subsystem([0], [0]))
    # M11's norm 1.2 lies below the scaled peak 1.5 of M22
    between = rs.AugmentedOpenLoop(
        rs.append(rs.StateSpace([[0.5]], [[1.0]], [[0.6]], [[0.0]], 1.0),
                  rs.static_gain([[1.5]], 1.0)),
        1, 1)
    rep, _ = assert_matches_reference(between)
    assert rep.peak == 1.5


def test_dk_k_steps_keep_a_bracket_below_their_level(monkeypatch):
    # the K-step keeps the controller of the level its search returns
    # with no bracket; the bracket of each such closed loop is below it
    searches = []
    search = robust.hinf_search

    def recorded(P, *args, **kwargs):
        out = search(P, *args, **kwargs)
        searches.append((P, *out))
        return out

    monkeypatch.setattr(robust, "hinf_search", recorded)
    unc = rs.build_example("quartercar")
    res = rs.dk_iteration(unc, rs.RegretLevel.additive(0.8),
                          K0=rs.build_noncausal(unc.nominal()))
    assert res.feasible and searches
    k_steps = [t for t in res.metadata["dk_trace"] if "k_levels" in t]
    assert [t["k_levels"] for t in k_steps] == [levels for *_, levels in searches]
    assert [t["hinf_value"] for t in k_steps] == [g for _, _, g, *_ in searches]
    for (P, lo, g, best, levels), t in zip(searches, k_steps):
        assert lo < g
        assert t["k_fallback"] == rs.hinf.fell_back(levels)
        # the level returned is certified by its own entry, the record's
        # last unless the search fell back
        assert [v for level, v in levels if level == g][-1] in {"below", "bracket"}
        assert t["k_fallback"] or levels[-1][0] == g
        br = rs.hinf_norm(rs.lft_lower(P, best.controller), return_bracket=True)
        assert br.certified and br.upper < g


def test_robust_perf_no_uncertainty_reduces_to_norm():
    # with zero-size uncertainty channels the test is the plain norm
    g = rs.StateSpace(0.5 * np.eye(1), [[1.0]], [[0.3]], [[0.0]], 1.0)
    M = rs.AugmentedOpenLoop(g, 0, 0)
    rep = rs.robust_perf_test(M)
    assert abs(rep.peak - rs.hinf_norm(g)) < 1e-6
    big = rs.AugmentedOpenLoop(
        rs.StateSpace(0.5 * np.eye(1), [[1.0]], [[0.8]], [[0.0]], 1.0), 0, 0)
    rep2 = rs.robust_perf_test(big)
    assert abs(rep2.peak - 1.6) < 1e-6


def test_dk_iteration_scalar_uncertain():
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    res = rs.dk_iteration(unc, rs.RegretLevel(2.0, 1.0), K0=K0)
    assert res.feasible
    assert res.achieved_norm < 1.0
    rep = rs.verify_robust_regret(res.controller, unc, rs.RegretLevel(2.0, 1.0),
                                  n_delta=10, n_dist=5, seed=2, K0=K0)
    assert rep.passed, rep


def test_dk_trace_records_each_fit_error(monkeypatch):
    fits = []
    fit = robust.fit_dscale

    def recorded(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(robust, "fit_dscale", recorded)
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    res = rs.dk_iteration(unc, rs.RegretLevel(1.2, 1.0), K0=K0)
    trace = res.metadata["dk_trace"]
    assert res.feasible and len(trace) == 2 and len(fits) == 1
    assert (trace[0]["d_order"], trace[0]["d_fit_error"]) == (0, None)
    assert (trace[1]["d_order"], trace[1]["d_fit_error"]) == (fits[0].order, fits[0].fit_error)


def test_dk_infeasible_when_nominal_infeasible():
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    g_inf, _ = rs.hinf_optimize(unc.nominal(), 1e-3, 1e-3)
    res = rs.dk_iteration(unc, rs.RegretLevel.hinf(0.5 * g_inf), K0=K0)
    assert not res.feasible
    assert res.metadata["reason"] == "nominal_infeasible"


def test_dk_scaled_plant_identity_weight(store):
    # the unit D-scale leaves the uncertainty channels alone: the plant is
    # the one weighted by F^{-1} on d alone, bit for bit
    scalar = scalar_uncertain_plant()
    cases = [(scalar, rs.build_noncausal(scalar.nominal()))]
    cases += [(store.uncertain(name), store.k0(name)) for name in rs.EXAMPLE_NAMES]
    for unc, K0 in cases:
        F = rs.spectral_factor_regret(rs.build_phat(K0, (1.5, 1.0)))
        Pd = dk_scaled_plant(unc, F, _unit_dscale(unc.sample_time))
        assert (Pd.n_d, Pd.n_e) == (unc.n_w + unc.n_d, unc.n_v + unc.n_e)
        ts = unc.sample_time
        W_in = rs.append(rs.append(rs.static_gain(np.eye(unc.n_w), ts), F.F_inv),
                         rs.static_gain(np.eye(unc.n_u), ts))
        W_out = rs.static_gain(np.eye(unc.n_v + unc.n_e + unc.n_y), ts)
        ref = rs.series(rs.series(W_in, unc.ss), W_out)
        for name in "ABCD":
            assert getattr(Pd.ss, name).tobytes() == getattr(ref, name).tobytes()


def test_robust_front_dominates_nominal_scalar(monkeypatch):
    monkeypatch.setattr(rs.regret, "_GRID_SPAN", (0.3, 0.9))
    unc = scalar_uncertain_plant()
    P = unc.nominal()
    K0 = rs.build_noncausal(P)
    nom = rs.pareto_front(P, n_points=3, tol_abs=5e-3, tol_rel=5e-3, K0=K0)
    rob = rs.robust_pareto_front(unc, n_points=3, tol_abs=5e-3, tol_rel=5e-3)
    # both fronts share one gamma_d grid, the nominal ray front's points
    assert rob.gamma_inf == nom.gamma_inf
    for pn, pr in zip(nom.points, rob.points):
        assert pr.gamma_d == pn.gamma_d and pr.ray is None
        assert pr.gamma_j_upper >= pn.gamma_j_upper - 2 * (5e-3 + 5e-3 * pn.gamma_j_upper)
        # each DK level is traced with its verdict and iteration count
        levels = pr.result.metadata["search_levels"]
        assert {verdict for _, verdict, _ in levels} <= {
            "feasible", "dk_did_not_converge", "nominal_infeasible"}
        at_upper = [lv for lv in levels if lv[0] == pr.gamma_j_upper]
        assert at_upper == [(pr.gamma_j_upper, "feasible",
                             pr.result.metadata["iterations"])]


def test_verify_robust_regret_matches_per_trial_loop():
    # the static gain -1.4 leaves a loop pole at -0.9, and some of the
    # sampled Deltas push it out of the unit circle
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    K = rs.static_gain([[-1.4]], 1.0)
    level = rs.RegretLevel(2.0, 1.0)
    rep = rs.verify_robust_regret(K, unc, level, n_delta=12, n_dist=4, seed=1,
                                  K0=K0)
    assert rep == verify_robust_regret_loop(K, unc, level, n_delta=12, n_dist=4,
                                            seed=1, K0=K0)
    assert (rep.n_unstable, rep.trials) == (6, 24)


def test_verify_robust_regret_costs_its_trials_in_one_sequence(monkeypatch):
    # the benchmark is the same for every Delta: one call, all trials
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    K = rs.static_gain([[-1.4]], 1.0)
    level = rs.RegretLevel(2.0, 1.0)
    sequences = []
    cost = robust.eval_noncausal_cost
    monkeypatch.setattr(robust, "eval_noncausal_cost",
                        lambda K0, ds: sequences.append(len(ds)) or cost(K0, ds))
    rep = rs.verify_robust_regret(K, unc, level, n_delta=12, n_dist=4, seed=1,
                                  K0=K0)
    assert sequences == [rep.trials] == [24]


@pytest.mark.parametrize("n_delta, n_dist", [(0, 4), (12, 0), (-1, 4)])
def test_verify_robust_regret_rejects_no_samples(monkeypatch, n_delta, n_dist):
    # the static gain -1.4 fails the check, which no samples would pass
    unc = scalar_uncertain_plant()
    K = rs.static_gain([[-1.4]], 1.0)
    K0 = rs.build_noncausal(unc.nominal())
    closed = []
    monkeypatch.setattr(robust, "lft_lower", closed.append)
    with pytest.raises(ValueError, match="n_delta and n_dist"):
        rs.verify_robust_regret(K, unc, rs.RegretLevel(2.0, 1.0),
                                n_delta=n_delta, n_dist=n_dist, K0=K0)
    assert closed == []  # rejected before any work


def _unit_dscale(sample_time=1.0):
    return robust.DScaling(system=rs.static_gain([[1.0]], sample_time),
                           order=0, fit_error=0.0)


def test_dk_iteration_records_a_k_step_without_a_feasible_level(monkeypatch):
    def no_level(*args, **kwargs):
        raise rs.errors.NoFeasibleUpperBound("no feasible level found up to 5.76e+17")

    monkeypatch.setattr(robust, "hinf_search", no_level)
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    # an initial D puts a K-step at iteration 0
    res = rs.dk_iteration(unc, rs.RegretLevel(2.0, 1.0), K0=K0, initial_D=_unit_dscale())
    assert not res.feasible
    assert res.metadata["reason"] == "dk_did_not_converge"
    assert res.metadata["dk_trace"] == [
        {"iter": 0, "error": "no feasible level found up to 5.76e+17"}]


def test_dk_iteration_lets_a_fault_in_the_k_step_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a fault, not a verdict")

    monkeypatch.setattr(robust, "hinf_search", broken)
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    with pytest.raises(TypeError):
        rs.dk_iteration(unc, rs.RegretLevel(2.0, 1.0), K0=K0, initial_D=_unit_dscale())


def _digest(v):
    """A value with every float, array and system replaced by its bytes."""
    if isinstance(v, (float, np.floating)):
        return np.float64(v).tobytes()
    if isinstance(v, dict):
        return {k: _digest(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_digest(x) for x in v]
    if isinstance(v, rs.StateSpace):
        return [getattr(v, m).tobytes() for m in "ABCD"]
    if isinstance(v, robust.DScaling):
        return _digest((v.system, v.order, v.fit_error))
    return v


@pytest.mark.parametrize("example", ["scalar", "quartercar"])
def test_k_step_start_changes_only_the_levels_tried(example, monkeypatch):
    if example == "scalar":
        unc, level = scalar_uncertain_plant(), rs.RegretLevel(1.05, 1.0)
    else:
        unc, level = rs.build_example("quartercar"), rs.RegretLevel.additive(0.765625)
    K0 = rs.build_noncausal(unc.nominal())
    warm = rs.dk_iteration(unc, level, K0=K0)
    search = robust.hinf_search
    monkeypatch.setattr(robust, "hinf_search",
                        lambda *args, start=None, **kwargs: search(*args, **kwargs))
    cold = rs.dk_iteration(unc, level, K0=K0)

    def without_levels(res):
        meta = dict(res.metadata)
        trace = [{k: v for k, v in t.items() if k != "k_levels"} for t in meta.pop("dk_trace")]
        return _digest((res.controller, res.feasible, res.achieved_norm, meta, trace))

    def levels_tried(res):
        return sum(len(t.get("k_levels", ())) for t in res.metadata["dk_trace"])

    assert without_levels(warm) == without_levels(cold)
    # each run has a K-step after the first, so the start saves levels
    assert levels_tried(warm) < levels_tried(cold)


def _count_hinf_norm(monkeypatch):
    """Count the brackets of every caller: ``hinf`` and ``robust`` each
    bind ``hinf_norm`` by name."""
    calls = []
    bracket = rs.norms.hinf_norm

    def counted(*args, **kwargs):
        calls.append(args[0])
        return bracket(*args, **kwargs)

    monkeypatch.setattr(rs.hinf, "hinf_norm", counted)
    monkeypatch.setattr(robust, "hinf_norm", counted)
    return calls


@pytest.mark.parametrize("fitted", [False, True])
def test_nominal_check_with_an_initial_d_decides_without_a_bracket(fitted,
                                                                   monkeypatch):
    unc = scalar_uncertain_plant()
    K0 = rs.build_noncausal(unc.nominal())
    if fitted:
        # the fit of a run that needed one, as the feasibility oracle passes it on
        first = rs.dk_iteration(unc, rs.RegretLevel(1.2, 1.0), K0=K0)
        D = first.metadata["final_D"]
        assert first.feasible and D is not None and D.system.n_x > 0
    else:
        D = _unit_dscale()
    level = rs.RegretLevel(1.1, 1.0)
    calls = _count_hinf_norm(monkeypatch)
    checks = []
    decide = robust.decide_level

    def recorded(P, gamma):
        before = len(calls)
        verdict, res = decide(P, gamma)
        checks.append((gamma, verdict, len(calls) - before))
        return verdict, res

    monkeypatch.setattr(robust, "decide_level", recorded)
    decided = rs.dk_iteration(unc, level, K0=K0, initial_D=D)
    # one nominal check, at level 1, decided by norm_below alone
    assert checks == [(1.0, "below", 0)]
    monkeypatch.setattr(robust, "decide_level",
                        lambda P, gamma: ("bracket", rs.synth_hinf(P, gamma)))
    bracketed = rs.dk_iteration(unc, level, K0=K0, initial_D=D)

    def digest(res):
        meta = res.metadata
        return _digest((res.controller, res.feasible, res.achieved_norm,
                        meta.get("reason"), meta["iterations"], meta.get("norm_bracket"),
                        meta["dk_trace"]))

    assert decided.metadata["dk_trace"][0]["k_levels"]
    assert digest(decided) == digest(bracketed)


def test_nominal_check_with_an_initial_d_rejects_an_infeasible_level(monkeypatch):
    # SISO H-infinity at 1.0, below its nominal level of about 1.83
    unc = rs.build_example("siso")
    K0 = rs.build_noncausal(unc.nominal())
    calls = _count_hinf_norm(monkeypatch)
    res = rs.dk_iteration(unc, rs.RegretLevel.hinf(1.0), K0=K0,
                          initial_D=_unit_dscale())
    assert not res.feasible and res.controller is None
    assert res.metadata["reason"] == "nominal_infeasible"
    assert res.metadata["iterations"] == 0
    assert not calls


@pytest.mark.parametrize("example", ["scalar", "quartercar"])
def test_cold_iteration_zero_is_the_bracketed_nominal_design(example, monkeypatch):
    # without an initial D, iteration 0 closes the nominal controller and
    # records its bracketed norm: what synth_hinf gives at level 1
    if example == "scalar":
        unc, level = scalar_uncertain_plant(), rs.RegretLevel(2.0, 1.0)
    else:
        unc, level = rs.build_example("quartercar"), rs.RegretLevel.additive(0.8)
    K0 = rs.build_noncausal(unc.nominal())
    closed = []
    build_M = robust.build_M
    monkeypatch.setattr(robust, "build_M",
                        lambda P, K, F: closed.append(K) or build_M(P, K, F))
    res = rs.dk_iteration(unc, level, K0=K0)
    ref = rs.synth_hinf(rs.regret.regret_weighted_plant(unc.nominal(), K0, level)[0], 1.0)
    assert ref.feasible
    assert res.metadata["dk_trace"][0]["hinf_value"] == ref.achieved_norm
    assert _digest(closed[0]) == _digest(ref.controller)
