"""Independent oracles used by the acceptance suite.

The finite-horizon quadratic program is solved directly from its KKT
system as a sparse linear solve: no Riccati machinery, no spectral
factors, just the stacked optimality conditions of

    min over u  sum_t || C_e x_t + D_eu u_t ||^2
    s.t.        x_{t+1} = A x_t + B_d d_t + B_u u_t,   x_0 = 0.

The horizon is padded on both sides so the gap to the doubly infinite
optimum is below the comparison tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import regretsynth as rs
from regretsynth.signals import (TRUNC_TOL, decay_extension, free_response,
                                 response_energy)


def _kkt_matrix(P, T):
    n, m = P.n_x, P.n_u
    Q = P.C_e.T @ P.C_e
    S = P.C_e.T @ P.D_eu
    R = P.D_eu.T @ P.D_eu
    A, Bu = P.A, P.B_u
    blk = m + 2 * n  # (u_t, lambda_{t+1}, x_{t+1}) per step
    N = T * blk
    rows, cols, vals = [], [], []

    def put(r, c, M):
        Mi, Mj = np.nonzero(M)
        rows.extend((r + Mi).tolist())
        cols.extend((c + Mj).tolist())
        vals.extend(M[Mi, Mj].tolist())

    for t in range(T):
        o = t * blk
        iu, il, ix = o, o + m, o + m + n
        # u_t stationarity: 2 S' x_t + 2 R u_t - Bu' lam_{t+1} = 0
        put(iu, iu, 2 * R)
        put(iu, il, -Bu.T)
        if t > 0:
            put(iu, (t - 1) * blk + m + n, 2 * S.T)  # x_t
        # dynamics: x_{t+1} - A x_t - Bu u_t = Bd d_t
        put(il, ix, np.eye(n))
        put(il, iu, -Bu)
        if t > 0:
            put(il, (t - 1) * blk + m + n, -A)
        # x_{t+1} stationarity for t+1 <= T-1 (cost term + adjoints):
        # 2 Q x_{t+1} + 2 S u_{t+1} + lam_{t+1} - A' lam_{t+2} = 0
        put(ix, il, np.eye(n))
        if t + 1 <= T - 1:
            put(ix, ix, 2 * Q)
            put(ix, (t + 1) * blk, 2 * S)
            put(ix, (t + 1) * blk + m, -A.T)
        # else: lam_T = 0 handled by the identity block alone
    return scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(N, N)), blk


def finite_horizon_qp(P, d, pad_left: int, pad_right: int, lu=None) -> float:
    """Exact minimum of the padded finite-horizon quadratic cost."""
    T = len(d) + pad_left + pad_right
    dd = np.zeros((T, P.n_d))
    dd[pad_left : pad_left + len(d)] = d.samples
    n, m = P.n_x, P.n_u
    if lu is None:
        K, blk = _kkt_matrix(P, T)
        lu = scipy.sparse.linalg.splu(K)
    else:
        blk = m + 2 * n
    rhs = np.zeros((T, blk))  # one row (u_t, lambda_{t+1}, x_{t+1}) per step
    rhs[:, m : m + n] = dd @ P.B_d.T
    z = lu.solve(rhs.ravel()).reshape(T, blk)
    x = np.vstack([np.zeros((1, n)), z[:-1, m + n :]])  # x_0 = 0, x_1 .. x_{T-1}
    e = x @ P.C_e.T + z[:, :m] @ P.D_eu.T
    return float(np.vdot(e, e))


class QPOracle:
    """Finite-horizon QP oracle with LU reuse across disturbances."""

    def __init__(self, P, K0, rel_tol: float = 1e-8):
        self.P = P
        self.pad = qp_pad(decay_rate(K0), rel_tol)
        self._lus = {}

    def cost(self, d) -> float:
        T = len(d) + 2 * self.pad
        if T not in self._lus:
            K, _ = _kkt_matrix(self.P, T)
            self._lus[T] = scipy.sparse.linalg.splu(K)
        return finite_horizon_qp(self.P, d, self.pad, self.pad,
                                 lu=self._lus[T])


class NotAFailurePoint(rs.errors.RegretSynthError):
    """Worst-case uncertainty requested at a frequency that passes the test."""


def impulse(dim: int, channel: int = 0) -> rs.Signal:
    """Unit impulse on one of ``dim`` channels at time 0."""
    s = np.zeros((1, dim))
    s[0, channel] = 1.0
    return rs.Signal(0, s)


def matrix_lft_upper(M: np.ndarray, Delta: np.ndarray, n_w: int, n_v: int) -> np.ndarray:
    """Constant-matrix upper LFT: M22 + M21 Delta (I - M11 Delta)^{-1} M12;
    raises WellPosednessError where sigma_min(I - M11 Delta) is at most
    1e-9 max(1, sigma_max), the margin of ``plants.lft_upper``."""
    M11 = M[:n_v, :n_w]
    M12 = M[:n_v, n_w:]
    M21 = M[n_v:, :n_w]
    M22 = M[n_v:, n_w:]
    loop = np.eye(n_v) - M11 @ Delta
    sv = np.linalg.svd(loop, compute_uv=False) if loop.size else np.array([1.0])
    if loop.size and sv[-1] <= 1e-9 * max(1.0, sv[0]):
        raise rs.errors.WellPosednessError("I - M11 Delta is singular")
    return M22 + M21 @ Delta @ np.linalg.solve(loop, M12)


def decay_rate(K0) -> float:
    """Spectral radius of the benchmark closed loop A11 = A - B_u K_x."""
    return float(np.max(np.abs(np.linalg.eigvals(K0.A11))))


def qp_pad(rho: float, rel_tol: float = 1e-8) -> int:
    """Horizon padding so the truncation gap is below rel_tol (energy)."""
    rho = min(max(rho, 1e-6), 1 - 1e-9)
    return int(np.ceil(np.log(rel_tol) / (2.0 * np.log(rho)))) + 20


def qp_oracle_cost(P, K0, d, rel_tol: float = 1e-8) -> float:
    pad = qp_pad(decay_rate(K0), rel_tol)
    return finite_horizon_qp(P, d, pad, pad)


def _outer_factor(A, B, C, D, ts):
    """Outer Om of a one-input G = C (zI - A)^{-1} B + D: Om~Om = G~G.

    The LQR factorization by scipy's DARE: Om = R^{1/2} (1 + K (zI -
    A)^{-1} B) with R = D'D + B'XB and K = R^{-1} (B'XA + D'C).
    """
    X = scipy.linalg.solve_discrete_are(A, B, C.T @ C, D.T @ D, s=C.T @ D)
    R = D.T @ D + B.T @ X @ B
    K = np.linalg.solve(R, B.T @ X @ A + D.T @ C)
    r = np.sqrt(R)
    return rs.StateSpace(A, B, r @ K, r, ts)


def benchmark_weight_inverse(P, eps: float):
    """Stable W^{-1} with |W|^2 = min_u |P_ed + P_eu u|^2 + eps^2 on |z| = 1.

    For one disturbance and one control the pointwise least-squares
    residual of a = P_ed against b = P_eu is sum_{i<j} |b_i a_j - b_j
    a_i|^2 / |b|^2 (Lagrange's identity).  The numerator column
    [b_i a_j - b_j a_i; eps b] and b are factored separately, from the
    plant matrices alone: no benchmark controller, no regret spectral
    factor and no regretsynth Riccati solver is involved.
    """
    assert P.n_d == 1 and P.n_u == 1
    n, ne = P.n_x, P.n_e
    A, B_d, B_u, C_e, D_ed, D_eu = P.A, P.B_d, P.B_u, P.C_e, P.D_ed, P.D_eu
    # states: a driven by d, b driven by each a_j, b driven by d
    Ag = scipy.linalg.block_diag(*([A] * (ne + 2)))
    for j in range(ne):
        Ag[n * (1 + j):n * (2 + j), :n] = B_u @ C_e[j:j + 1]
    Bg = np.vstack([B_d] + [B_u @ D_ed[j:j + 1] for j in range(ne)] + [B_u])

    def b_times_a(i, j):
        c = np.zeros((1, Ag.shape[0]))
        c[:, n * (1 + j):n * (2 + j)] = C_e[i:i + 1]
        c[:, :n] += D_eu[i:i + 1] @ C_e[j:j + 1]
        return c, D_eu[i:i + 1] @ D_ed[j:j + 1]

    rows = []
    for i in range(ne):
        for j in range(i + 1, ne):
            (c1, d1), (c2, d2) = b_times_a(i, j), b_times_a(j, i)
            rows.append((c1 - c2, d1 - d2))
    for i in range(ne):
        c = np.zeros((1, Ag.shape[0]))
        c[:, -n:] = eps * C_e[i:i + 1]
        rows.append((c, eps * D_eu[i:i + 1]))
    Cg = np.vstack([c for c, _ in rows])
    Dg = np.vstack([d for _, d in rows])
    ts = P.sample_time
    return rs.series(rs.invert(_outer_factor(Ag, Bg, Cg, Dg, ts)),
                     _outer_factor(A, B_u, C_e, D_eu, ts))


def competitive_ratio_oracle(P, tol_abs: float = 1e-4,
                             tol_rel: float = 1e-4) -> float:
    """Optimal regularized competitive ratio without the regret factor.

    A level gamma is met when ||T d||^2 <= gamma^2 (J(K0, d) + EPS_CR^2
    ||d||^2), i.e. when ||T W^{-1}||_inf <= gamma with W from
    ``benchmark_weight_inverse``; the H-infinity bisection on the
    weighted plant then gives the optimum directly.
    """
    P_w = rs.weight_disturbance(P, benchmark_weight_inverse(P, rs.EPS_CR))
    return rs.hinf_optimize(P_w, tol_abs, tol_rel)[0]


def cr_bisection_reference(P, K0, tol_abs: float = 1e-4,
                           tol_rel: float = 1e-4):
    """The competitive ratio by a bisection over regret levels.

    ``optimize_special`` searched this way before it ran one H-infinity
    search on the plant weighted by the factor at gamma = 1: each level
    gamma builds its own factor at (EPS_CR gamma, gamma) and is decided
    by ``synth_regret``.  Returns (gamma_upper, result_at_upper).
    """
    def feasible_at(gamma):
        return rs.synth_regret(P, rs.RegretLevel.competitive_ratio(gamma), K0=K0)

    _, hi, best = rs.hinf.bisect_level(feasible_at, tol_abs, tol_rel)
    return hi, best


def additive_bisection_reference(P, K0, tol_abs: float = 1e-4,
                                 tol_rel: float = 1e-4):
    """The additive-regret level by a bisection over ``synth_regret``.

    ``optimize_special`` searched this way before it decided each level
    gamma by the Riccati tests on the plant weighted by the factor at
    (gamma, 1) and certified only the level it returned: each level is
    decided by ``synth_regret``, which brackets the norm of every
    candidate that passes.  Returns (gamma_upper, result_at_upper).
    """
    def feasible_at(gamma):
        return rs.synth_regret(P, rs.RegretLevel.additive(gamma), K0=K0)

    _, hi, best = rs.hinf.bisect_level(feasible_at, tol_abs, tol_rel)
    return hi, best


def ray_point_reference(P, K0, ray: float, tol_abs: float, tol_rel: float):
    """A nominal front's point on the ray gamma_d = ``ray`` gamma_J by a
    cold search over ``decide_level``.

    ``pareto_front`` searched each ray this way before its ray points ran
    ``hinf_search``: every level decided by ``norm_below`` (bracketed
    only if that cannot decide) on the plant weighted by the factor at
    (ray, 1), at the tolerance ``tol_abs / max(1, ray)``, and the level
    returned bracketed.  Returns (gamma_lower, gamma_upper, result).
    """
    Pw, _ = rs.regret.regret_weighted_plant(P, K0, rs.RegretLevel(ray, 1.0))
    lo, hi, best = rs.hinf.bisect_level(
        lambda g: rs.hinf.decide_level(Pw, g)[1], tol_abs / max(1.0, ray), tol_rel)
    return lo, hi, rs.hinf.certify_returned(hi, best)


def para_hermitian_apply(system, ebar, tol: float = 1e-12):
    """Apply the adjoint P~ in the time domain: <P d, e> = <d, P~ e>.

    For a causal stable StateSpace the adjoint recursion
    ``A' xb[t+1] = xb[t] - C' eb[t]`` runs backward from zero terminal
    state.  For a benchmark closed loop the transposed state matrix is
    block lower-triangular with a stable and an anti-stable block, so
    the first block runs backward and the second forward.
    """
    if isinstance(system, rs.NoncausalClosedLoop):
        A, B, C, D = system.A_hat, system.B_hat, system.C_hat, system.D_hat
        n = system.K0.A11.shape[0]
        K0 = system.K0
        n_pad = rs.signals.decay_extension(decay_rate(K0), tol, n)
        t0, t1 = ebar.t0 - n_pad, ebar.t1 + n_pad
        T = t1 - t0 + 1
        ein = ebar.on_window(t0, t1)
        rhs = ein @ C  # rows are C' eb[t]
        A11, A12 = A[:n, :n], A[:n, n:]
        A22 = A[n:, n:]
        # xb1[t] = A11' xb1[t+1] + rhs1[t]  (stable: backward)
        x1 = np.zeros((T + 1, n))
        for k in range(T - 1, -1, -1):
            x1[k] = A11.T @ x1[k + 1] + rhs[k, :n]
        # xb2[t] = A12' xb1[t+1] + A22' xb2[t+1] + rhs2[t]
        # A22 = A11^{-T} is anti-stable, so solve forward:
        # xb2[t+1] = A22^{-T-ish}: A22' xb2[t+1] = xb2[t] - A12' xb1[t+1] - rhs2[t]
        A22T_inv = np.linalg.inv(A22.T)
        x2 = np.zeros((T + 1, n))
        for k in range(0, T):
            x2[k + 1] = A22T_inv @ (x2[k] - A12.T @ x1[k + 1] - rhs[k, n:])
        xb = np.hstack([x1, x2])
        dbar = xb[1:] @ B + ein @ D
        return rs.Signal(t0, dbar)
    G = system
    if G.n_x == 0:
        return rs.Signal(ebar.t0, ebar.samples @ G.D)
    if not G.is_schur():
        raise rs.errors.AssumptionViolated(
            "para_hermitian_apply needs a stable causal system")
    n_pad = rs.signals.decay_extension(G.spectral_radius(), tol, G.n_x)
    t0, t1 = ebar.t0 - n_pad, ebar.t1
    T = t1 - t0 + 1
    ein = ebar.on_window(t0, t1)
    xb = np.zeros((T + 1, G.n_x))
    for k in range(T - 1, -1, -1):
        xb[k] = G.A.T @ xb[k + 1] + G.C.T @ ein[k]
    dbar = xb[1:] @ G.B + ein @ G.D
    return rs.Signal(t0, dbar)


def schur_stein_reference(A, Q):
    """``statespace._schur_stein`` through ``scipy.linalg.solve_triangular``,
    one call per column."""
    n = A.shape[0]
    T, Z = scipy.linalg.schur(A.astype(complex), output="complex")
    Qs = Z.conj().T @ Q @ Z
    TH = T.conj().T
    eye = np.eye(n)
    Xs = np.zeros((n, n), dtype=complex)
    for j in range(n):
        rhs = Qs[:, j] + TH @ (Xs[:, :j] @ T[:j, j])
        Xs[:, j] = scipy.linalg.solve_triangular(eye - T[j, j] * TH, rhs,
                                                 lower=True)
    return Z, Xs


def response_energy_loop(G, d) -> float:
    """Per-step reference for ``signals.response_energy``: the same
    stopping rule, one sample at a time, with the Gramian solved anew."""
    if G.n_x == 0:
        return float(np.sum((d.samples @ G.D.T) ** 2))
    x = np.zeros(G.n_x)
    total = 0.0
    for k in range(len(d)):
        y = G.C @ x + G.D @ d.samples[k]
        total += float(y @ y)
        x = G.A @ x + G.B @ d.samples[k]
    Z, Go_s = rs.statespace._schur_stein(G.A, G.C.T @ G.C)

    def tail(x):
        x_s = Z.conj().T @ x
        return float(np.real(x_s.conj() @ Go_s @ x_s))

    for _ in range(len(d)):
        if tail(x) <= rs.signals.TAIL_FRACTION * total:
            break
        y = G.C @ x
        total += float(y @ y)
        x = G.A @ x
    return total + tail(x)


def noncausal_cost_loop(K0, d) -> float:
    """Per-step reference for ``noncausal.eval_noncausal_cost``: the
    simulated cost one sample at a time, with every Stein equation
    solved anew."""
    stein = rs.statespace.stein
    P = K0.plant
    T = len(d)
    din = d.samples
    XBd = K0.X @ P.B_d
    v = np.zeros((T + 1, K0.A11.shape[0]))
    for k in range(T - 1, -1, -1):
        v[k] = K0.A11.T @ (v[k + 1] + XBd @ din[k])
    A11_invT = np.linalg.inv(K0.A11).T
    C_cl = P.C_e - P.D_eu @ K0.K_x
    M = stein(K0.A11, -P.B_u @ K0.K_v)
    C_w = C_cl @ M - P.D_eu @ K0.K_v @ A11_invT
    G_pre = stein(K0.A11, K0.A11 @ C_w.T @ C_w @ K0.A11.T)
    v0 = v[0]
    j_sim = float(v0 @ G_pre @ v0)
    x = M @ v0
    for k in range(T):
        u = -K0.K_x @ x - K0.K_v @ v[k + 1] - K0.K_d @ din[k]
        e = P.C_e @ x + P.D_eu @ u
        j_sim += float(e @ e)
        x = P.A @ x + P.B_d @ din[k] + P.B_u @ u
    return j_sim + float(x @ K0.X @ x)


def response_energy_per_trial(G, d) -> float:
    """``signals.response_energy`` as a loop over one disturbance: the
    arithmetic of ``response_energy``, step by step with ``A @ x``, so
    the kernel must give the same bits."""
    if G.n_x == 0:
        return float(np.sum((d.samples @ G.D.T) ** 2))
    A, L = G.A, len(d)
    drive = np.matmul(G.B, d.samples[:, :, None])[:, :, 0]
    xs = np.zeros((2 * L + 1, G.n_x))
    x = xs[0]
    for k in range(L):
        x = xs[k + 1] = A @ x + drive[k]
    for k in range(L, 2 * L):
        x = xs[k + 1] = A @ x
    y = xs[: 2 * L] @ G.C.T
    y[:L] += d.samples @ G.D.T
    steps = np.sum(y * y, axis=1)
    free = xs[L:]
    tails = np.sum((free @ G.observability_gramian) * free, axis=1)
    before = 0.0
    for k in range(L):
        before += steps[k]
    for i in range(L + 1):
        if tails[i] <= rs.signals.TAIL_FRACTION * before or i == L:
            return float(before + tails[i])
        before += steps[L + i]


def noncausal_cost_per_trial(K0, d) -> float:
    """``noncausal.eval_noncausal_cost`` as a loop over one disturbance:
    the arithmetic of ``eval_noncausal_cost``, step by step, so the
    kernel must give the same bits (cross-check left out)."""
    if d.norm_sq() == 0.0:
        return 0.0
    P = K0.plant
    n, n_u = K0.A11.shape[0], P.n_u
    din = d.samples
    drive = np.matmul(K0.X @ P.B_d, din[:, :, None])[:, :, 0]
    v = np.zeros((len(d) + 1, n))
    vk = v[-1]
    for k in range(len(d) - 1, -1, -1):
        vk = v[k] = K0.A11.T @ (vk + drive[k])
    v0, v_next = v[0], v[1:]
    prod = din @ np.hstack([K0.K_d.T, P.B_d.T, P.B_d.T @ K0.X @ P.B_d])
    w = prod[:, :n_u] + v_next @ K0.K_v.T
    drive = prod[:, n_u : n_u + n] - w @ P.B_u.T
    xs = np.empty((len(d) + 1, n))
    x = xs[0] = K0.M @ v0
    for k in range(len(d)):
        x = xs[k + 1] = K0.A11 @ x + drive[k]
    prod = xs[:-1] @ np.hstack([K0.K_x.T, P.C_e.T])
    e = prod[:, n_u:] - (prod[:, :n_u] + w) @ P.D_eu.T
    return float(np.sum((K0.G_pre @ v0) * v0)) + float(np.vdot(e, e)) \
        + float(np.sum((K0.X @ x) * x))


def dscale_logmag_loop(ejt, gain_log, zeros, poles):
    """Reference log magnitude of the D-scale cascade: one section at a
    time, each on a 1-D array."""
    lm = np.full(ejt.shape, gain_log)
    for a, b in zip(zeros, poles):
        lm += np.log10(np.abs(ejt - a)) - np.log10(np.abs(ejt - b))
    return lm


def dscale_residual_loop(params, ejt, target):
    k = (params.size - 1) // 2
    rho_max = 1.0 - 1e-5
    return dscale_logmag_loop(ejt, params[0],
                              rho_max * np.tanh(params[1 : 1 + k]),
                              rho_max * np.tanh(params[1 + k :])) - target


def fit_dscale_loop(pointwise, fit_tol: float = 0.1, max_order: int = 4,
                    sample_time=1.0, seed: int = 0):
    """Reference D-scale fit: the same starts, draws and stop rules as
    ``robust.fit_dscale``, with the residual above, no ridge rows, and the
    Jacobian left to ``least_squares`` (``jac="2-point"``).  Returns the best (order,
    fit error, system), also when the error is above ``fit_tol``."""
    import scipy.optimize

    pts = [(float(t), float(d)) for t, d in pointwise]
    thetas = np.array([t for t, _ in pts])
    target = np.log10(np.array([max(d, 1e-12) for _, d in pts]))
    rng = np.random.default_rng(seed)
    ejt = np.exp(1j * thetas)
    rho_max = 1.0 - 1e-5
    g0 = float(np.mean(target))
    order = 0
    best = np.array([g0])
    err_best = float(np.max(np.abs(dscale_logmag_loop(ejt, g0, (), ())
                                   - target)))
    th_pos = thetas[thetas > 0]
    th_lo = max(float(np.min(th_pos)) if th_pos.size else 1e-4, 1e-6)
    for k in range(1, max_order + 1):
        if err_best <= fit_tol:
            break
        starts = []
        for jitter in [np.zeros(2 * k)] + [rng.standard_normal(2 * k)
                                           for _ in range(2)]:
            corners = np.logspace(np.log10(th_lo), np.log10(np.pi * 0.5), k)
            radii = np.clip(np.exp(-corners), -rho_max, rho_max)
            x = np.arctanh(np.clip(radii / rho_max, -0.999999, 0.999999))
            starts.append(np.concatenate([[g0], x * (1.0 + 0.2 * jitter[:k]),
                                          x * (1.0 + 0.2 * jitter[k:])]))
        starts.append(np.concatenate([[g0], rng.uniform(-2, 2, 2 * k)]))
        for x0 in starts:
            try:
                sol = scipy.optimize.least_squares(
                    dscale_residual_loop, x0, jac="2-point", method="lm",
                    max_nfev=600, args=(ejt, target))
            except Exception:
                continue
            err = float(np.max(np.abs(dscale_residual_loop(sol.x, ejt,
                                                           target))))
            if err < err_best:
                order, best, err_best = k, sol.x, err
    sys = rs.static_gain([[10.0 ** best[0]]], sample_time)
    for a, b in zip(rho_max * np.tanh(best[1 : 1 + order]),
                    rho_max * np.tanh(best[1 + order :])):
        sys = rs.series(sys, rs.StateSpace([[b]], [[1.0]], [[b - a]], [[1.0]],
                                           sample_time))
    return order, err_best, sys


def hinf_norm_dense(sys, n: int = 4001, n_peaks: int = 32, zooms: int = 12) -> float:
    """Dense-grid reference for the H-infinity norm: a lower bound.

    sigma_max on n linearly and n logarithmically spaced angles plus the
    pole angles, then each of the n_peaks largest local maxima sharpened
    by repeated 41-point grids of a tenth of the previous width.  It has
    no level sets and no pencil, so it shares no code path with
    ``hinf_norm`` beyond the frequency response.
    """
    if sys.n_x == 0 or sys.n_u == 0 or sys.n_y == 0:
        return float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
    poles = np.linalg.eigvals(sys.A)
    thetas = np.unique(np.concatenate([
        np.linspace(0.0, np.pi, n), np.logspace(-7, np.log10(np.pi), n),
        np.abs(np.angle(poles))]))

    def sigma(th):
        return np.linalg.svd(sys.freqresp(th), compute_uv=False)[:, 0]

    vals = sigma(thetas)
    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    peaks = np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]))
    peaks = peaks[np.argsort(-vals[peaks])][:n_peaks]
    best = float(vals.max())
    for i in peaks:
        lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, thetas.size - 1)]
        for _ in range(zooms):
            grid = np.linspace(lo, hi, 41)
            v = sigma(grid)
            j = int(np.argmax(v))
            best = max(best, float(v[j]))
            lo, hi = grid[max(j - 2, 0)], grid[min(j + 2, 40)]
    return best


def regret_qtilde(K0, gamma_J: float) -> np.ndarray:
    """Q of the reduced V-DARE in the v-coordinates of build_phat.

    The closed form through X^{-1}: a reference for the w-block cost of
    ``spectral._w_basis`` on well-conditioned X.  The expression is
    subtractive, so roundoff can leave eigenvalues a few ulps below zero;
    those are clipped after a sign sanity check.
    """
    P = K0.plant
    A11 = K0.A11
    A11_inv = np.linalg.inv(A11)
    X_inv = np.linalg.inv(K0.X)
    mid = X_inv - A11 @ X_inv @ A11.T - P.B_u @ np.linalg.solve(K0.H, P.B_u.T)
    Qt = gamma_J**2 * A11_inv @ mid @ A11_inv.T
    Qt = 0.5 * (Qt + Qt.T)
    if Qt.size == 0:
        return Qt
    evals, evecs = np.linalg.eigh(Qt)
    scale = 1.0 + float(np.max(np.abs(evals)))
    assert evals[0] >= -1e-8 * scale, f"indefinite reduced cost {evals[0]:.3g}"
    return (evecs * np.clip(evals, 0.0, None)) @ evecs.T


def _sym(M):
    return 0.5 * (M + M.T)


def w_realization_reference(phat):
    """The well-scaled benchmark realization as ``spectral`` formed it at
    every level, before its K0-only half was kept per controller.

    Returns (A, B, C, D, Q_w, T_w): the 2 n_x-state realization, the
    w-block state cost and the map T_w = L U_w to v-coordinates.
    """
    K0 = phat.K0
    P = K0.plant
    n = P.n_x
    gamma_J = phat.gamma_J
    try:
        L = np.linalg.cholesky(K0.X)
    except np.linalg.LinAlgError as exc:
        raise rs.errors.SingularX("X is not positive definite") from exc

    def right_LiT(M):  # M L^{-T}
        return scipy.linalg.solve_triangular(L, M.T, lower=True).T

    A11 = K0.A11
    C11 = P.C_e - P.D_eu @ K0.K_x
    A11iT_L = np.linalg.solve(A11.T, L)
    A_w = scipy.linalg.solve_triangular(L, A11iT_L, lower=True)
    A12 = -P.B_u @ K0.K_v @ A11iT_L
    C2 = -P.D_eu @ K0.K_v @ A11iT_L
    N = L.T @ A12 + A_w - L.T @ right_LiT(A11)
    E = C2 - right_LiT(C11)
    S1, U1 = scipy.linalg.schur(A11, output="real")
    S2, U2 = scipy.linalg.schur(A_w, output="real")
    A = np.block([[S1, U1.T @ A12 @ U2], [np.zeros((n, n)), S2]])
    B = np.vstack([U1.T @ P.B_d, -U2.T @ L.T @ P.B_d])
    C = np.vstack([
        gamma_J * np.hstack([C11 @ U1, C2 @ U2]),
        np.zeros((P.n_d, 2 * n)),
    ])
    NE = np.vstack([N, E]) @ U2
    Q_w = gamma_J**2 * _sym(NE.T @ NE)
    return A, B, C, phat.D_hat, Q_w, L @ U2


def phat_statespace(phat) -> rs.StateSpace:
    """The matrices of a ``NoncausalClosedLoop`` as a StateSpace; its
    frequency response is the closed loop's (the realization is not
    causal, so nothing but the response is meaningful)."""
    return rs.StateSpace(phat.A_hat, phat.B_hat, phat.C_hat, phat.D_hat)


def identity_error_loop(F, system_resp, thetas) -> float:
    """Per-angle reference for the factor's frequency-identity error."""
    Fresp = F.freqresp(thetas)
    worst = 0.0
    for k in range(len(thetas)):
        lhs = Fresp[k].conj().T @ Fresp[k]
        rhs = system_resp[k].conj().T @ system_resp[k]
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def spectral_factorize_general(system, *, check: bool = True):
    """Spectral factor of P~P for a square-cost system (state dim kept):
    the two-DARE construction on the whole system, the cross-check of the
    reduced factor of ``spectral.spectral_factor_regret``.

    Accepts a StateSpace or a NoncausalClosedLoop; the latter is factored
    in the well-scaled realization of ``spectral._WBasis`` (2 n_x states,
    mixed causal and anti-causal dynamics).  F and F_inv are returned
    in orthogonal real-Schur coordinates.
    """
    sp = rs.spectral
    if isinstance(system, rs.NoncausalClosedLoop):
        basis = sp._w_basis(system)
        C = np.vstack([system.gamma_J * basis.C_e,
                       np.zeros((system.K0.plant.n_d, basis.A.shape[0]))])
        mats = (basis.A, basis.B, C, system.D_hat)
        ts = system.K0.plant.sample_time
        gamma_d, gamma_J = system.gamma_d, system.gamma_J
        system_resp = sp._closed_loop_response(system)
    else:
        mats = (system.A, system.B, system.C, system.D)
        ts = system.sample_time
        gamma_d = gamma_J = float("nan")
        system_resp = system.freqresp(sp.CHECK_THETAS)
    prob = rs.DareProblem.from_output_data(*mats)
    if check and prob.n:
        _check_factor_assumptions(prob)
    F = sp._factor_from_dares(prob, ts)
    F_inv = sp.schur_realization(rs.invert(F))
    diag = {"freq_identity_error": sp._freq_identity_error(F, system_resp)}
    return rs.SpectralFactor(F, F_inv, gamma_d, gamma_J, diag)


def _check_factor_assumptions(prob) -> None:
    report = rs.check_dare_assumptions(prob)
    A = prob.A
    eigs = np.linalg.eigvals(A)
    on_circle = float(np.min(np.abs(np.abs(eigs) - 1.0)))
    nonsing = rs.riccati.min_sv(A) / max(1.0, float(np.max(np.abs(A))))
    failures = [name for name, ok in (("no_unit_circle_eigs", on_circle > 1e-9),
                                      ("A_nonsingular", nonsing > 1e-10))
                if not ok]
    if not report.passed or failures:
        raise rs.errors.AssumptionViolated(
            "spectral factorization assumptions failed: "
            + report.failure_summary()
            + ("; " + ", ".join(failures) if failures else ""),
            report,
        )


@dataclass(frozen=True)
class FactorVerification:
    passed: bool
    max_rel_deviation: float
    trials: int


def verify_factor(factor: rs.SpectralFactor, phat: rs.NoncausalClosedLoop,
                  trials: int = 20, seed: int = 0,
                  rel_tol: float = 1e-7) -> FactorVerification:
    """Sampled check of ||F d||^2 = gamma_d^2 ||d||^2 + gamma_J^2 J(K0, d)
    on ``trials`` random disturbances of 5 to 39 steps."""
    rng = np.random.default_rng(seed)
    ds = [rs.Signal(0, rng.standard_normal((int(rng.integers(5, 40)),
                                            phat.K0.plant.n_d)))
          for _ in range(trials)]
    worst = 0.0
    for d, lhs, cost in zip(ds, response_energy(factor.F, ds).tolist(),
                            rs.eval_noncausal_cost(phat.K0, ds).tolist()):
        rhs = phat.gamma_d**2 * d.norm_sq() + phat.gamma_J**2 * cost
        dev = abs(lhs - rhs) / (1.0 + abs(rhs))
        worst = max(worst, dev)
    return FactorVerification(worst <= rel_tol, worst, trials)


def regret_factor_reference(phat):
    """``spectral_factor_regret`` computing everything at every level:
    (F, F_inv, diagnostics, primal) from :func:`w_realization_reference`,
    the PBH test, the closed loop's ``freqresp`` and the per-angle loop.

    ``diagnostics`` has the keys of the package's.  ``primal`` holds the
    w-block DARE solution in the v-coordinates of ``build_phat`` as
    ``V``, the primal solution gamma_J^2 [[X, I], [I, X^{-1}]] +
    diag(0, V) of the 2 n_x-state benchmark DARE as ``Xhat``, and that
    DARE's residual at ``Xhat`` as ``xhat_dare_residual``."""
    K0 = phat.K0
    P = K0.plant
    n = P.n_x
    A, B, _, _, Q_w, T_w = w_realization_reference(phat)
    A_w, B_w = A[n:, n:], B[n:, :]
    if not rs.riccati.pbh_stabilizable(A_w, B_w) > 1e-10:
        raise rs.errors.StabilizabilityFailure("(A11^-T, X B_d) not stabilizable")
    prob_w = rs.DareProblem(A_w, B_w, Q_w, phat.gamma_d**2 * np.eye(P.n_d),
                            np.zeros((n, P.n_d)))
    F = rs.spectral._factor_from_dares(prob_w, P.sample_time)
    F_inv = rs.statespace.schur_realization(rs.invert(F))
    thetas = np.linspace(0.0, np.pi, 64)
    resp = phat_statespace(phat).freqresp(thetas)
    diagnostics = {
        "freq_identity_error": identity_error_loop(F, resp, thetas),
        "cond_X": float(np.linalg.cond(K0.X)) if n else 1.0,
    }
    Ti = np.linalg.solve(T_w.T, np.eye(n))
    V = _sym(Ti @ rs.solve_dare(prob_w).X @ Ti.T)
    X_inv = _sym(Ti @ np.eye(n) @ Ti.T)
    Xhat = phat.gamma_J**2 * np.block([[K0.X, np.eye(n)], [np.eye(n), X_inv]])
    Xhat[n:, n:] += V
    Xhat = _sym(Xhat)
    prob_full = rs.DareProblem.from_output_data(phat.A_hat, phat.B_hat,
                                                phat.C_hat, phat.D_hat)
    primal = dict(V=V, Xhat=Xhat,
                  xhat_dare_residual=rs.dare_residual(prob_full, Xhat))
    return F, F_inv, diagnostics, primal


def inner(a, b) -> float:
    """<a, b> of two signals over the overlap of their windows."""
    if a.dim != b.dim:
        raise rs.errors.DimensionError("inner: dimension mismatch")
    lo = max(a.t0, b.t0)
    hi = min(a.t1, b.t1)
    if hi < lo:
        return 0.0
    return float(np.sum(a.on_window(lo, hi) * b.on_window(lo, hi)))


def n_e_hat(phat) -> int:
    """Outputs of the benchmark closed loop d -> (gamma_J e, gamma_d d)."""
    return phat.C_hat.shape[0]


def noncausal_response(K0: rs.NoncausalController, d: rs.Signal,
                       tol: float = TRUNC_TOL):
    """Closed-loop signals (x, u, e) of the benchmark on a padded window.

    The window covers the support of d and extends it on each side by
    the state-based rule of ``signals.simulate``.  Before the support v
    runs backward, v[t] = A11' v[t+1], and the window starts at the
    first v with ||v|| <= tol sqrt(1 + sum of ||v||^2 after it), where
    the state x, zero there, stands for the negligible M v.  After the
    support v = 0 and x runs forward, x[t+1] = A11 x[t], and the window
    ends just before the first x with ||x|| <= tol sqrt(1 + ||e||^2 so
    far).  Either side takes at most seven ``decay_extension`` steps.

    Returns (t0, x, u, e, v) arrays; x/u/e have one row per step of the
    padded window, v has one extra row (it is indexed by t+1 inside).
    """
    P = K0.plant
    n = K0.A11.shape[0]
    cap = 7 * decay_extension(decay_rate(K0), tol, n)
    # v[d.t0 .. d.t1 + 1] on the support, one step at a time from v = 0
    # after it: v[t] = A11' (v[t+1] + X B_d d[t])
    XB_d = K0.X @ P.B_d
    v_sup = np.zeros((len(d) + 1, n))
    for k in range(len(d) - 1, -1, -1):
        v_sup[k] = K0.A11.T @ (v_sup[k + 1] + XB_d @ d.samples[k])
    pre, _, v_start = free_response(K0.A11.T, K0.A11.T @ v_sup[0],
                                    lambda vs: vs, float(np.vdot(v_sup, v_sup)),
                                    cap, tol)
    v = np.concatenate([v_start[None], pre[::-1], v_sup])
    t0 = d.t0 - 1 - pre.shape[0]
    T = v.shape[0] - 1
    din = d.on_window(t0, d.t1)
    x = np.zeros((T + 1, n))
    u = np.zeros((T, K0.K_x.shape[0]))
    e = np.zeros((T, P.n_e))
    A, B_d, B_u = P.A, P.B_d, P.B_u
    C_e, D_eu = P.C_e, P.D_eu
    for k in range(T):
        u[k] = -K0.K_x @ x[k] - K0.K_v @ v[k + 1] - K0.K_d @ din[k]
        e[k] = C_e @ x[k] + D_eu @ u[k]
        x[k + 1] = A @ x[k] + B_d @ din[k] + B_u @ u[k]
    # past the support v = 0 and u = -K_x x, so e = (C_e - D_eu K_x) x
    C_cl = C_e - D_eu @ K0.K_x
    post, e_post, x_end = free_response(K0.A11, x[T],
                                        lambda states: states @ C_cl.T,
                                        float(np.vdot(e, e)), cap, tol)
    return (t0, np.concatenate([x[:T], post, x_end[None]]),
            np.concatenate([u, -(post @ K0.K_x.T)]), np.concatenate([e, e_post]),
            np.concatenate([v, np.zeros((post.shape[0], n))]))


def simulate_ehat(phat, d):
    """e_hat = (gamma_J e, gamma_d d) of the benchmark closed loop, by the
    backward v-pass and forward x-pass of :func:`noncausal_response`."""
    t0, _, _, e, _ = noncausal_response(phat.K0, d)
    din = d.on_window(t0, t0 + e.shape[0] - 1)
    return rs.Signal(t0, np.hstack([phat.gamma_J * e, phat.gamma_d * din]))


def at_z(sys, z) -> np.ndarray:
    """Transfer function value at a single complex point, taken at
    z (1 + 1e-9) when z I - A is singular."""
    if sys.n_x == 0:
        return sys.D.astype(complex)
    try:
        X = np.linalg.solve(z * np.eye(sys.n_x) - sys.A, sys.B)
    except np.linalg.LinAlgError:
        X = np.linalg.solve(z * (1 + 1e-9) * np.eye(sys.n_x) - sys.A, sys.B)
    return sys.C @ X + sys.D


def dcgain(sys) -> np.ndarray:
    """G(1), the DC gain of a discrete-time system."""
    return np.real(at_z(sys, 1.0))


def gamma_d_grid(front) -> np.ndarray:
    """The gamma_d of each point of a Pareto front."""
    return np.array([p.gamma_d for p in front.points])


def bisect_loop(feasible_at, tol_abs: float, tol_rel: float,
                stop_below: float | None = None, max_doublings: int = 60):
    """Reference doubling-and-bisection loop for ``hinf.bisect_level``.

    The loop as ``hinf_optimize``, ``optimize_special`` and each Pareto
    point ran it in their own copies: double from 1 until feasible, then
    bisect, ending early at a feasible level at or under ``stop_below``.
    Returns (lo, hi, best).
    """
    lo, hi = 0.0, None
    best = None
    g = 1.0
    for _ in range(max_doublings):
        res = feasible_at(g)
        if res.feasible:
            hi, best = g, res
            break
        lo = g
        g *= 2.0
    if hi is None:
        raise rs.errors.NoFeasibleUpperBound(
            f"no feasible level found up to {g / 2:.3g}")
    while hi - lo > tol_abs + tol_rel * hi:
        if stop_below is not None and hi <= stop_below:
            break
        mid = 0.5 * (lo + hi)
        res = feasible_at(mid)
        if res.feasible:
            hi, best = mid, res
        else:
            lo = mid
    return lo, hi, best


def crossover_bisection_reference(L, lo: float, hi: float) -> float:
    """The gain crossover of a SISO loop in [lo, hi] by scalar bisection,
    one angle per evaluation, as ``loop_margins`` refined it before its
    batched sub-grids: bisect on the side of |L| - 1 at ``lo`` until the
    bracket is narrower than ``1e-14 + 1e-10 hi``, and return its
    midpoint."""
    def gap(theta):
        return abs(at_z(L, np.exp(1j * theta))[0, 0]) - 1.0

    side = gap(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid) * side > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 + 1e-10 * hi:
            break
    return 0.5 * (lo + hi)


def care_sign_reference(H: np.ndarray):
    """Reference for ``hinf.care_schur``: the stabilizing Riccati solution
    from the matrix-sign Newton iteration with determinant scaling, the
    solver the central controller used before the ordered Schur form.

    Returns X, or None on the same gates (near-axis eigenvalues, a
    subspace that is not a graph, residual, L not Hurwitz).
    """
    m = H.shape[0]
    n = m // 2
    Hb, T_bal = scipy.linalg.matrix_balance(H)
    eigs = np.linalg.eigvals(Hb)
    if np.min(np.abs(eigs.real) / (1.0 + np.abs(eigs))) <= 1e-9:
        return None
    Z = Hb.copy()
    best_err = np.inf
    stall = 0
    for _ in range(100):
        try:
            Zi = np.linalg.inv(Z)
        except np.linalg.LinAlgError:
            return None
        detz = abs(np.linalg.det(Z))
        c = detz ** (-1.0 / m) if detz > 0 and np.isfinite(detz) else 1.0
        Z_next = 0.5 * (c * Z + Zi / c)
        err = np.max(np.abs(Z_next - Z)) / max(1.0, np.max(np.abs(Z)))
        Z = Z_next
        if err < 1e-13:
            break
        # near-axis spectra flatten out at a roundoff floor; accept it
        if err < 0.5 * best_err:
            best_err, stall = err, 0
        else:
            stall += 1
            if stall >= 5 and err < 1e-6:
                break
    if np.max(np.abs(Z @ Z - np.eye(m))) > 1e-2:
        return None
    Z = T_bal @ Z @ np.linalg.inv(T_bal)
    Qm, _, _ = scipy.linalg.qr(0.5 * (np.eye(m) - Z), pivoting=True)
    V1, V2 = Qm[:n, :n], Qm[n:, :n]
    sv = np.linalg.svd(V1, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        return None
    X = np.linalg.solve(V1.T, V2.T).T
    X = 0.5 * (X + X.T)
    H11, H12 = H[:n, :n], H[:n, n:]
    H21 = H[n:, :n]
    res_scale = max(1.0, float(np.max(np.abs(H21))),
                    float(np.max(np.abs(X)) * (1.0 + np.max(np.abs(H11)))))
    for _ in range(4):
        L = H11 + H12 @ X
        res = X @ H11 + H11.T @ X + X @ H12 @ X - H21
        if np.max(np.abs(res)) < 1e-12 * res_scale:
            break
        try:
            delta = scipy.linalg.solve_sylvester(L.T, L, -res)
        except (ValueError, np.linalg.LinAlgError):
            break
        X = 0.5 * ((X + delta) + (X + delta).T)
    res = X @ H11 + H11.T @ X + X @ H12 @ X - H21
    if np.max(np.abs(res)) > 1e-7 * res_scale:
        return None
    L = H11 + H12 @ X
    if np.max(np.linalg.eigvals(L).real) >= 0.0:
        return None
    return X


def qz_dare(p) -> np.ndarray:
    """Reference stabilizing DARE solution from scipy's QZ solver (the
    generalized Schur form of the symplectic pencil)."""
    return scipy.linalg.solve_discrete_are(p.A, p.B, p.Q, p.R, s=p.S)


def rank_margin_reference(p) -> float:
    """The ``unit_circle_rank`` margin of ``check_dare_assumptions``, one
    ``np.block`` pencil [A - e^{j theta} I, B; C_e, D_eu] and one SVD
    per angle."""
    C_e, D_eu = p.output_pair()
    scale = max(1.0, float(np.max(np.abs(p.A), initial=0.0)),
                float(np.max(np.abs(C_e), initial=0.0)))
    worst = np.inf
    eye = np.eye(p.n)
    for th in np.linspace(0.0, np.pi, rs.riccati._RANK_GRID):
        pencil = np.block([
            [p.A - np.exp(1j * th) * eye, p.B],
            [C_e.astype(complex), D_eu.astype(complex)],
        ])
        worst = min(worst, rs.riccati.min_sv(pencil) / scale)
    return worst


def verify_regret_loop(K, P, level, n_trials: int = 200, seed: int = 0, *, K0):
    """Per-trial reference for ``regret.verify_regret``: the same draws,
    and one ``response_energy`` and one ``eval_noncausal_cost`` call per
    disturbance, in draw order."""
    cl = rs.lft_lower(P, K)
    if not cl.is_schur():
        return rs.regret.RegretVerification(False, np.inf, 0, "unstable")
    theta_peak = rs.hinf_norm(cl, return_bracket=True).theta
    rng = np.random.default_rng(seed)
    n_sin = rs.regret._N_SINUSOIDS
    trials = []
    for k in range(max(n_trials - n_sin, 0)):
        kind = "white" if k % 2 == 0 else "lowpass"
        trials.append((kind, rs.random_signal(rng, P.n_d, int(rng.integers(8, 60)),
                                              kind=kind)))
    for _ in range(min(n_sin, n_trials)):
        theta = theta_peak * (0.8 + 0.4 * rng.random())
        direction = rng.standard_normal(P.n_d)
        trials.append(("sinusoid",
                       rs.sinusoid_signal(P.n_d, theta, int(rng.integers(32, 128)),
                                          direction=direction)))
    worst, worst_kind = -np.inf, ""
    for kind, d in trials:
        if d.norm_sq() == 0.0:
            continue
        margin = rs.signals.response_energy(cl, d) - (
            level.gamma_d**2 * d.norm_sq()
            + level.gamma_J**2 * rs.eval_noncausal_cost(K0, d))
        if margin > worst:
            worst, worst_kind = margin, kind
    return rs.regret.RegretVerification(worst < 0.0, worst, len(trials), worst_kind)


def verify_robust_regret_loop(K, P, level, n_delta: int = 50, n_dist: int = 20,
                              seed: int = 0, *, K0):
    """Per-trial reference for ``robust.verify_robust_regret``: the
    disturbances of a sampled Delta are drawn only when its loop is
    stable, and each is evaluated on its own."""
    cl_open = rs.lft_lower(P.as_generalized(), K)
    rng = np.random.default_rng(seed)
    n_unstable, worst, trials = 0, -np.inf, 0
    for _ in range(n_delta):
        ds = rs.sample_uncertainty(P.n_v, P.n_w, seed=int(rng.integers(0, 2**31)),
                                   sample_time=P.sample_time)
        cl = rs.lft_upper(cl_open, ds.Delta, P.n_w, P.n_v)
        if not cl.is_schur():
            n_unstable += 1
            continue
        for _ in range(n_dist):
            d = rs.Signal(0, rng.standard_normal((int(rng.integers(8, 50)), P.n_d)))
            worst = max(worst, rs.signals.response_energy(cl, d) - (
                level.gamma_d**2 * d.norm_sq()
                + level.gamma_J**2 * rs.eval_noncausal_cost(K0, d)))
            trials += 1
    return rs.robust.RobustVerification(n_unstable == 0 and worst < 0.0,
                                        n_unstable, worst, trials)


def worst_case_const_delta(M0: np.ndarray, n_v: int, n_w: int) -> np.ndarray:
    """Real destabilizing uncertainty at a failed real-frequency point of
    ``matrix_rp_test``.

    Uses the top singular pair of the optimally scaled matrix; at the
    scalar-D optimum the pair is balanced, so the witness has norm at
    most one and drives the loop gain to the test value.
    """
    M0 = np.real_if_close(np.atleast_2d(M0))
    if np.iscomplexobj(M0):
        raise NotAFailurePoint("constant witness requires a real matrix "
                               "(theta must be 0 or pi)")
    _, (d_opt,), (val,) = rs.matrix_rp_test(M0[None], n_v, n_w)
    if val < 1.0 - 1e-6:
        raise NotAFailurePoint(f"scaled test passes here (value {val:.4f})")
    S = M0.copy()
    S[:n_v, n_w:] *= d_opt
    S[n_v:, :n_w] /= d_opt
    U, sv, Vt = np.linalg.svd(S)

    def witness_from(u, v, s):
        w_part, v_part = v[:n_w], u[:n_v]
        denom = s * float(v_part @ v_part)
        if denom <= 1e-12:
            return None
        Delta = np.outer(w_part, v_part) / denom
        sd = np.linalg.svd(Delta, compute_uv=False)[0] if Delta.size else 0.0
        if sd > 1.0 + 1e-9:
            return None
        try:
            gain = matrix_lft_upper(M0, Delta, n_w, n_v)
        except rs.errors.WellPosednessError:
            return Delta
        g = np.linalg.svd(gain, compute_uv=False)[0] if gain.size else 0.0
        return Delta if g >= min(val, 1.0) - 1e-6 else None

    # singular values tie at the balanced optimum up to the search
    # tolerance; try pure pairs, then two-pair combinations, until one
    # closes the loop
    top = [i for i in range(sv.size) if sv[i] >= sv[0] * (1.0 - 1e-5)]
    for i in top:
        out = witness_from(U[:, i], Vt[i, :], sv[i])
        if out is not None:
            return out
    for i in top:
        for j in top:
            if j <= i:
                continue
            for sign in (1.0, -1.0):
                u = (U[:, i] + sign * U[:, j]) / np.sqrt(2.0)
                v = (Vt[i, :] + sign * Vt[j, :]) / np.sqrt(2.0)
                out = witness_from(u, v, 0.5 * (sv[i] + sv[j]))
                if out is not None:
                    return out
    raise NotAFailurePoint("no rank-one witness found at this frequency")


# scaled_value_scan: the first grid of log10 D spans +-_RP_SCAN_SPAN
# decades; each next grid of _RP_SCAN_POINTS points spans one step of the
# last on each side of its best point, until the step is at most
# _RP_SCAN_STEP decades
_RP_SCAN_SPAN = 12.0
_RP_SCAN_POINTS = 41
_RP_SCAN_STEP = 1e-8


def scaled_value_scan(M0, n_v, n_w):
    """min over d > 0 of sigma_max(diag(d I_nv, I) M0 diag(I_nw / d, I))
    by a dense scan of t = log10 d on ever finer grids.  The value is
    convex in t, so the minimizer lies within a step of the best point
    of every grid."""
    def values(ts):
        d = 10.0 ** ts[:, None, None]
        S = np.broadcast_to(M0, (ts.size,) + M0.shape).copy()
        S[:, :n_v, :] *= d
        S[:, :, :n_w] /= d
        return np.linalg.svd(S, compute_uv=False)[:, 0]

    ts = np.linspace(-_RP_SCAN_SPAN, _RP_SCAN_SPAN, _RP_SCAN_POINTS)
    best = np.inf
    while True:
        vals = values(ts)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        step = ts[1] - ts[0]
        if step <= _RP_SCAN_STEP:
            return best
        ts = np.linspace(ts[i] - step, ts[i] + step, _RP_SCAN_POINTS)


def robust_perf_test_reference(M, thetas) -> np.ndarray:
    """Independent reference for the values of ``robust.robust_perf_test``
    at the given angles: M evaluated angle by angle (one ``freqresp``
    per angle) and each angle's scaled value by :func:`scaled_value_scan`."""
    if not M.M.is_schur():
        raise rs.errors.UnstableSystem("robust performance test requires stable M")
    return np.array([scaled_value_scan(M.M.freqresp(th)[0], M.n_v, M.n_w)
                     for th in thetas])


# -- references for the state-space kernels ------------------------------
# Earlier forms of kernels that now write into preallocated arrays; the
# kernel tests require the same bits from both.

def append_reference(g1, g2):
    """``statespace.append`` through ``scipy.linalg.block_diag``."""
    ts = rs.statespace.join_sample_time(g1, g2)
    return rs.StateSpace(scipy.linalg.block_diag(g1.A, g2.A),
                         scipy.linalg.block_diag(g1.B, g2.B),
                         scipy.linalg.block_diag(g1.C, g2.C),
                         scipy.linalg.block_diag(g1.D, g2.D), ts)


def series_reference(g1, g2):
    """``statespace.series`` through ``np.block``, ``vstack`` and ``hstack``."""
    ts = rs.statespace.join_sample_time(g1, g2)
    n1, n2 = g1.n_x, g2.n_x
    A = np.block([[g1.A, np.zeros((n1, n2))], [g2.B @ g1.C, g2.A]])
    B = np.vstack([g1.B, g2.B @ g1.D])
    C = np.hstack([g2.D @ g1.C, g2.C])
    return rs.StateSpace(A, B, C, g2.D @ g1.D, ts)


def lft_lower_reference(P, K):
    """``plants.lft_lower`` through ``np.block``, ``vstack`` and ``hstack``."""
    ts = rs.statespace.join_sample_time(P.ss, K)
    A, B_d, B_u = P.A, P.B_d, P.B_u
    C_e, C_y = P.C_e, P.C_y
    D_eu, D_yd = P.D_eu, P.D_yd
    Ak, Bk, Ck, Dk = K.A, K.B, K.C, K.D
    A_cl = np.block([[A + B_u @ Dk @ C_y, B_u @ Ck], [Bk @ C_y, Ak]])
    B_cl = np.vstack([B_d + B_u @ Dk @ D_yd, Bk @ D_yd])
    C_cl = np.hstack([C_e + D_eu @ Dk @ C_y, D_eu @ Ck])
    D_cl = P.D_ed + D_eu @ Dk @ D_yd
    return rs.StateSpace(A_cl, B_cl, C_cl, D_cl, ts)


def freqresp_reference(g, thetas):
    """``StateSpace.freqresp`` with each block's resolvent formed as
    ``z I`` for every angle, minus A."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    out = np.empty((thetas.size, g.n_y, g.n_u), dtype=complex)
    if g.n_x == 0:
        out[:] = g.D
        return out
    eye = np.eye(g.n_x)
    block = max(1, rs.statespace.FREQRESP_BLOCK // g.n_x**2)
    for lo in range(0, thetas.size, block):
        z = np.exp(1j * thetas[lo : lo + block])
        resolvent = z[:, None, None] * eye
        resolvent -= g.A
        try:
            X = np.linalg.solve(resolvent, g.B[None])
        except np.linalg.LinAlgError:
            for k, zk in enumerate(z, start=lo):
                out[k] = at_z(g, zk)
            continue
        out[lo : lo + z.size] = g.C @ X + g.D
    return out


def balance_states_reference(A, B, C):
    """``statespace.balance_states`` forming |A| and the sums of |B| and
    |C| anew on every sweep."""
    n = A.shape[0]
    for _ in range(rs.statespace._BALANCE_SWEEPS):
        off = np.abs(A)
        off[np.diag_indices(n)] = 0.0
        rows = off.sum(axis=1) + np.abs(B).sum(axis=1)
        cols = off.sum(axis=0) + np.abs(C).sum(axis=0)
        ok = (rows > 0) & (cols > 0)
        expo = np.zeros(n)
        expo[ok] = np.clip(np.round(0.5 * np.log2(rows[ok] / cols[ok])), -16, 16)
        if not expo.any():
            break
        f = 2.0 ** expo
        A = A / f[:, None] * f
        B = B / f[:, None]
        C = C * f
    return A, B, C
