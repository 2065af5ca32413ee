"""Computations made apart from regretsynth, used to check its outputs.

Everything here works on plain numpy arrays taken from the plants and
controllers: closed loops are formed by hand, norms are decided by a
Hamiltonian eigenvalue test, energies come from plain simulation and the
benchmark cost J(K0, d) from a finite least-squares problem.  No
function of the package is called, except that the competitive-ratio
reference reuses the package's H-infinity bisection on a plant weighted
here (the package tests hold that bisection to its own checks).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# Hamiltonian eigenvalues closer than this (relative) to the axis count as on it
HINF_REL_TOL = 1e-8
# free response simulated in chunks of this many steps until a chunk adds
# less than ENERGY_REL_TOL of the energy, for at most ENERGY_MAX_STEPS steps
ENERGY_CHUNK = 512
ENERGY_REL_TOL = 1e-15
ENERGY_MAX_STEPS = 10**7
# share of the benchmark's anticipation the least-squares window may lose
ANTICIPATION_TOL = 1e-10
# sampled Delta: a gain of modulus in DELTA_GAIN times at most
# DELTA_SECTIONS first-order all-pass sections
DELTA_GAIN = (0.2, 1.0)
DELTA_SECTIONS = 2


class System:
    """x[t+1] = A x[t] + B u[t], y[t] = C x[t] + D u[t] as plain arrays."""

    def __init__(self, A, B, C, D):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        n = self.A.shape[0] if self.A.size else 0
        self.A = self.A.reshape(n, n)
        self.D = np.atleast_2d(np.asarray(D, dtype=float))
        self.B = np.asarray(B, dtype=float).reshape(n, self.D.shape[1])
        self.C = np.asarray(C, dtype=float).reshape(self.D.shape[0], n)
        self._chunk = None

    @classmethod
    def of(cls, ss) -> "System":
        return cls(ss.A, ss.B, ss.C, ss.D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A)))) if self.n else 0.0

    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0


def close_lower(ss, n_y: int, n_u: int, K) -> System:
    """Close u = K y around the last n_u inputs / last n_y outputs of ss.

    Requires the y <- u feedthrough to be zero, as in every example plant.
    """
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    Kx = System.of(K)
    B1, B2 = B[:, :-n_u], B[:, -n_u:]
    C1, C2 = C[:-n_y], C[-n_y:]
    D11, D12 = D[:-n_y, :-n_u], D[:-n_y, -n_u:]
    D21, D22 = D[-n_y:, :-n_u], D[-n_y:, -n_u:]
    if np.any(D22):
        raise ValueError("close_lower needs a zero y <- u feedthrough")
    Ak, Bk, Ck, Dk = Kx.A, Kx.B, Kx.C, Kx.D
    A_cl = np.block([[A + B2 @ Dk @ C2, B2 @ Ck], [Bk @ C2, Ak]])
    B_cl = np.vstack([B1 + B2 @ Dk @ D21, Bk @ D21])
    C_cl = np.hstack([C1 + D12 @ Dk @ C2, D12 @ Ck])
    return System(A_cl, B_cl, C_cl, D11 + D12 @ Dk @ D21)


def close_upper(M: System, n_w: int, n_v: int, Delta: System) -> System:
    """Close w = Delta v around the first n_w inputs / first n_v outputs."""
    B_w, B_d = M.B[:, :n_w], M.B[:, n_w:]
    C_v, C_e = M.C[:n_v], M.C[n_v:]
    D_vw, D_vd = M.D[:n_v, :n_w], M.D[:n_v, n_w:]
    D_ew, D_ed = M.D[n_v:, :n_w], M.D[n_v:, n_w:]
    # v = L (C_v x + D_vw C_D xD + D_vd d) with L = (I - D_vw D_D)^{-1}
    L = np.linalg.inv(np.eye(n_v) - D_vw @ Delta.D)
    v_x, v_xd, v_d = L @ C_v, L @ D_vw @ Delta.C, L @ D_vd
    w_x, w_xd, w_d = Delta.D @ v_x, Delta.C + Delta.D @ v_xd, Delta.D @ v_d
    A = np.block([[M.A + B_w @ w_x, B_w @ w_xd],
                  [Delta.B @ v_x, Delta.A + Delta.B @ v_xd]])
    B = np.vstack([B_d + B_w @ w_d, Delta.B @ v_d])
    C = np.hstack([C_e + D_ew @ w_x, D_ew @ w_xd])
    return System(A, B, C, D_ed + D_ew @ w_d)


def hinf_below(sys: System, gamma: float) -> bool:
    """||G||_inf < gamma for a Schur-stable G, by a Hamiltonian test.

    The bilinear map z = (1 + s) / (1 - s) carries the unit circle onto
    the imaginary axis and keeps the norm.  For the continuous system
    the bounded-real Hamiltonian has an eigenvalue on the axis exactly
    when gamma is a singular value of G at some frequency, so with
    sigma_max(D) < gamma the norm is below gamma iff no eigenvalue lies
    on the axis.
    """
    if not sys.is_stable():
        return False
    n = sys.n
    sv = np.linalg.svd(sys.D, compute_uv=False)
    if n == 0:
        return bool(sv.size == 0 or sv[0] < gamma)
    Mi = np.linalg.inv(np.eye(n) + sys.A)
    A = Mi @ (sys.A - np.eye(n))
    B = np.sqrt(2.0) * Mi @ sys.B
    C = np.sqrt(2.0) * sys.C @ Mi
    D = sys.D - sys.C @ Mi @ sys.B
    if np.linalg.svd(D, compute_uv=False)[0] >= gamma:
        return False
    Ri = np.linalg.inv(gamma**2 * np.eye(D.shape[1]) - D.T @ D)
    Aa = A + B @ Ri @ D.T @ C
    H = np.block([[Aa, B @ Ri @ B.T],
                  [-C.T @ (np.eye(D.shape[0]) + D @ Ri @ D.T) @ C, -Aa.T]])
    eig = np.linalg.eigvals(H)
    return bool(np.min(np.abs(eig.real) / np.maximum(1.0, np.abs(eig))) > HINF_REL_TOL)


def energy(sys: System, d: np.ndarray) -> float:
    """||G d||^2 by plain simulation, run on until the response has died.

    After the input ends the free response is simulated ``ENERGY_CHUNK`` steps
    at a time through the stacked map [C; CA; ...; CA^(ENERGY_CHUNK-1)].
    """
    if not sys.is_stable():
        raise ValueError("energy of an unstable system")
    x = np.zeros(sys.n)
    total = 0.0
    for dk in d:
        y = sys.C @ x + sys.D @ dk
        total += float(y @ y)
        x = sys.A @ x + sys.B @ dk
    if sys.n == 0:
        return total
    if sys._chunk is None:
        rows, Ak = [], np.eye(sys.n)
        for _ in range(ENERGY_CHUNK):
            rows.append(sys.C @ Ak)
            Ak = sys.A @ Ak
        sys._chunk = (np.vstack(rows), Ak)
    O, A_chunk = sys._chunk
    for _ in range(ENERGY_MAX_STEPS // ENERGY_CHUNK):
        y = O @ x
        e = float(y @ y)
        total += e
        x = A_chunk @ x
        if e <= ENERGY_REL_TOL * total:
            return total
    raise ValueError("free response did not die out")


class BenchmarkCost:
    """J(K0, d) of a plant as the minimum of a finite least-squares problem.

    min over u of sum_t ||C_e x_t + D_eu u_t + D_ed d_t||^2 + x_T' X x_T
    subject to x_{t+1} = A x_t + B_d d_t + B_u u_t, x_0 = 0, on a window
    of ``pad`` + ``max_len`` steps with d placed ``pad`` steps in.  X is
    scipy's stabilizing DARE solution of the plant's LQR problem, the
    exact cost-to-go once d has ended.  Before d arrives the controls
    may act for ``pad`` steps, as the non-causal benchmark does; what
    they give up beyond that decays like rho^(2 pad), rho the spectral
    radius of A - B_u K with K the DARE gain, and the pad makes that
    factor ``ANTICIPATION_TOL``.  The KKT system is factored once.
    """

    def __init__(self, P, max_len: int):
        A, B_u, C_e, D_eu = P.A, P.B_u, P.C_e, P.D_eu
        X = scipy.linalg.solve_discrete_are(A, B_u, C_e.T @ C_e, D_eu.T @ D_eu,
                                            s=C_e.T @ D_eu)
        K = np.linalg.solve(D_eu.T @ D_eu + B_u.T @ X @ B_u,
                            B_u.T @ X @ A + D_eu.T @ C_e)
        rho = float(np.max(np.abs(np.linalg.eigvals(A - B_u @ K))))
        self.pad = int(np.ceil(np.log(ANTICIPATION_TOL) / (2.0 * np.log(rho))))
        self.B_d, self.D_ed, self.max_len = P.B_d, P.D_ed, max_len
        T = self.pad + max_len
        n, m = A.shape[0], B_u.shape[1]
        eye_T = scipy.sparse.identity(T, format="csr")
        sub = scipy.sparse.eye(T, k=-1, format="csr")
        # z = (u_0 .. u_{T-1}, x_1 .. x_T); window residual r = G z + g
        G = scipy.sparse.hstack([scipy.sparse.kron(eye_T, D_eu),
                                 scipy.sparse.kron(sub, C_e)])
        E = scipy.sparse.hstack([-scipy.sparse.kron(eye_T, B_u),
                                 scipy.sparse.identity(T * n)
                                 - scipy.sparse.kron(sub, A)])
        last = T * (m + n) - n  # offset of x_T in z
        idx = np.arange(last, last + n)
        terminal = scipy.sparse.coo_matrix(
            (X.ravel(), (np.repeat(idx, n), np.tile(idx, n))),
            shape=(T * (m + n),) * 2)
        kkt = scipy.sparse.bmat([[G.T @ G + terminal, E.T], [E, None]], format="csc")
        self._G, self._X, self._T, self._last = G.tocsr(), X, T, last
        self._lu = scipy.sparse.linalg.splu(kkt)

    def cost(self, d: np.ndarray) -> float:
        d = np.atleast_2d(np.asarray(d, dtype=float))
        if len(d) > self.max_len:
            raise ValueError("disturbance longer than the window")
        dd = np.zeros((self._T, self.B_d.shape[1]))
        dd[self.pad : self.pad + len(d)] = d
        g = (dd @ self.D_ed.T).ravel()
        rhs = np.concatenate([-(self._G.T @ g), (dd @ self.B_d.T).ravel()])
        z = self._lu.solve(rhs)[: self._G.shape[1]]
        r = self._G @ z + g
        x_T = z[self._last :]
        return float(r @ r + x_T @ self._X @ x_T)


def allpass_delta(rng) -> System:
    """Random stable SISO Delta with ||Delta||_inf equal to a drawn gain.

    A gain c times a cascade of first-order all-pass sections
    (1 - a z) / (z - a), |a| < 1, each of unit modulus on the circle.
    """
    c = rng.uniform(*DELTA_GAIN) * rng.choice([-1.0, 1.0])
    g = (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.array([[c]]))
    for _ in range(int(rng.integers(0, DELTA_SECTIONS + 1))):
        a = rng.uniform(-0.95, 0.95)
        g = _series(g, (np.array([[a]]), np.ones((1, 1)),
                        np.array([[1 - a * a]]), np.array([[-a]])))
    return System(*g)


def _outer_factor(A, B, C, D):
    """Minimum-phase Om with |Om|^2 = |G|^2 on the circle, G one-input.

    From scipy's DARE X of the LQR problem (A, B, C'C, D'D, C'D):
    Om = R^{1/2} (1 + K (zI - A)^{-1} B), R = D'D + B'XB,
    K = R^{-1} (B'XA + D'C).
    """
    X = scipy.linalg.solve_discrete_are(A, B, C.T @ C, D.T @ D, s=C.T @ D)
    R = D.T @ D + B.T @ X @ B
    K = np.linalg.solve(R, B.T @ X @ A + D.T @ C)
    r = float(np.sqrt(R[0, 0]))
    return A, B, r * K, np.array([[r]])


def _series(g1, g2):
    """g2 after g1 for (A, B, C, D) tuples."""
    A1, B1, C1, D1 = g1
    A2, B2, C2, D2 = g2
    n1, n2 = A1.shape[0], A2.shape[0]
    A = np.block([[A1, np.zeros((n1, n2))], [B2 @ C1, A2]])
    return A, np.vstack([B1, B2 @ D1]), np.hstack([D2 @ C1, C2]), D2 @ D1


def _inverse(g):
    A, B, C, D = g
    Di = np.linalg.inv(D)
    return A - B @ Di @ C, B @ Di, -Di @ C, Di


def competitive_ratio_reference(rs, P, eps: float, tol_abs: float,
                                tol_rel: float) -> float:
    """Optimal competitive ratio of a one-disturbance, one-control plant.

    A level gamma holds when ||T d||^2 <= gamma^2 (J(K0, d) + eps^2 ||d||^2).
    Pointwise in frequency the benchmark cost density of a = P_ed against
    b = P_eu is |a|^2 - |b'a|^2 / |b|^2 = sum_{i<j} |b_i a_j - b_j a_i|^2
    / |b|^2 (Lagrange's identity), so with N = [b_i a_j - b_j a_i ; eps b]
    the weight W = Om_N / Om_b has |W|^2 = density + eps^2, and the
    optimum is the H-infinity optimum of the plant with d = W^{-1} d_hat.
    Neither the benchmark controller nor the regret factor nor the
    package's Riccati solver is used.
    """
    if P.n_d != 1 or P.n_u != 1:
        raise ValueError("reference needs one disturbance and one control")
    A, B_d, B_u, C_e = P.A, P.B_d, P.B_u, P.C_e
    D_ed, D_eu = P.D_ed, P.D_eu
    n_e = C_e.shape[0]
    # b_k a_j for all k: P_eu driven by a_j
    prods = [_series((A, B_d, C_e[j : j + 1], D_ed[j : j + 1]), (A, B_u, C_e, D_eu))
             for j in range(n_e)]
    # stack every product and eps * b over a common input d
    parts = prods + [(A, B_u, eps * C_e, eps * D_eu)]
    As = scipy.linalg.block_diag(*[p[0] for p in parts])
    Bs = np.vstack([p[1] for p in parts])
    offs = np.cumsum([0] + [p[0].shape[0] for p in parts])

    def row(k, j):  # b_k a_j
        c = np.zeros((1, As.shape[0]))
        c[:, offs[j] : offs[j + 1]] = prods[j][2][k : k + 1]
        return c, prods[j][3][k : k + 1]

    rows = []
    for i in range(n_e):
        for j in range(i + 1, n_e):
            (c1, d1), (c2, d2) = row(i, j), row(j, i)
            rows.append((c1 - c2, d1 - d2))
    for i in range(n_e):
        c = np.zeros((1, As.shape[0]))
        c[:, offs[-2] : offs[-1]] = eps * C_e[i : i + 1]
        rows.append((c, eps * D_eu[i : i + 1]))
    N = (As, Bs, np.vstack([c for c, _ in rows]), np.vstack([d for _, d in rows]))
    w_inv = _series(_inverse(_outer_factor(*N)), _outer_factor(A, B_u, C_e, D_eu))
    Aw, Bw, Cw, Dw = w_inv
    # plant with d = W^{-1} d_hat: inputs (d_hat, u), outputs (e, y)
    n, nw = A.shape[0], Aw.shape[0]
    ss = P.ss
    n_y = ss.D.shape[0] - n_e
    C_y, D_yd = ss.C[n_e:], ss.D[n_e:, :1]
    Aww = np.block([[A, B_d @ Cw], [np.zeros((nw, n)), Aw]])
    Bww = np.block([[B_d @ Dw, B_u], [Bw, np.zeros((nw, 1))]])
    Cww = np.block([[C_e, D_ed @ Cw], [C_y, D_yd @ Cw]])
    Dww = np.block([[D_ed @ Dw, D_eu], [D_yd @ Dw, np.zeros((n_y, 1))]])
    Pw = rs.GeneralizedPlant(rs.StateSpace(Aww, Bww, Cww, Dww, ss.sample_time),
                             n_d=1, n_u=1, n_e=n_e, n_y=n_y)
    return rs.hinf_optimize(Pw, tol_abs, tol_rel)[0]
