"""The benchmark non-causal controller and its closed loop.

Given the plant DARE solution X with gain K_x, the optimal non-causal
controller runs a backward recursion driven by the disturbance::

    v[t] = (A - B_u K_x)' (v[t+1] + X B_d d[t]),    v[+inf] = 0
    u[t] = -K_x x[t] - K_v v[t+1] - K_d d[t]

with K_v = H^{-1} B_u' and K_d = H^{-1} B_u' X B_d = K_v X B_d.  Its
cost lower-bounds every stabilizing controller.  The closed loop from d
to the stacked error (gamma_J e, gamma_d d) has a mixed causal /
anti-causal realization with block upper-triangular state matrix; it is
simulated by a backward pass for v followed by a forward pass for x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RegretSynthError
from .plants import GeneralizedPlant
from .riccati import DareProblem, DareSolution, solve_dare
from .signals import Signal, TRUNC_TOL, decay_extension
from .statespace import StateSpace, stein


@dataclass(frozen=True)
class NoncausalController:
    """Benchmark controller gains and Riccati provenance.

    The matrices that depend on the controller alone (A11^{-T} and the
    Stein solutions behind the closed-form tails of
    :func:`eval_noncausal_cost`) are computed once per instance.
    """

    K_x: np.ndarray
    K_v: np.ndarray
    K_d: np.ndarray
    X: np.ndarray
    H: np.ndarray
    A11: np.ndarray  # A - B_u K_x, Schur and nonsingular
    plant: GeneralizedPlant
    dare: DareSolution

    def __post_init__(self):
        # read-only copies, so the cached properties cannot go stale
        for name in ("K_x", "K_v", "K_d", "X", "H", "A11"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def decay_rate(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A11))))

    @cached_property
    def A11_invT(self) -> np.ndarray:
        return np.linalg.inv(self.A11).T

    @cached_property
    def M(self) -> np.ndarray:
        """x[t] = M v[t] before the disturbance arrives: M = A11 M A11' - B_u K_v."""
        return stein(self.A11, -self.plant.B_u @ self.K_v)

    @cached_property
    def G_pre(self) -> np.ndarray:
        """Cost before the disturbance arrives: v[t0]' G_pre v[t0]."""
        P = self.plant
        C_w = (P.C_e - P.D_eu @ self.K_x) @ self.M - P.D_eu @ self.K_v @ self.A11_invT
        return stein(self.A11, self.A11 @ C_w.T @ C_w @ self.A11.T)

    @cached_property
    def G_cf(self) -> np.ndarray:
        """Pre-tail of the completion-of-squares sum, where only
        -(K_v v)' H (K_v v) survives: -v[t0]' G_cf v[t0]."""
        return stein(self.A11, self.K_v.T @ self.H @ self.K_v)


def build_noncausal(P: GeneralizedPlant) -> NoncausalController:
    """Construct the optimal non-causal controller for a plant."""
    prob = DareProblem.from_output_data(P.A, P.B_u, P.C_e, P.D_eu)
    sol = solve_dare(prob, check_assumptions=True)
    X, H = sol.X, sol.H
    K_x = sol.K_x
    K_v = np.linalg.solve(H, P.B_u.T)
    K_d = K_v @ X @ P.B_d
    return NoncausalController(K_x, K_v, K_d, X, H, sol.closed_loop_A, P, sol)


def _padded_window(K0: NoncausalController, d: Signal, tol: float = TRUNC_TOL):
    n_pad = decay_extension(K0.decay_rate(), tol, K0.A11.shape[0])
    return d.t0 - n_pad, d.t1 + n_pad


def _backward_v(K0: NoncausalController, d: Signal, t0: int, t1: int) -> np.ndarray:
    """v[t] for t in [t0, t1 + 1]; v[t1 + 1] = 0.  Returns (T+1, n_x)."""
    T = t1 - t0 + 1
    # stacked matrix-vector products: see signals.response_energy
    drive = np.matmul(K0.X @ K0.plant.B_d, d.on_window(t0, t1)[:, :, None])[:, :, 0]
    v = np.zeros((T + 1, K0.A11.shape[0]))
    A11T = K0.A11.T
    vk = v[T]
    for k in range(T - 1, -1, -1):
        vk = v[k] = A11T @ (vk + drive[k])
    return v


def noncausal_response(K0: NoncausalController, d: Signal,
                       tol: float = TRUNC_TOL):
    """Closed-loop signals (x, u, e) of the benchmark on a padded window.

    Returns (t0, x, u, e, v) arrays; x/u/e have one row per step of the
    padded window, v has one extra row (it is indexed by t+1 inside).
    """
    P = K0.plant
    t0, t1 = _padded_window(K0, d, tol)
    v = _backward_v(K0, d, t0, t1)
    T = t1 - t0 + 1
    din = d.on_window(t0, t1)
    n = P.n_x
    x = np.zeros((T + 1, n))
    u = np.zeros((T, K0.K_x.shape[0]))
    e = np.zeros((T, P.n_e))
    A, B_d, B_u = P.A, P.B_d, P.B_u
    C_e, D_eu = P.C_e, P.D_eu
    for k in range(T):
        u[k] = -K0.K_x @ x[k] - K0.K_v @ v[k + 1] - K0.K_d @ din[k]
        e[k] = C_e @ x[k] + D_eu @ u[k]
        x[k + 1] = A @ x[k] + B_d @ din[k] + B_u @ u[k]
    return t0, x, u, e, v


def eval_noncausal_cost(K0: NoncausalController, d: Signal,
                        cross_check_rel: float = 1e-8) -> float:
    """J(K0, d): benchmark cost with exact anticipation and settling tails.

    Both tails are summed in closed form instead of by window padding:
    before the disturbance arrives the state rides the decaying
    backward variable through a Stein-equation particular solution, and
    after it ends the cost-to-go is the Riccati value x' X x.  The
    simulated energy must agree with the completion-of-squares sum.
    """
    if d.norm_sq() == 0.0:
        return 0.0
    P = K0.plant
    din = d.samples
    v = _backward_v(K0, d, d.t0, d.t1)
    v0, v_next = v[0], v[1:]
    # u[t] = -K_x x[t] - w[t]: the part of the input fixed by d and v
    w = din @ K0.K_d.T + v_next @ K0.K_v.T
    Bd_d = din @ P.B_d.T
    drive = Bd_d - w @ P.B_u.T
    # pre-window: x rides the backward variable, x[t] = M v[t]
    j_pre = float(v0 @ K0.G_pre @ v0)
    # main window with the exact incoming state
    A11 = K0.A11
    xs = np.empty((len(d) + 1, A11.shape[0]))
    x = xs[0] = K0.M @ v0
    for k in range(len(d)):
        x = xs[k + 1] = A11 @ x + drive[k]
    u = -(xs[:-1] @ K0.K_x.T) - w
    e = xs[:-1] @ P.C_e.T + u @ P.D_eu.T
    j_mid = float(np.vdot(e, e))
    # settle tail: v = 0 past the support, optimal cost-to-go is x' X x
    j_post = float(x @ K0.X @ x)
    j_sim = j_pre + j_mid + j_post
    # completion-of-squares sum (window terms plus its own pre-tail)
    BdX = P.B_d.T @ K0.X @ P.B_d
    j_cf = (float(np.vdot(din @ BdX, din)) + 2.0 * float(np.vdot(v_next, Bd_d))
            - float(np.vdot(w @ K0.H, w)) - float(v0 @ K0.G_cf @ v0))
    scale = 1.0 + abs(j_sim)
    if abs(j_sim - j_cf) > cross_check_rel * scale:
        raise RegretSynthError(
            f"noncausal cost cross-check failed: simulated {j_sim:.12g} vs "
            f"closed form {j_cf:.12g}"
        )
    return j_sim


@dataclass(frozen=True)
class NoncausalClosedLoop:
    """Mixed causal/anti-causal closed loop from d to (gamma_J e, gamma_d d).

    State matrix is block upper-triangular: the x-block is Schur, the
    v-block anti-Schur.  ||e_hat||^2 = gamma_d^2 ||d||^2 +
    gamma_J^2 J(K0, d) for every finite-energy d.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    D_hat: np.ndarray
    gamma_d: float
    gamma_J: float
    K0: NoncausalController

    @property
    def n_x(self) -> int:
        return self.K0.A11.shape[0]

    @property
    def n_d(self) -> int:
        return self.K0.plant.n_d

    def to_statespace(self) -> StateSpace:
        """Raw matrices as a StateSpace; only valid for frequency-domain
        evaluation (the realization is not causal)."""
        return StateSpace(self.A_hat, self.B_hat, self.C_hat, self.D_hat,
                          self.K0.plant.sample_time)

    def freqresp(self, thetas) -> np.ndarray:
        return self.to_statespace().freqresp(thetas)

def build_phat(K0: NoncausalController, gammas) -> NoncausalClosedLoop:
    """Assemble the Eq.-of-motion matrices of the benchmark closed loop."""
    gamma_d, gamma_J = float(gammas[0]), float(gammas[1])
    if gamma_d < 0 or gamma_J < 0 or (gamma_d == 0 and gamma_J == 0):
        raise ValueError("gammas must be nonnegative and not both zero")
    P = K0.plant
    n = P.n_x
    A11 = K0.A11
    A11_invT = K0.A11_invT
    B_u, B_d = P.B_u, P.B_d
    A_hat = np.block([
        [A11, -B_u @ K0.K_v @ A11_invT],
        [np.zeros((n, n)), A11_invT],
    ])
    B_hat = np.vstack([B_d, -K0.X @ B_d])
    n_d = P.n_d
    C_top = np.hstack([P.C_e - P.D_eu @ K0.K_x, -P.D_eu @ K0.K_v @ A11_invT])
    C_hat = np.vstack([
        gamma_J * C_top,
        np.zeros((n_d, 2 * n)),
    ])
    D_hat = np.vstack([
        np.zeros((P.n_e, n_d)),
        gamma_d * np.eye(n_d),
    ])
    return NoncausalClosedLoop(A_hat, B_hat, C_hat, D_hat, gamma_d, gamma_J, K0)
