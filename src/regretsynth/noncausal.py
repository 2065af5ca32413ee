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
from .riccati import DareProblem, solve_dare
from .signals import Signal, lock_step_run, trial_blocks
from .statespace import stein

# largest gap between the simulated cost and the completion-of-squares
# sum that eval_noncausal_cost accepts, relative to the sum of the
# magnitudes of that sum's four terms
_CROSS_CHECK_REL = 1e-10


@dataclass(frozen=True)
class NoncausalController:
    """Benchmark controller gains and the plant Riccati solution.

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

    def __post_init__(self):
        # read-only copies, so the cached properties cannot go stale
        for name in ("K_x", "K_v", "K_d", "X", "H", "A11"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
    def factor_setup(self) -> dict:
        """Store for the part of the regret spectral factor that depends on
        the controller alone (see ``spectral.spectral_factor_regret``), so
        a search over regret levels computes it once.  The gains are
        read-only, so the entries cannot go stale."""
        return {}

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
    return NoncausalController(K_x, K_v, K_d, X, H, sol.closed_loop_A, P)


def _backward_v(K0: NoncausalController, din: np.ndarray) -> np.ndarray:
    """v on windows of padded inputs din, time-major (T, N, n_d, 1),
    with v = 0 after the last sample: returns (T + 1, N, n_x, 1), v[T] = 0.

    The recursions run in lock step, each step one stacked product
    that rounds like the per-window ``A11' @ v`` (see
    ``signals.lock_step_run``).  A window's zero padding after its
    support leaves its v exactly zero there, so each window's recursion
    starts at its own end.
    """
    T, N = din.shape[:2]
    drive = np.matmul(K0.X @ K0.plant.B_d, din)
    v = np.zeros((T + 1, N, K0.A11.shape[0], 1))
    A11T, acc = K0.A11.T, np.empty(v.shape[1:])
    for k in range(T - 1, -1, -1):
        np.add(v[k + 1], drive[k], out=acc)
        np.matmul(A11T, acc, out=v[k])
    return v


def eval_noncausal_cost(K0: NoncausalController, d):
    """J(K0, d): benchmark cost with exact anticipation and settling tails.

    ``d`` is a :class:`~regretsynth.signals.Signal`, which gives a
    float, or a sequence of signals, which gives an array with one cost
    per signal.

    Both tails are summed in closed form instead of by window padding:
    before the disturbance arrives the state rides the decaying
    backward variable through a Stein-equation particular solution, and
    after it ends the cost-to-go is the Riccati value x' X x.  The
    simulated energy must agree with the completion-of-squares sum to
    ``_CROSS_CHECK_REL`` times the sum of the magnitudes of its four
    terms, or the call raises.  The sum cancels terms far larger than
    the cost, and that is the scale of its roundoff (Higham 2002,
    ch. 4), which a gate relative to the cost outgrows on long inputs.

    The backward and forward recursions of a sequence run in lock step
    over zero-padded inputs, in blocks of ``signals.trial_blocks``, each
    step one stacked matrix-vector product that rounds like the
    per-signal one.  The window products run on each signal's own rows,
    and the forms of v before the window and of x at its end are
    stacked one-row products, so a cost does not depend on the sequence
    it is in.
    """
    if isinstance(d, Signal):
        return float(_costs(K0, [d])[0])
    return _costs(K0, d)


def _costs(K0: NoncausalController, ds) -> np.ndarray:
    P = K0.plant
    out = np.zeros(len(ds))
    live = [i for i, d in enumerate(ds) if d.norm_sq() != 0.0]
    # per padded sample: the input, two state rows, their two drives
    # and the term w kept for ||e||^2
    for block in trial_blocks([len(ds[i]) for i in live],
                              P.n_d + P.n_u + 4 * K0.A11.shape[0]):
        idx = [live[j] for j in block]
        out[idx] = _lock_step_costs(K0, [ds[i] for i in idx])
    return out


def _lock_step_costs(K0: NoncausalController, ds) -> np.ndarray:
    """Costs of :func:`eval_noncausal_cost` for one block of nonzero signals.

    The window products of a signal run on its own rows, with the
    gains that multiply the same rows side by side in one product; the
    forms of the states before and after the window run for the whole
    block as stacked one-row products.
    """
    P = K0.plant
    A11, n, n_u = K0.A11, K0.A11.shape[0], P.n_u
    T = max(len(d) for d in ds)
    din = np.zeros((T, len(ds), P.n_d, 1))
    for b, d in enumerate(ds):
        din[: len(d), b, :, 0] = d.samples
    v = _backward_v(K0, din)
    # u[t] = -K_x x[t] - w[t]: the part of the input fixed by d and v
    drive = np.zeros((T, len(ds), n, 1))
    in_gains = np.hstack([K0.K_d.T, P.B_d.T, P.B_d.T @ K0.X @ P.B_d])
    # per signal: the four terms of the completion-of-squares sum (the
    # window's three, then its own pre-tail) and ||e||^2
    terms, e_sq = np.empty((len(ds), 4)), np.empty(len(ds))
    ws = []
    for b, d in enumerate(ds):
        L, v_next = len(d), v[1 : len(d) + 1, b, :, 0]
        prod = d.samples @ in_gains  # d K_d', d B_d', d B_d' X B_d
        w = prod[:, :n_u] + v_next @ K0.K_v.T
        Bd_d = prod[:, n_u : n_u + n]
        drive[:L, b, :, 0] = Bd_d - w @ P.B_u.T
        terms[b, :3] = (np.vdot(prod[:, n_u + n :], d.samples),
                        2.0 * np.vdot(v_next, Bd_d), -np.vdot(w @ K0.H, w))
        ws.append(w)
    # pre-window: x rides the backward variable, x[t] = M v[t]
    xs = np.empty((T + 1, len(ds), n, 1))
    np.matmul(K0.M, v[0], out=xs[0])
    lock_step_run(A11, xs, drive)
    state_gains = np.hstack([K0.K_x.T, P.C_e.T])
    for b, (d, w) in enumerate(zip(ds, ws)):
        prod = xs[: len(d), b, :, 0] @ state_gains
        # e = C_e x + D_eu u with u = -(K_x x + w)
        e = prod[:, n_u:] - (prod[:, :n_u] + w) @ P.D_eu.T
        e_sq[b] = np.vdot(e, e)
    # the forms of v before the window and of x at its end, one row each
    v0 = v[0]
    x_end = xs[[len(d) for d in ds], np.arange(len(ds))]
    # settle tail: v = 0 past the support, cost-to-go x' X x
    j_sim = _forms(K0.G_pre, v0) + e_sq + _forms(K0.X, x_end)
    terms[:, 3] = -_forms(K0.G_cf, v0)
    j_cf = terms.sum(axis=1)
    bad = np.abs(j_sim - j_cf) > _CROSS_CHECK_REL * np.abs(terms).sum(axis=1)
    if bad.any():
        b = bad.nonzero()[0][0]
        raise RegretSynthError(
            f"noncausal cost cross-check failed: simulated {j_sim[b]:.12g} "
            f"vs closed form {j_cf[b]:.12g}"
        )
    return j_sim


def _forms(G: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x' G x for a stack of column vectors x, shape (k, n, 1), one
    stacked product that rounds like the per-vector ``G @ x``."""
    return (np.matmul(G, x) * x)[:, :, 0].sum(axis=1)


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
