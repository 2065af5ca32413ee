"""Partitioned plants and linear fractional interconnections.

A :class:`GeneralizedPlant` partitions a state-space system into
disturbance/control inputs (d, u) and error/measurement outputs (e, y)
with the standing assumptions D_yu = 0 and D_ed = 0.  An
:class:`UncertainPlant` adds uncertainty channels (w -> v) ahead of
them.  ``lft_lower`` closes a controller around (y, u); ``lft_upper``
closes an uncertainty around (v, w).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, WellPosednessError
from .statespace import StateSpace, join_sample_time

_FEEDTHROUGH_TOL = 1e-10
# lft_upper's well-posedness margin: sigma_min(I - D_vw D_Delta) must
# exceed this times max(1, sigma_max)
_WELL_POSED_TOL = 1e-9


def _check_zero(block: np.ndarray, name: str):
    if block.size and np.max(np.abs(block)) > _FEEDTHROUGH_TOL:
        raise DimensionError(f"feedthrough {name} must be zero (max abs "
                             f"{np.max(np.abs(block)):.3g})")


def _check_sizes(plant):
    """Raise DimensionError unless every channel count of ``plant`` is
    non-negative; a negative count would slice the wrong rows."""
    negative = {k: v for k, v in vars(plant).items()
                if k.startswith("n_") and v < 0}
    if negative:
        raise DimensionError(f"channel counts must be non-negative, got {negative}")


@dataclass(frozen=True)
class GeneralizedPlant:
    """Plant with inputs (d, u) and outputs (e, y); D_yu = 0, D_ed = 0."""

    ss: StateSpace
    n_d: int
    n_u: int
    n_e: int
    n_y: int

    def __post_init__(self):
        _check_sizes(self)
        if self.n_d + self.n_u != self.ss.n_u:
            raise DimensionError("input partition does not sum to n_u of ss")
        if self.n_e + self.n_y != self.ss.n_y:
            raise DimensionError("output partition does not sum to n_y of ss")
        _check_zero(self.D_ed, "D_ed")
        _check_zero(self.D_yu, "D_yu")

    # block accessors ---------------------------------------------------
    @property
    def A(self) -> np.ndarray:
        return self.ss.A

    @property
    def B_d(self) -> np.ndarray:
        return self.ss.B[:, : self.n_d]

    @property
    def B_u(self) -> np.ndarray:
        return self.ss.B[:, self.n_d :]

    @property
    def C_e(self) -> np.ndarray:
        return self.ss.C[: self.n_e, :]

    @property
    def C_y(self) -> np.ndarray:
        return self.ss.C[self.n_e :, :]

    @property
    def D_ed(self) -> np.ndarray:
        return self.ss.D[: self.n_e, : self.n_d]

    @property
    def D_eu(self) -> np.ndarray:
        return self.ss.D[: self.n_e, self.n_d :]

    @property
    def D_yd(self) -> np.ndarray:
        return self.ss.D[self.n_e :, : self.n_d]

    @property
    def D_yu(self) -> np.ndarray:
        return self.ss.D[self.n_e :, self.n_d :]

    @property
    def n_x(self) -> int:
        return self.ss.n_x

    @property
    def sample_time(self):
        return self.ss.sample_time

    def ed_subsystem(self) -> StateSpace:
        """Open-loop map from d to e."""
        return StateSpace(self.A, self.B_d, self.C_e, self.D_ed, self.sample_time)

    @cached_property
    def synthesis_setup(self) -> dict:
        """Store for the set-up of :func:`hinf.synth_hinf` that depends on
        the plant alone (PBH margins, normalized blocks per regularization
        level), so a bisection over gamma computes it once.  The state
        space is read-only, so the entries cannot go stale."""
        return {}


@dataclass(frozen=True)
class UncertainPlant:
    """Plant with inputs (w, d, u) and outputs (v, e, y).

    Feedthrough pattern: the error row has no w or d feedthrough and
    D_yu = 0; the v row may have any feedthrough.
    """

    ss: StateSpace
    n_w: int
    n_d: int
    n_u: int
    n_v: int
    n_e: int
    n_y: int

    def __post_init__(self):
        _check_sizes(self)
        if self.n_w + self.n_d + self.n_u != self.ss.n_u:
            raise DimensionError("input partition does not sum to n_u of ss")
        if self.n_v + self.n_e + self.n_y != self.ss.n_y:
            raise DimensionError("output partition does not sum to n_y of ss")
        D = self.ss.D
        e_rows = slice(self.n_v, self.n_v + self.n_e)
        _check_zero(D[e_rows, : self.n_w], "D_ew")
        _check_zero(D[e_rows, self.n_w : self.n_w + self.n_d], "D_ed")
        y_rows = slice(self.n_v + self.n_e, None)
        _check_zero(D[y_rows, self.n_w + self.n_d :], "D_yu")

    @property
    def n_x(self) -> int:
        return self.ss.n_x

    @property
    def sample_time(self):
        return self.ss.sample_time

    def nominal(self, prune: bool = True) -> GeneralizedPlant:
        """Delta = 0 view: drop the (w, v) channels.

        States that become structurally unreachable or unobservable
        once the uncertainty channels are removed (e.g. the state of an
        uncertainty weight) are pruned; with zero initial conditions
        this leaves the input/output behaviour exactly unchanged.
        """
        inputs = np.arange(self.n_w, self.ss.n_u)
        outputs = np.arange(self.n_v, self.ss.n_y)
        sub = self.ss.subsystem(outputs, inputs)
        if prune:
            sub = structural_prune(sub)
        return GeneralizedPlant(
            sub, n_d=self.n_d, n_u=self.n_u, n_e=self.n_e, n_y=self.n_y,
        )

    def as_generalized(self) -> GeneralizedPlant:
        """Treat (w, d) jointly as disturbance and (v, e) as error.

        This is the synthesis view used when closing a controller around
        (y, u) while leaving the uncertainty channels open.
        """
        return GeneralizedPlant(
            self.ss,
            n_d=self.n_w + self.n_d, n_u=self.n_u,
            n_e=self.n_v + self.n_e, n_y=self.n_y,
        )


def structural_prune(ss: StateSpace) -> StateSpace:
    """Drop states outside the structural reachable/observable closure.

    Purely pattern-based (no rank decisions): a state is kept iff it is
    reachable from some input through nonzero entries and can influence
    some output.  Exact for zero initial conditions.
    """
    n = ss.n_x
    if n == 0:
        return ss
    Apat = np.abs(ss.A) > 0.0
    reach = np.any(np.abs(ss.B) > 0.0, axis=1)
    for _ in range(n):
        new = reach | (Apat @ reach)
        if np.array_equal(new, reach):
            break
        reach = new
    obs = np.any(np.abs(ss.C) > 0.0, axis=0)
    for _ in range(n):
        new = obs | (Apat.T @ obs)
        if np.array_equal(new, obs):
            break
        obs = new
    keep = np.nonzero(reach & obs)[0]
    if keep.size == n:
        return ss
    return StateSpace(ss.A[np.ix_(keep, keep)], ss.B[keep, :],
                      ss.C[:, keep], ss.D, ss.sample_time)


def lft_lower(P: GeneralizedPlant, K: StateSpace) -> StateSpace:
    """Close u = K y around the lower channels: the map from d to e.

    Always well-posed here because D_yu = 0.  Stability is not
    asserted; callers must check the returned system.
    """
    if K.n_u != P.n_y or K.n_y != P.n_u:
        raise DimensionError(
            f"controller is {K.n_y}x{K.n_u}, plant wants {P.n_u}x{P.n_y}"
        )
    ts = join_sample_time(P.ss, K)
    A, B_d, B_u = P.A, P.B_d, P.B_u
    C_e, C_y = P.C_e, P.C_y
    D_eu, D_yd = P.D_eu, P.D_yd
    Ak, Bk, Ck, Dk = K.A, K.B, K.C, K.D
    n, nx = P.n_x, P.n_x + K.n_x
    # u = Ck xk + Dk y,  y = C_y x + D_yd d  (D_yu = 0):
    # A_cl = [[A + B_u Dk C_y, B_u Ck], [Bk C_y, Ak]],
    # B_cl = [B_d + B_u Dk D_yd; Bk D_yd], C_cl = [C_e + D_eu Dk C_y, D_eu Ck]
    BuDk, DeuDk = B_u @ Dk, D_eu @ Dk
    A_cl = np.empty((nx, nx))
    np.add(A, BuDk @ C_y, out=A_cl[:n, :n])
    A_cl[:n, n:] = B_u @ Ck
    A_cl[n:, :n] = Bk @ C_y
    A_cl[n:, n:] = Ak
    B_cl = np.empty((nx, P.n_d))
    np.add(B_d, BuDk @ D_yd, out=B_cl[:n])
    B_cl[n:] = Bk @ D_yd
    C_cl = np.empty((P.n_e, nx))
    np.add(C_e, DeuDk @ C_y, out=C_cl[:, :n])
    C_cl[:, n:] = D_eu @ Ck
    return StateSpace(A_cl, B_cl, C_cl, P.D_ed + DeuDk @ D_yd, ts)


def lft_upper(M: StateSpace, Delta: StateSpace, n_w: int, n_v: int) -> StateSpace:
    """Close w = Delta v around the upper channels of M.

    M has inputs (w, d) and outputs (v, e).  Well-posedness requires
    I - D_vw D_Delta to be nonsingular.
    """
    if Delta.n_u != n_v or Delta.n_y != n_w:
        raise DimensionError(
            f"Delta is {Delta.n_y}x{Delta.n_u}, expected {n_w}x{n_v}"
        )
    ts = join_sample_time(M, Delta)
    n_d = M.n_u - n_w
    n_e = M.n_y - n_v
    if n_d < 0 or n_e < 0:
        raise DimensionError("partition exceeds M dimensions")
    A, B, C, D = M.A, M.B, M.C, M.D
    B_w, B_dd = B[:, :n_w], B[:, n_w:]
    C_v, C_ee = C[:n_v, :], C[n_v:, :]
    D_vw, D_vd = D[:n_v, :n_w], D[:n_v, n_w:]
    D_ew, D_ed = D[n_v:, :n_w], D[n_v:, n_w:]
    Ad, Bd_, Cd_, Dd_ = Delta.A, Delta.B, Delta.C, Delta.D
    loop = np.eye(n_v) - D_vw @ Dd_
    sv = np.linalg.svd(loop, compute_uv=False) if loop.size else np.array([1.0])
    if loop.size and sv[-1] <= _WELL_POSED_TOL * max(1.0, sv[0]):
        raise WellPosednessError(
            f"I - D_vw D_Delta is singular (sigma_min = {sv[-1]:.3g})"
        )
    # v = (I - D_vw D_Delta)^{-1} (C_v x + D_vw C_D xD + D_vd d)
    Li = np.linalg.inv(loop) if loop.size else loop
    n, nD = M.n_x, Delta.n_x
    v_x = Li @ C_v
    v_xD = Li @ D_vw @ Cd_
    v_d = Li @ D_vd
    # w = C_D xD + D_D v
    w_x = Dd_ @ v_x
    w_xD = Cd_ + Dd_ @ v_xD
    w_d = Dd_ @ v_d
    A_cl = np.block([
        [A + B_w @ w_x, B_w @ w_xD],
        [Bd_ @ v_x, Ad + Bd_ @ v_xD],
    ])
    B_cl = np.vstack([B_dd + B_w @ w_d, Bd_ @ v_d])
    C_cl = np.hstack([C_ee + D_ew @ w_x, D_ew @ w_xD])
    D_cl = D_ed + D_ew @ w_d
    return StateSpace(A_cl, B_cl, C_cl, D_cl, ts)


def weight_disturbance(P: GeneralizedPlant, W: StateSpace) -> GeneralizedPlant:
    """Generalized plant for the weighted loop F_L(P, K) W on the d-channel.

    The returned plant maps (d_hat, u) to (e, y) with d = W d_hat.
    """
    if W.n_y != P.n_d:
        raise DimensionError("weight output dimension must equal n_d")
    ts = join_sample_time(P.ss, W)
    n, nw = P.n_x, W.n_x
    A = np.block([
        [P.A, P.B_d @ W.C],
        [np.zeros((nw, n)), W.A],
    ])
    B = np.block([
        [P.B_d @ W.D, P.B_u],
        [W.B, np.zeros((nw, P.n_u))],
    ])
    C = np.block([
        [P.C_e, P.D_ed @ W.C],
        [P.C_y, P.D_yd @ W.C],
    ])
    D = np.block([
        [P.D_ed @ W.D, P.D_eu],
        [P.D_yd @ W.D, P.D_yu],
    ])
    return GeneralizedPlant(StateSpace(A, B, C, D, ts),
                            n_d=W.n_u, n_u=P.n_u, n_e=P.n_e, n_y=P.n_y)
