"""Sub-optimal discrete-time H-infinity output-feedback synthesis.

The discrete problem is mapped through the bilinear transform
``z = (1 + s) / (1 - s)`` to an equivalent continuous-time problem,
solved with the two-Riccati central controller (general feedthrough
case), and mapped back.  The transform is an exact isomorphism of the
feasibility problems: the unit circle maps onto the imaginary axis, so
closed-loop norms and internal stability are preserved.  Before the map,
the plant's states are scaled by :func:`statespace.balance_states`, the
same power-of-two balancing that :func:`norms.hinf_norm` applies to its
pencil.  The X and Y Riccati equations of the central controller are
solved by :func:`care_schur` from one ordered real Schur form of the
balanced Hamiltonian (Laub 1979), then polished by Newton steps and
gated on the residual and the stability of the closed-loop matrix.

Nothing downstream trusts the synthesis internals: every returned
controller carries an a-posteriori certificate, the closed-loop spectral
radius and a certified upper bound on the closed-loop H-infinity norm
(the upper end of the level-set bracket of :func:`norms.hinf_norm`,
computed on the discrete loop without this transform).  A level is
feasible only when that upper bound is below it.  :func:`decide_level`
gives the verdict of one level by :func:`norms.norm_below`, which
answers whether that upper bound would be below the level from one
pencil, and brackets only a level it cannot decide.

:func:`hinf_search` decides the levels of its search by the candidate
alone: the Riccati tests pass and the closed loop is stable.  Exact
two-Riccati synthesis then meets the level (Doyle, Glover, Khargonekar
and Francis 1989), but in floating point a candidate near the optimum
can pass the tests and miss the level.  So only the level returned is
decided by :func:`decide_level`, and if it fails, the search runs again
with every level decided so, reusing the candidates it has.  Every
returned controller thus carries the certificate a search over
:func:`synth_hinf` would give it.  :func:`hinf_optimize` brackets the
level it returns once more (:func:`certify_returned`).  The nominal
additive-regret search runs the same rule on a family of weighted
plants (:func:`family_search`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import (
    NoFeasibleUpperBound,
    NotDetectable,
    NotStabilizable,
    RegretSynthError,
)
from .norms import hinf_norm, norm_below
from .plants import GeneralizedPlant, lft_lower
from .riccati import pbh_detectable, pbh_stabilizable
from .statespace import StateSpace, balance_states

_SQRT2 = np.sqrt(2.0)
# D12/D21 regularization levels, tried in order on numerical failure
_REG_LADDER = (1e-8, 1e-6, 1e-4)
# doublings from level 1 before a search gives up
DOUBLING_LIMIT = 60


@dataclass(frozen=True)
class SynthesisResult:
    """Controller plus an a-posteriori validated certificate."""

    controller: StateSpace | None
    gamma: float
    feasible: bool
    achieved_norm: float
    closed_loop: StateSpace | None = None
    metadata: dict = field(default_factory=dict)


def tustin_d2c(A, B, C, D):
    """Bilinear discrete -> continuous map with s = (z - 1)/(z + 1)."""
    n = A.shape[0]
    if n == 0:
        return A.copy(), B.copy(), C.copy(), D.copy()
    eigs = np.linalg.eigvals(A)
    if np.min(np.abs(eigs + 1.0)) <= 1e-9 * (1.0 + np.max(np.abs(eigs))):
        raise RegretSynthError("bilinear transform singular: eigenvalue at z = -1")
    M = A + np.eye(n)
    Mi = np.linalg.inv(M)
    Ac = Mi @ (A - np.eye(n))
    Bc = _SQRT2 * (Mi @ B)
    Cc = _SQRT2 * (C @ Mi)
    Dc = D - C @ Mi @ B
    return Ac, Bc, Cc, Dc


def tustin_c2d(Ac, Bc, Cc, Dc):
    """Inverse bilinear map, exact round trip of :func:`tustin_d2c`."""
    n = Ac.shape[0]
    if n == 0:
        return Ac.copy(), Bc.copy(), Cc.copy(), Dc.copy()
    M = np.eye(n) - Ac
    Mi = np.linalg.inv(M)
    A = Mi @ (np.eye(n) + Ac)
    B = _SQRT2 * (Mi @ Bc)
    C = _SQRT2 * (Cc @ Mi)
    D = Dc + Cc @ Mi @ Bc
    return A, B, C, D


def care_schur(H: np.ndarray):
    """Stabilizing solution of the Riccati equation attached to a
    Hamiltonian matrix, from one ordered real Schur form (Laub 1979).

    Returns the symmetric X with H [I; X] = [I; X] L and L Hurwitz, or
    None when H has eigenvalues on (or numerically at) the imaginary
    axis or the subspace does not define a solution.  The stable
    subspace is spanned by the leading Schur vectors of the balanced
    Hamiltonian; X is then polished by Newton steps and gated on its
    residual and on L.
    """
    n = H.shape[0] // 2
    if n == 0:
        return np.zeros((0, 0))
    # Diagonal balancing (similarity) before eigenvalue work; the
    # invariant subspace transforms back exactly.
    Hb, T_bal = scipy.linalg.matrix_balance(H)
    try:
        T, U, sdim = scipy.linalg.schur(Hb, output="real", sort="lhp")
    except np.linalg.LinAlgError:
        return None
    # eigenvalues off T's diagonal blocks: a standardized 2 x 2 block
    # [[a, b], [c, a]] has Re = a and |lambda|^2 = a^2 - bc
    re = np.diag(T)
    mod2 = re * re
    bc = np.diag(T, 1) * np.diag(T, -1)
    mod2[:-1] -= bc
    mod2[1:] -= bc
    if np.min(np.abs(re) / (1.0 + np.sqrt(mod2))) <= 1e-9 or sdim != n:
        return None
    # the leading Schur vectors span Hb's stable subspace; T_bal maps
    # them to a basis of H's
    V = T_bal @ U[:, :n]
    V1, V2 = V[:n, :], V[n:, :]
    sv = np.linalg.svd(V1, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        return None
    X = np.linalg.solve(V1.T, V2.T).T
    X = 0.5 * (X + X.T)
    # Newton correction through the Sylvester equation
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


def _svd_normalize_d12(C1, D11, D12, B2):
    """Coordinate changes making D12 = [0; I]; returns the u back-map."""
    p1, m2 = D12.shape
    U, s, Vt = np.linalg.svd(D12, full_matrices=True)
    Uperm = np.hstack([U[:, m2:], U[:, :m2]])
    C1n = Uperm.T @ C1
    D11n = Uperm.T @ D11
    u_map = Vt.T @ np.diag(1.0 / s)  # u = u_map @ u_tilde
    B2n = B2 @ u_map
    D12n = np.vstack([np.zeros((p1 - m2, m2)), np.eye(m2)])
    return C1n, D11n, D12n, B2n, u_map


def _svd_normalize_d21(B1, D11, D21, C2):
    """Coordinate changes making D21 = [0, I]; returns the y back-map."""
    p2, m1 = D21.shape
    U, s, Vt = np.linalg.svd(D21, full_matrices=True)
    Vperm = np.hstack([Vt[p2:, :].T, Vt[:p2, :].T])
    B1n = B1 @ Vperm
    D11n = D11 @ Vperm
    y_map = np.diag(1.0 / s) @ U.T  # y_tilde = y_map @ y
    C2n = y_map @ C2
    D21n = np.hstack([np.zeros((p2, m1 - p2)), np.eye(p2)])
    return B1n, D11n, D21n, C2n, y_map


def _central_controller(A, B1, B2, C1, C2, D11, gamma):
    """General-case two-Riccati central controller for a normalized plant
    (D12 = [0; I], D21 = [0, I], D22 = 0) at level gamma.

    Returns (Ak, Bk, Ck, Dk) or (None, reason).
    """
    n = A.shape[0]
    m1, m2 = B1.shape[1], B2.shape[1]
    p1, p2 = C1.shape[0], C2.shape[0]
    g2 = gamma * gamma
    # Parrott necessary condition on the uncontrolled feedthrough corners
    D1111 = D11[: p1 - m2, : m1 - p2]
    D1112 = D11[: p1 - m2, m1 - p2 :]
    D1121 = D11[p1 - m2 :, : m1 - p2]
    D1122 = D11[p1 - m2 :, m1 - p2 :]
    s_row = np.linalg.svd(np.hstack([D1111, D1112]), compute_uv=False)[0] \
        if min(p1 - m2, m1) > 0 else 0.0
    s_col = np.linalg.svd(np.vstack([D1111, D1121]), compute_uv=False)[0] \
        if min(m1 - p2, p1) > 0 else 0.0
    if gamma <= max(s_row, s_col) * (1.0 + 1e-12):
        return None, "parrott"
    B = np.hstack([B1, B2])
    C = np.vstack([C1, C2])
    D1dot = np.hstack([D11, np.vstack([np.zeros((p1 - m2, m2)), np.eye(m2)])])
    Ddot1 = np.vstack([D11, np.hstack([np.zeros((p2, m1 - p2)), np.eye(p2)])])
    R = D1dot.T @ D1dot
    R[:m1, :m1] -= g2 * np.eye(m1)
    Rt = Ddot1 @ Ddot1.T
    Rt[:p1, :p1] -= g2 * np.eye(p1)
    try:
        Ri = np.linalg.inv(R)
        Rti = np.linalg.inv(Rt)
    except np.linalg.LinAlgError:
        return None, "R_singular"
    # X Hamiltonian
    top = np.hstack([A, np.zeros((n, n))])
    bot = np.hstack([-C1.T @ C1, -A.T])
    stack_b = np.vstack([B, -C1.T @ D1dot])
    row = np.hstack([D1dot.T @ C1, B.T])
    Hx = np.vstack([top, bot]) - stack_b @ Ri @ row
    X = care_schur(Hx)
    if X is None:
        return None, "X_riccati"
    x_scale = 1.0 + float(np.max(np.abs(X), initial=0.0))
    # loose sign gate: marginal roundoff negatives pass through and the
    # a-posteriori closed-loop validation arbitrates
    if float(np.min(np.linalg.eigvalsh(X), initial=np.inf)) < -1e-4 * x_scale:
        return None, "X_indefinite"
    # Y Hamiltonian (dual)
    top = np.hstack([A.T, np.zeros((n, n))])
    bot = np.hstack([-B1 @ B1.T, -A])
    stack_c = np.vstack([C.T, -B1 @ Ddot1.T])
    row = np.hstack([Ddot1 @ B1.T, C])
    Hy = np.vstack([top, bot]) - stack_c @ Rti @ row
    Y = care_schur(Hy)
    if Y is None:
        return None, "Y_riccati"
    y_scale = 1.0 + float(np.max(np.abs(Y), initial=0.0))
    if float(np.min(np.linalg.eigvalsh(Y), initial=np.inf)) < -1e-4 * y_scale:
        return None, "Y_indefinite"
    rho_xy = float(np.max(np.abs(np.linalg.eigvals(X @ Y)), initial=0.0))
    if rho_xy >= g2:
        return None, "spectral_radius"
    # gains
    F = -Ri @ (D1dot.T @ C1 + B.T @ X)
    Lg = -(B1 @ Ddot1.T + Y @ C.T) @ Rti
    F1, F2 = F[:m1, :], F[m1:, :]
    F12 = F1[m1 - p2 :, :]
    L1, L2 = Lg[:, :p1], Lg[:, p1:]
    L12 = L1[:, p1 - m2 :]
    try:
        T_row = np.linalg.inv(g2 * np.eye(p1 - m2) - D1111 @ D1111.T)
        T_col = np.linalg.inv(g2 * np.eye(m1 - p2) - D1111.T @ D1111)
        Dh11 = -D1121 @ D1111.T @ T_row @ D1112 - D1122
        M12 = np.eye(m2) - D1121 @ T_col @ D1121.T
        M21 = np.eye(p2) - D1112.T @ T_row @ D1112
        Dh12 = np.linalg.cholesky(M12)  # Dh12 Dh12' = M12
        Dh21 = scipy.linalg.cholesky(M21, lower=False)  # Dh21' Dh21 = M21
    except np.linalg.LinAlgError:
        return None, "feedthrough_factorization"
    Z = np.linalg.inv(np.eye(n) - Y @ X / g2)
    Bh2 = Z @ (B2 + L12) @ Dh12
    Ch2 = -Dh21 @ (C2 + F12)
    Bh1 = -Z @ L2 + Bh2 @ np.linalg.solve(Dh12, Dh11)
    Ch1 = F2 + Dh11 @ np.linalg.solve(Dh21, Ch2)
    Ah = A + B @ F + Bh1 @ np.linalg.solve(Dh21, Ch2)
    return (Ah, Bh1, Ch1, Dh11), "ok"


def _wrap_d22(Ak, Bk, Ck, Dk, D22):
    """Account for nonzero plant D22: u = K (y - D22 u)."""
    if D22.size == 0 or np.max(np.abs(D22)) == 0.0:
        return Ak, Bk, Ck, Dk
    M = np.eye(Dk.shape[0]) + Dk @ D22
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise RegretSynthError("controller feedthrough loop is ill posed")
    Mi = np.linalg.inv(M)
    Ak2 = Ak - Bk @ D22 @ Mi @ Ck
    Bk2 = Bk @ (np.eye(Bk.shape[1]) - D22 @ Mi @ Dk)
    return Ak2, Bk2, Mi @ Ck, Mi @ Dk


def _regularized_blocks(P: GeneralizedPlant, reg_eps: float):
    """Continuous-domain blocks with rank-deficient D12/D21 repaired.

    Rank deficiencies are repaired by appending epsilon-weighted error
    rows / disturbance columns; the perturbation size is recorded so
    callers can report it.
    """
    # state balancing (similarity only, channels untouched) tames badly
    # scaled realizations coming out of the spectral-factor chain
    A0_, B0_, C0_ = balance_states(P.ss.A, P.ss.B, P.ss.C)
    Ac, Bc, Cc, Dc = tustin_d2c(A0_, B0_, C0_, P.ss.D)
    n_d, n_u, n_e, n_y = P.n_d, P.n_u, P.n_e, P.n_y
    B1, B2 = Bc[:, :n_d], Bc[:, n_d:]
    C1, C2 = Cc[:n_e, :], Cc[n_e:, :]
    D11, D12 = Dc[:n_e, :n_d], Dc[:n_e, n_d:]
    D21, D22 = Dc[n_e:, :n_d], Dc[n_e:, n_d:]
    meta = {}
    sv12 = np.linalg.svd(D12, compute_uv=False) if D12.size else np.zeros(1)
    if D12.shape[0] < D12.shape[1] or sv12[-1] < 1e-9 * max(1.0, sv12[0]):
        m2 = D12.shape[1]
        eps = reg_eps * max(1.0, sv12[0])
        C1 = np.vstack([C1, np.zeros((m2, C1.shape[1]))])
        D11 = np.vstack([D11, np.zeros((m2, D11.shape[1]))])
        D12 = np.vstack([D12, eps * np.eye(m2)])
        meta["d12_regularized"] = eps
    sv21 = np.linalg.svd(D21, compute_uv=False) if D21.size else np.zeros(1)
    if D21.shape[1] < D21.shape[0] or sv21[-1] < 1e-9 * max(1.0, sv21[0]):
        p2 = D21.shape[0]
        eps = reg_eps * max(1.0, sv21[0])
        B1 = np.hstack([B1, np.zeros((B1.shape[0], p2))])
        D11 = np.hstack([D11, np.zeros((D11.shape[0], p2))])
        D21 = np.hstack([D21, eps * np.eye(p2)])
        meta["d21_regularized"] = eps
    return Ac, B1, B2, C1, C2, D11, D12, D21, D22, meta


def _pbh_margins(P: GeneralizedPlant) -> tuple[float, float]:
    """PBH stabilizability margin of (A, B_u) and detectability margin of
    (A, C_y), computed once per plant."""
    setup = P.synthesis_setup
    if "pbh" not in setup:
        setup["pbh"] = (pbh_stabilizable(P.A, P.B_u), pbh_detectable(P.A, P.C_y))
    return setup["pbh"]


def _normalized_blocks(P: GeneralizedPlant, reg_eps: float):
    """Regularized continuous-domain blocks with D12 = [0; I] and
    D21 = [0, I], computed once per plant and regularization level.

    Returns ((Ac, B1, B2, C1, C2, D11, D22, u_map, y_map), meta) with
    read-only arrays; callers copy ``meta`` before adding to it.
    """
    setup = P.synthesis_setup
    key = ("blocks", reg_eps)
    if key not in setup:
        Ac, B1, B2, C1, C2, D11, D12, D21, D22, meta = _regularized_blocks(P, reg_eps)
        C1n, D11n, _, B2n, u_map = _svd_normalize_d12(C1, D11, D12, B2)
        B1n, D11n, _, C2n, y_map = _svd_normalize_d21(B1, D11n, D21, C2)
        blocks = (Ac, B1n, B2n, C1n, C2n, D11n, D22, u_map, y_map)
        for arr in blocks:
            arr.flags.writeable = False
        setup[key] = blocks, meta
    return setup[key]


def _candidate(P: GeneralizedPlant, gamma: float):
    """The part of :func:`synth_hinf` that depends on gamma: the central
    controller and its closed loop, before any certificate.

    Returns (reason, meta, Kd, cl): ``reason`` is None when the closed
    loop ``cl`` of the controller ``Kd`` is Schur-stable, and otherwise
    the verdict, with ``Kd`` and ``cl`` None.
    """
    if gamma <= 0:
        return "gamma_nonpositive", {}, None, None
    stab, det = _pbh_margins(P)
    if not stab > 1e-9:
        raise NotStabilizable(f"(A, B_u) PBH margin {stab:.3g}")
    if not det > 1e-9:
        raise NotDetectable(f"(A, C_y) PBH margin {det:.3g}")

    # tiny regularizations can make the normalized problem numerically
    # hopeless (the channels are rescaled by 1/eps); escalate only on
    # numerical failure modes, never on genuine infeasibility signals
    genuine = {"parrott", "X_indefinite", "Y_indefinite", "spectral_radius"}
    for eps in _REG_LADDER:
        (Ac, B1n, B2n, C1n, C2n, D11n, D22, u_map, y_map), meta = \
            _normalized_blocks(P, eps)
        out, reason = _central_controller(Ac, B1n, B2n, C1n, C2n, D11n, gamma)
        if out is not None or reason in genuine or not meta:
            break
    if out is None:
        return reason, meta, None, None
    Ak, Bk, Ck, Dk = out
    # undo channel normalizations
    Bk = Bk @ y_map
    Dk = u_map @ Dk @ y_map
    Ck = u_map @ Ck
    try:
        Ak, Bk, Ck, Dk = _wrap_d22(Ak, Bk, Ck, Dk, D22)
        Kd = StateSpace(*tustin_c2d(Ak, Bk, Ck, Dk), P.sample_time)
    except RegretSynthError as exc:
        return str(exc), meta, None, None
    cl = lft_lower(P, Kd)
    if not cl.is_schur():
        return "closed_loop_unstable", meta, None, None
    return None, meta, Kd, cl


def _infeasible(gamma: float, reason: str, meta: dict) -> SynthesisResult:
    return SynthesisResult(None, gamma, False, np.inf,
                           metadata={**meta, "reason": reason})


def _certified(gamma: float, meta: dict, Kd: StateSpace,
               cl: StateSpace) -> SynthesisResult:
    """The verdict on a candidate from the bracket of its closed-loop norm."""
    br = hinf_norm(cl, return_bracket=True)
    feasible = br.upper < gamma
    reason = "ok" if feasible else (
        "norm_at_level" if br.certified else "norm_uncertified")
    return SynthesisResult(Kd if feasible else None, gamma, feasible, br.upper,
                           cl if feasible else None,
                           metadata={**meta, "reason": reason,
                                     "norm_bracket": (br.lower, br.upper),
                                     "norm_iterations": br.iterations,
                                     "norm_status": br.status})


def synth_hinf(P: GeneralizedPlant, gamma: float) -> SynthesisResult:
    """Controller with validated closed-loop norm < gamma, or a verdict.

    The feasibility verdict is bound to the a-posteriori certificate:
    a candidate that fails independent validation is reported
    infeasible at this level, never trusted.  Validation brackets the
    closed-loop norm with :func:`hinf_norm`; the level is
    feasible when the certified upper end is below gamma.  The bracket,
    the number of levels tested and the bracket's status are recorded
    in ``metadata`` as ``norm_bracket``, ``norm_iterations`` and
    ``norm_status``.

    The set-up that does not depend on gamma (PBH margins, balanced
    bilinear blocks, their regularization and the D12/D21
    normalizations) is computed once per plant and regularization level
    and kept on ``P``, so a bisection over gamma pays for it once.
    """
    reason, meta, Kd, cl = _candidate(P, gamma)
    if reason is not None:
        return _infeasible(gamma, reason, meta)
    return _certified(gamma, meta, Kd, cl)


def check_tolerances(tol_abs: float, tol_rel: float) -> None:
    """Raise ValueError unless the bisection stopping rule
    ``hi - lo <= tol_abs + tol_rel hi`` can be met in floating point:
    both tolerances finite and non-negative, and at least one positive."""
    if not (np.isfinite(tol_abs) and np.isfinite(tol_rel)
            and tol_abs >= 0 and tol_rel >= 0 and (tol_abs > 0 or tol_rel > 0)):
        raise ValueError(f"tolerances must be finite, non-negative and not "
                         f"both zero (tol_abs={tol_abs}, tol_rel={tol_rel})")


def _cold_tree_bracket(at, tried: dict, start: float, done):
    """The deepest node on ``start``'s path of the cold search's tree whose
    lower end is infeasible and upper end feasible, or None.

    The cold search's tree has the roots (2^k, 2^(k+1)] and halves each
    node until ``done`` holds.  The path descends, without evaluating
    anything, from the root holding ``start`` to the final node holding
    it, then widens to that node's ancestors until one brackets.  An end
    already seen on the wrong side rules a node out unevaluated.
    """
    hi = 2.0
    while hi < start:
        hi *= 2.0
    lo = 0.5 * hi
    path = [(lo, hi)]
    while not done(lo, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if start <= mid else (mid, hi)
        path.append((lo, hi))
    for lo, hi in reversed(path):
        if lo in tried and tried[lo].feasible:
            continue
        if at(hi).feasible and not at(lo).feasible:
            return lo, hi
    return None


def bisect_level(feasible_at, tol_abs: float, tol_rel: float,
                 stop_below: float | None = None, start: float | None = None):
    """Smallest level at which ``feasible_at`` returns a feasible result.

    ``feasible_at(g)`` returns an object with a ``feasible`` flag.  The
    search doubles g from 1 until a level is feasible, then bisects the
    bracket [lo, hi] until ``hi - lo <= tol_abs + tol_rel hi``, or until
    the midpoint no longer lies strictly between lo and hi (a bracket
    down to adjacent floats, narrower than ``tol_abs`` can ask).  When
    ``stop_below`` is set, it ends as soon as a feasible level at or
    under it is found (used by feasibility-only callers).

    A ``start`` above 1 (and at most the last doubling, 2^59) is a guess
    of the answer.  Level 1 is still tried first; when it is infeasible,
    the search starts from the deepest node of the cold search's tree
    around ``start`` whose ends bracket, found by
    :func:`_cold_tree_bracket`, and falls back to the doubling when even
    that node's root does not bracket.  Every bracket is a node of the
    cold tree, so with verdicts monotone in g the result is the cold
    search's; only the levels tried differ.  No level is evaluated twice.

    Returns (lo, hi, best): lo is 0 or a level found infeasible, hi a
    feasible level, and best the result at hi, so every answer is
    certified at the bracket's upper end.  Tolerances that
    :func:`check_tolerances` rejects raise ValueError.
    """
    check_tolerances(tol_abs, tol_rel)
    tried = {}

    def at(g):
        if g not in tried:
            tried[g] = feasible_at(g)
        return tried[g]

    def done(lo, hi):
        return (hi - lo <= tol_abs + tol_rel * hi or not lo < 0.5 * (lo + hi) < hi
                or stop_below is not None and hi <= stop_below)

    bracket = None
    if start is not None and 1.0 < start <= 2.0 ** (DOUBLING_LIMIT - 1) \
            and not at(1.0).feasible:
        bracket = _cold_tree_bracket(at, tried, start, done)
    if bracket is None:
        lo, hi = 0.0, 1.0
        for _ in range(DOUBLING_LIMIT):
            if at(hi).feasible:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NoFeasibleUpperBound(f"no feasible level found up to {lo:.3g}")
    else:
        lo, hi = bracket
    best = at(hi)
    while not done(lo, hi):
        mid = 0.5 * (lo + hi)
        res = at(mid)
        if res.feasible:
            hi, best = mid, res
        else:
            lo = mid
    return lo, hi, best


@dataclass(frozen=True)
class _Decided:
    """A search level that :func:`norms.norm_below` decided, with the
    candidate kept for the one bracket :func:`certify_returned` may add."""

    feasible: bool
    candidate: tuple

    @property
    def controller(self) -> StateSpace:
        return self.candidate[1]


@dataclass(frozen=True)
class _Riccati:
    """A search level decided by its candidate alone."""

    feasible: bool


def _decide(gamma: float, reason, meta: dict, Kd, cl):
    """:func:`decide_level` on the candidate ``_candidate`` gave."""
    if reason is not None:
        return reason, _infeasible(gamma, reason, meta)
    below = norm_below(cl, gamma)
    if below is None:
        return "bracket", _certified(gamma, meta, Kd, cl)
    return ("below" if below else "above"), _Decided(below, (meta, Kd, cl))


def decide_level(P: GeneralizedPlant, gamma: float):
    """The verdict of :func:`synth_hinf` at ``gamma``, bracketing the
    closed-loop norm only when :func:`norms.norm_below` cannot decide it.

    Returns (verdict, result).  ``verdict`` is the synthesis reason of a
    candidate that failed, or ``below``, ``above`` or ``bracket``.
    ``result`` is a :class:`SynthesisResult` when the candidate failed
    or was bracketed, and otherwise the candidate ``norm_below``
    decided; both give ``feasible`` and ``controller``.  By the contract
    of ``norm_below``, ``feasible`` is that of ``synth_hinf(P, gamma)``.
    Its callers are :func:`hinf_search`, on the level it returns and in
    its fallback, and DK-iteration's nominal check.
    """
    return _decide(gamma, *_candidate(P, gamma))


def family_search(plant_at, tol_abs: float, tol_rel: float,
                  stop_below: float | None = None, start: float | None = None):
    """:func:`hinf_search`'s rule on a family of plants.

    ``plant_at(g)`` returns (plant, level): the search level g is
    decided on the candidate of :func:`synth_hinf` for that plant at
    that H-infinity level.  :func:`hinf_search` is the family (P, g).
    A regret level is a unit-level problem on the plant weighted by its
    own factor (Goel and Hassibi, "Competitive Control", IEEE TAC 2023),
    so the additive-regret search is a family at level 1.  Returns what
    ``hinf_search`` returns, its ``search_levels`` in the levels g.
    """
    levels = []
    candidates = {}

    def candidate_at(g):
        plant, level = plant_at(g)
        return level, *_candidate(plant, level)

    def riccati(g):
        candidates[g] = candidate_at(g)
        reason = candidates[g][1]
        levels.append((g, reason or "riccati_ok"))
        return _Riccati(reason is None)

    lo, hi, _ = bisect_level(riccati, tol_abs, tol_rel, stop_below, start)
    decided = {hi: _decide(*candidates[hi])}
    verdict, best = decided[hi]
    levels.append((hi, verdict))
    if best.feasible:
        return lo, hi, best, tuple(levels)

    def decide(g):
        if g not in decided:
            decided[g] = _decide(*(candidates[g] if g in candidates
                                   else candidate_at(g)))
        levels.append((g, decided[g][0]))
        return decided[g][1]

    lo, hi, best = bisect_level(decide, tol_abs, tol_rel, stop_below, start)
    return lo, hi, best, tuple(levels)


def hinf_search(P: GeneralizedPlant, tol_abs: float, tol_rel: float,
                stop_below: float | None = None, start: float | None = None):
    """The level search of :func:`hinf_optimize`, without its final
    bracket.

    Each level is decided by its candidate alone: feasible when the
    Riccati tests pass and the closed loop is stable, which an exact
    central controller turns into a norm below the level.  Only the
    level the search returns gets the verdict of :func:`decide_level`
    on its candidate.  When that verdict is infeasible, the search runs
    again with every level decided by ``decide_level``, as a search over
    :func:`synth_hinf` would, and returns that search's level.  No
    level's candidate is synthesized twice, and no level's norm is
    decided twice.  When the levels the candidates pass are those whose
    norms are below them, the first search takes the same path as the
    second would, so the result does not depend on the fallback.

    Returns (lo, gamma_upper, result, search_levels), in the order of
    :func:`bisect_level`'s (lo, hi, best).  ``lo`` is the lower end of
    the bracket that gave ``gamma_upper``, the fallback's after a
    fallback.  ``result`` is the one at the feasible upper end of the
    final bracket: a bracketed
    :class:`SynthesisResult` when the bracket decided that level, and
    otherwise the candidate :func:`norms.norm_below` decided below it.
    Both give the level's controller as ``result.controller``.
    ``search_levels`` holds one (gamma, verdict) per level in the order
    tried: the first search's verdicts (a failed candidate's reason, or
    ``riccati_ok``), then the verdict of ``decide_level`` on the level
    returned, and after a fallback (:func:`fell_back`) the fallback
    search's ``decide_level`` verdicts.  Callers that read only the
    level and the controller skip the bracket of :func:`hinf_optimize`.
    ``stop_below`` and ``start`` are passed on to :func:`bisect_level`.

    This is :func:`family_search` on the family (P, g).  The nominal
    additive-regret point runs the same rule on the plants weighted by
    each level's regret factor, at H-infinity level 1.
    """
    return family_search(lambda g: (P, g), tol_abs, tol_rel, stop_below, start)


def fell_back(search_levels) -> bool:
    """Whether the :func:`hinf_search` that recorded ``search_levels``
    searched again because its returned level failed: its record goes on
    after the verdict of :func:`decide_level` on that level, the first
    ``below``, ``above`` or ``bracket`` in it."""
    verdicts = [verdict for _, verdict in search_levels]
    return next(i for i, v in enumerate(verdicts)
                if v in ("below", "above", "bracket")) < len(verdicts) - 1


def certify_returned(gamma: float, result) -> SynthesisResult:
    """The :class:`SynthesisResult` of the level ``gamma`` that
    :func:`hinf_search` returned, with its closed-loop norm bracketed.

    A ``result`` the search bracketed already is returned as it is.  A
    candidate :func:`norms.norm_below` decided below ``gamma`` is
    bracketed now; a bracket that contradicts that verdict raises
    RegretSynthError.
    """
    if not isinstance(result, _Decided):
        return result
    res = _certified(gamma, *result.candidate)
    if not res.feasible:
        raise RegretSynthError(
            f"the norm bracket contradicts the decided level {gamma!r}: "
            f"upper end {res.achieved_norm!r}")
    return res


def hinf_optimize(P: GeneralizedPlant, tol_abs: float = 1e-4,
                  tol_rel: float = 1e-4):
    """Minimal achievable closed-loop norm by :func:`bisect_level`.

    Returns (gamma_upper, result) where result holds the controller
    synthesized at the feasible upper end of the final bracket.

    The level comes from :func:`hinf_search`: its levels are decided by
    the candidate of :func:`synth_hinf` alone, the level it returns by
    :func:`norms.norm_below` (bracketed only if that cannot decide), and
    a returned level that fails sends it to the search over
    ``decide_level``.  That level is bracketed once more at the end
    (:func:`certify_returned`), so the controller and the certificate
    are those :func:`synth_hinf` gives at the level.  The metadata adds
    the search's ``search_levels``.
    """
    _, hi, best, levels = hinf_search(P, tol_abs, tol_rel)
    best = certify_returned(hi, best)
    return hi, replace(best, metadata={**best.metadata, "search_levels": levels})
