"""Spectral factorization of the benchmark closed-loop cost.

The two-DARE construction of a square factor F of P~P: a primal DARE
gives the whitening gain, a dual DARE re-expresses the anti-causal part,
and the factor::

    F = (A - Ky' Kx,  B - Ky',  W^{-1/2} Kx,  W^{-1/2})

is stable and causal with a stable causal inverse whose poles are the
primal closed-loop eigenvalues.

The factor is built for the benchmark closed loop in a well-scaled
realization rather than in the v-coordinates of ``build_phat``, where
the primal solution gamma_J^2 [[X, I], [I, X^{-1}]] + diag(0, V) grows
with cond(X).  With X = L L' (Cholesky) and v = L w it reads
gamma_J^2 [L; I] [L', I] + diag(0, V_w), no inverse of X is formed, and
each diagonal block is put in an orthogonal real-Schur basis.

``spectral_factor_regret`` uses the structure of that solution: the
primal gain vanishes on the x-block, so the x-block is unobservable in
the factor, which is therefore the two-DARE factor of the n_x-state
w-block alone.  Every factor is returned in orthogonal real-Schur
coordinates and carries its own frequency-identity error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AssumptionViolated,
    GammaDZero,
    SingularX,
    SpectralFactorInaccurate,
    StabilizabilityFailure,
)
from .noncausal import NoncausalClosedLoop
from .riccati import DareProblem, pbh_stabilizable, solve_dare
from .statespace import FREQRESP_BLOCK, StateSpace, invert, schur_realization

# Competitive-ratio regularization: gamma_d = 0 is a singular problem,
# replaced by gamma_d_eff = EPS_CR * gamma_J (slightly stronger bound).
EPS_CR = 1e-4

# Largest relative deviation of F~F from P~P on the check grid that a
# returned factor may show.
FACTOR_IDENTITY_TOL = 1e-6

# Angles of that check grid (read-only).
CHECK_THETAS = np.linspace(0.0, np.pi, 64)
CHECK_THETAS.flags.writeable = False


def effective_gamma_d(gamma_d: float, gamma_J: float) -> float:
    return max(float(gamma_d), EPS_CR * float(gamma_J))


def _sym(M):
    return 0.5 * (M + M.T)


def _inv_sqrt(M: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(_sym(M))
    if np.min(evals) <= 0:
        raise AssumptionViolated(f"matrix not positive definite (min eig {np.min(evals):.3g})")
    return (evecs / np.sqrt(evals)) @ evecs.T


@dataclass(frozen=True)
class SpectralFactor:
    """Square stable factor F with exact state-space inverse.

    ``diagnostics`` holds ``freq_identity_error``, the factor's own
    frequency-identity error, and ``cond_X``, the condition number of
    the benchmark Riccati solution X."""

    F: StateSpace
    F_inv: StateSpace
    gamma_d: float
    gamma_J: float
    diagnostics: dict


def _factor_from_dares(prob: DareProblem, sample_time):
    """Two-DARE spectral factor of the Popov function of ``prob``.

    Returns F in orthogonal real-Schur coordinates.
    """
    n = prob.n
    if n == 0:
        evals, evecs = np.linalg.eigh(prob.R)
        if np.min(evals) <= 0:
            raise AssumptionViolated("D'D must be positive definite")
        D_F = (evecs * np.sqrt(evals)) @ evecs.T
        m = prob.m
        return StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0)),
                          D_F, sample_time)
    A, B = prob.A, prob.B
    sol_x = solve_dare(prob)
    Hhat, Kx = sol_x.H, sol_x.K_x
    # dual DARE: (A, B, Q, R, S) <- (A', Kx', 0, H^{-1}, 0)
    Hinv = np.linalg.inv(Hhat)
    prob_y = DareProblem(A.T, Kx.T, np.zeros((n, n)), _sym(Hinv),
                         np.zeros((n, Kx.shape[0])))
    Yhat = solve_dare(prob_y).X
    What = _sym(Hinv + Kx @ Yhat @ Kx.T)
    Ky = np.linalg.solve(What, (A @ Yhat @ Kx.T).T)
    W_is = _inv_sqrt(What)
    F = StateSpace(A - Ky.T @ Kx, B - Ky.T, W_is @ Kx, W_is, sample_time)
    return schur_realization(F)


def _freq_identity_error(F: StateSpace, system_resp: np.ndarray) -> float:
    """max relative deviation of F*F from P~P on CHECK_THETAS, given the
    response of P there; one stacked product per side."""
    Fresp = F.freqresp(CHECK_THETAS)
    lhs = np.matmul(Fresp.conj().transpose(0, 2, 1), Fresp)
    rhs = np.matmul(system_resp.conj().transpose(0, 2, 1), system_resp)
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=(1, 2)))
    return float(np.max(np.max(np.abs(lhs - rhs), axis=(1, 2)) / scale))


@dataclass(frozen=True)
class _WBasis:
    """The benchmark closed loop with v = L w and a real-Schur basis per
    block: everything the regret factor needs that depends on K0 alone.

    ``A, B`` is the 2 n_x-state realization (x-block first, both
    diagonal blocks quasi-triangular) and ``C_e`` its error rows at
    gamma_J = 1; ``G_w`` is the state cost of the n_x-state w-block
    problem at gamma_J = 1 in the same basis, ``resolvent`` is
    (e^{j theta} I - A_hat)^{-1} B_hat on CHECK_THETAS, and
    ``stabilizability`` the PBH margin of the w-block.  The arrays are
    read-only.
    """

    A: np.ndarray
    B: np.ndarray
    C_e: np.ndarray
    G_w: np.ndarray
    resolvent: np.ndarray
    stabilizability: float
    cond_X: float


def _w_basis(phat: NoncausalClosedLoop) -> _WBasis:
    """The :class:`_WBasis` of the benchmark of ``phat``, computed once per
    controller and kept in ``K0.factor_setup``.

    In the v-coordinates of ``build_phat`` the primal solution is
    gamma_J^2 [[X, I], [I, X^{-1}]] + diag(0, V): its v-block carries
    X^{-1} and grows with cond(X).  With X = L L' (Cholesky) and v = L w
    it becomes gamma_J^2 [L; I] [L', I] + diag(0, V_w), and the w-block
    dynamics L^{-1} A11^{-T} L come from triangular solves.  In q = L' x
    + w the q-block is not driven by d and its cost-to-go is
    gamma_J^2 |q|^2, which leaves the w-block with the positive
    semidefinite state cost gamma_J^2 (N' N + E' E).

    ``build_phat`` forms A_hat and B_hat from K0 alone, so the resolvent
    of the first closed loop serves every level.  Filling the store is
    idempotent: two threads of a ``pareto_front`` pool may at worst
    both compute it.  A K0 whose X is not positive definite stores
    nothing, so every call raises ``SingularX`` again.
    """
    K0 = phat.K0
    setup = K0.factor_setup
    if "w_basis" in setup:
        return setup["w_basis"]
    P = K0.plant
    n = P.n_x
    try:
        L = np.linalg.cholesky(K0.X)
    except np.linalg.LinAlgError as exc:
        raise SingularX("benchmark Riccati solution X is not positive "
                        "definite") from exc

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
    NE = np.vstack([N, E]) @ U2
    arrays = (A, B, np.hstack([C11 @ U1, C2 @ U2]), _sym(NE.T @ NE),
              _check_resolvent(phat.A_hat, phat.B_hat))
    for arr in arrays:
        arr.flags.writeable = False
    setup["w_basis"] = _WBasis(*arrays, pbh_stabilizable(A[n:, n:], B[n:, :]),
                               float(np.linalg.cond(K0.X)))
    return setup["w_basis"]


def _check_resolvent(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(e^{j theta} I - A)^{-1} B on CHECK_THETAS, by the stacked solve of
    ``StateSpace.freqresp`` in its blocks, so that C X + D is that
    method's response bit for bit.  A_hat has no pole on the circle
    (A11 is Schur, A11^{-T} anti-Schur), so no angle needs its
    per-angle fallback."""
    eye = np.eye(A.shape[0])
    block = max(1, FREQRESP_BLOCK // A.shape[0]**2)
    parts = []
    for lo in range(0, CHECK_THETAS.size, block):
        resolvent = np.exp(1j * CHECK_THETAS[lo : lo + block])[:, None, None] * eye
        resolvent -= A
        parts.append(np.linalg.solve(resolvent, B[None]))
    return np.concatenate(parts)


def _closed_loop_response(phat: NoncausalClosedLoop) -> np.ndarray:
    """phat's frequency response on CHECK_THETAS, from the kept resolvent."""
    return phat.C_hat @ _w_basis(phat).resolvent + phat.D_hat


def spectral_factor_regret(phat: NoncausalClosedLoop) -> SpectralFactor:
    """State-dimension-n_x spectral factor for the regret bound.

    Requires gamma_d > 0 (competitive ratio must be regularized by the
    caller) and stabilizability of (A11^{-T}, X B_d).  In the
    coordinates of :class:`_WBasis` the primal gain of the 2 n_x
    problem vanishes on the x-block, so the x-block is unobservable in
    the factor and the factor is the two-DARE factor of the n_x-state
    w-block alone.  What depends on K0 alone (that basis, the PBH
    margin, cond(X), and the closed loop's resolvent on the check grid)
    is computed once per K0; each call forms the gamma-scaled cost and
    response, the two DAREs and the checks.  F and F_inv are returned
    in orthogonal real-Schur coordinates; a factor whose own frequency
    identity error is not within FACTOR_IDENTITY_TOL raises
    SpectralFactorInaccurate instead.
    """
    gamma_d, gamma_J = phat.gamma_d, phat.gamma_J
    if gamma_d <= 0.0:
        raise GammaDZero(
            "spectral factor needs gamma_d > 0; regularize the competitive "
            "ratio level first (effective_gamma_d)"
        )
    P = phat.K0.plant
    n = P.n_x
    basis = _w_basis(phat)
    if not basis.stabilizability > 1e-10:
        raise StabilizabilityFailure(
            f"(A11^-T, X B_d) not stabilizable (PBH margin "
            f"{basis.stabilizability:.3g})"
        )
    prob_w = DareProblem(basis.A[n:, n:], basis.B[n:, :], gamma_J**2 * basis.G_w,
                         gamma_d**2 * np.eye(P.n_d), np.zeros((n, P.n_d)))
    F = _factor_from_dares(prob_w, P.sample_time)
    F_inv = schur_realization(invert(F))
    diagnostics = {
        "freq_identity_error": _freq_identity_error(F, _closed_loop_response(phat)),
        "cond_X": basis.cond_X,
    }
    if not diagnostics["freq_identity_error"] <= FACTOR_IDENTITY_TOL:
        raise SpectralFactorInaccurate(
            f"spectral factor misses its frequency identity by "
            f"{diagnostics['freq_identity_error']:.3g} "
            f"(tolerance {FACTOR_IDENTITY_TOL:.1g})"
        )
    return SpectralFactor(F, F_inv, gamma_d, gamma_J, diagnostics)
