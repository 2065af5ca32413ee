"""Stabilizing solutions of discrete-time algebraic Riccati equations.

The DARE solved here is::

    0 = X - A'XA - Q + (A'XB + S) (R + B'XB)^{-1} (A'XB + S)'

with R > 0.  The solver is the structured doubling algorithm (SDA) on
the symplectic form, preceded by the standard S-elimination
(A <- A - B R^{-1} S', Q <- Q - S R^{-1} S') and followed by one Newton
(policy-iteration) polish step.  A zero-cost problem (Q = 0, S = 0)
first goes through the stable/anti-stable dichotomy of an ordered real
Schur form of A, since SDA converges there to the non-stabilizing zero
solution.  A problem that neither route solves raises
:class:`NoStabilizingSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AssumptionViolated, DimensionError, NoStabilizingSolution
from .statespace import TOL_STAB, stein

_SYM_TOL = 1e-12
# SDA stopping rule: relative change of the iterate, and iteration cap
_SDA_TOL = 1e-13
_SDA_MAX_ITER = 200
# angles of the unit-circle rank condition, and the margin that the
# stabilizability, nonsingularity and rank conditions must exceed
_RANK_GRID = 128
_ASSUMPTION_TOL = 1e-8
# policy-iteration steps of the Newton polish
_NEWTON_STEPS = 3


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class DareProblem:
    """Data (A, B, Q, R, S) of a discrete algebraic Riccati equation."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    C_e: np.ndarray | None = None
    D_eu: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        n, m = A.shape[0], B.shape[1]
        if A.shape != (n, n) or B.shape != (n, m):
            raise DimensionError("A/B dimensions inconsistent")
        if Q.shape != (n, n) or R.shape != (m, m) or S.shape != (n, m):
            raise DimensionError("Q/R/S dimensions inconsistent")
        scale_q = max(1.0, float(np.max(np.abs(Q)))) if Q.size else 1.0
        scale_r = max(1.0, float(np.max(np.abs(R))))
        if Q.size and np.max(np.abs(Q - Q.T)) > _SYM_TOL * scale_q:
            raise DimensionError("Q must be symmetric")
        if np.max(np.abs(R - R.T)) > _SYM_TOL * scale_r:
            raise DimensionError("R must be symmetric")
        for name, arr in (("A", A), ("B", B), ("Q", _sym(Q)), ("R", _sym(R)), ("S", S)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_output_data(cls, A, B, C_e, D_eu) -> "DareProblem":
        """Build (Q, S, R) = (C'C, C'D, D'D) from error-output data."""
        C_e = np.atleast_2d(np.asarray(C_e, dtype=float))
        D_eu = np.atleast_2d(np.asarray(D_eu, dtype=float))
        return cls(A, B, C_e.T @ C_e, D_eu.T @ D_eu, C_e.T @ D_eu,
                   C_e=C_e, D_eu=D_eu)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def output_pair(self):
        """(C_e, D_eu) as given, or a factorization of [[Q, S], [S', R]]."""
        if self.C_e is not None and self.D_eu is not None:
            return self.C_e, self.D_eu
        W = np.block([[self.Q, self.S], [self.S.T, self.R]])
        evals, evecs = np.linalg.eigh(_sym(W))
        evals = np.clip(evals, 0.0, None)
        L = (evecs * np.sqrt(evals)) @ evecs.T
        return L[:, : self.n], L[:, self.n :]


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class DareAssumptionReport:
    conditions: tuple
    passed: bool

    def __getitem__(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def failure_summary(self) -> str:
        bad = [c for c in self.conditions if not c.passed]
        return "; ".join(f"{c.name} (margin {c.margin:.3g})" for c in bad)


def min_sv(M: np.ndarray) -> float:
    if M.size == 0:
        return np.inf
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def pbh_stabilizable(A: np.ndarray, B: np.ndarray) -> float:
    """Smallest sigma_min([A - lambda I, B]) over eigenvalues with
    |lambda| >= 1 - TOL_STAB.

    Returns +inf when every eigenvalue is strictly inside the circle.
    """
    n = A.shape[0]
    if n == 0:
        return np.inf
    margin = np.inf
    scale = max(1.0, float(np.max(np.abs(A))))
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - TOL_STAB:
            sv = min_sv(np.hstack([A - lam * np.eye(n), B]).astype(complex))
            margin = min(margin, sv / scale)
    return margin


def pbh_detectable(A: np.ndarray, C: np.ndarray) -> float:
    return pbh_stabilizable(A.T, C.T)


def check_dare_assumptions(p: DareProblem) -> DareAssumptionReport:
    """Check the four sufficient conditions for a stabilizing solution.

    (i) R > 0, (ii) (A, B) stabilizable, (iii) A - B R^{-1} S'
    nonsingular, (iv) [A - e^{j theta} I, B; C_e, D_eu] full column
    rank on a frequency grid of ``_RANK_GRID`` angles.  A condition
    passes with a margin above ``_ASSUMPTION_TOL``.
    """
    conds = []
    # (i) positive definiteness via Cholesky with eigenvalue margin
    try:
        np.linalg.cholesky(p.R)
        r_margin = float(np.min(np.linalg.eigvalsh(p.R)))
        conds.append(ConditionResult("R_positive_definite", True, r_margin))
    except np.linalg.LinAlgError:
        r_margin = float(np.min(np.linalg.eigvalsh(_sym(p.R))))
        conds.append(ConditionResult("R_positive_definite", False, r_margin))
    # (ii)
    stab_margin = pbh_stabilizable(p.A, p.B)
    conds.append(ConditionResult("stabilizable", stab_margin > _ASSUMPTION_TOL, stab_margin))
    # (iii)
    if conds[0].passed:
        shifted = p.A - p.B @ np.linalg.solve(p.R, p.S.T)
        m3 = min_sv(shifted) / max(1.0, float(np.max(np.abs(p.A), initial=0.0)))
        conds.append(ConditionResult("A_minus_BRinvS_nonsingular", m3 > _ASSUMPTION_TOL, m3))
    else:
        conds.append(ConditionResult("A_minus_BRinvS_nonsingular", False, 0.0,
                                     "skipped: R not positive definite"))
    # (iv) pencil full column rank on the unit circle
    C_e, D_eu = p.output_pair()
    n, n_e = p.n, C_e.shape[0]
    scale = max(1.0, float(np.max(np.abs(p.A), initial=0.0)),
                float(np.max(np.abs(C_e), initial=0.0)))
    # every angle's pencil in one stack: the constant blocks copied in,
    # then e^{j theta} subtracted on the leading diagonal
    pencils = np.empty((_RANK_GRID, n + n_e, n + p.m), dtype=complex)
    pencils[:, :n, :n] = p.A
    pencils[:, :n, n:] = p.B
    pencils[:, n:, :n] = C_e
    pencils[:, n:, n:] = D_eu
    z = np.exp(1j * np.linspace(0.0, np.pi, _RANK_GRID))
    pencils[:, range(n), range(n)] -= z[:, None]
    if pencils[0].size:
        worst = float(np.min(np.linalg.svd(pencils, compute_uv=False)[:, -1])) / scale
    else:
        worst = np.inf
    conds.append(ConditionResult("unit_circle_rank", worst > _ASSUMPTION_TOL, worst))
    return DareAssumptionReport(tuple(conds), all(c.passed for c in conds))


@dataclass(frozen=True)
class DareSolution:
    """Stabilizing solution with gain, curvature and residual certificate."""

    X: np.ndarray
    K_x: np.ndarray
    H: np.ndarray
    closed_loop_A: np.ndarray
    residual: float
    iterations: int
    method: str

    def spectral_radius(self) -> float:
        if self.closed_loop_A.size == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.closed_loop_A))))


def dare_residual(p: DareProblem, X: np.ndarray) -> float:
    H = p.R + p.B.T @ X @ p.B
    G = p.A.T @ X @ p.B + p.S
    res = X - p.A.T @ X @ p.A - p.Q + G @ np.linalg.solve(H, G.T)
    return float(np.max(np.abs(res), initial=0.0))


def _gain(p: DareProblem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    H = _sym(p.R + p.B.T @ X @ p.B)
    K = np.linalg.solve(H, (p.A.T @ X @ p.B + p.S).T)
    return K, H


def _sda(A: np.ndarray, G: np.ndarray, Q: np.ndarray):
    """Structured doubling iteration for X = A'XA + Q - A'XB(...)^{-1}B'XA
    written with G = B R^{-1} B'.  Returns (H_k, iterations) on
    convergence, or None."""
    n = A.shape[0]
    Ek, Gk, Hk = A.copy(), _sym(G), _sym(Q)
    eye = np.eye(n)
    for it in range(1, _SDA_MAX_ITER + 1):
        try:
            W = np.linalg.inv(eye + Gk @ Hk)
        except np.linalg.LinAlgError:
            return None
        EW = Ek @ W
        H_next = _sym(Hk + Ek.T @ Hk @ W @ Ek)
        G_next = _sym(Gk + EW @ Gk @ Ek.T)
        E_next = EW @ Ek
        diff = np.max(np.abs(H_next - Hk)) / (1.0 + np.max(np.abs(Hk)))
        Ek, Gk, Hk = E_next, G_next, H_next
        if not np.all(np.isfinite(Hk)):
            return None
        if diff < _SDA_TOL:
            return Hk, it
    return None


def _solve_dare_zero_q(p: DareProblem):
    """Stabilizing solution when Q = 0 and S = 0.

    The solution vanishes on the stable invariant subspace of A.  With
    the real Schur form A = Z T Z' ordered so that the stable
    eigenvalues lead, and Z_a the trailing (anti-stable) columns of Z,
    X = Z_a W^{-1} Z_a' where W solves the Stein equation
    W = F W F' + F G F' in F = T22^{-1}, G = B_a R^{-1} B_a' and
    B_a = Z_a' B.  Returns X or None.
    """
    T, Z, ns = scipy.linalg.schur(p.A, output="real", sort="iuc")
    n = p.n
    if ns == n:
        return np.zeros((n, n))
    Z_a = Z[:, ns:]
    B_a = Z_a.T @ p.B
    try:
        F = np.linalg.inv(T[ns:, ns:])
    except np.linalg.LinAlgError:
        return None
    G = B_a @ np.linalg.solve(p.R, B_a.T)
    try:
        W = scipy.linalg.solve_discrete_lyapunov(F, _sym(F @ G @ F.T))
    except (ValueError, np.linalg.LinAlgError):
        return None
    W = _sym(W)
    w_eigs = np.linalg.eigvalsh(W)
    if w_eigs[0] <= 1e-13 * max(1.0, w_eigs[-1]):
        return None  # anti-stable modes not reachable through B
    return _sym(Z_a @ np.linalg.solve(W, Z_a.T))


def _newton_polish(p: DareProblem, X: np.ndarray) -> np.ndarray:
    """Policy-iteration refinement: Stein solves at the current gain.

    The Stein equations are solved in the Schur coordinates of the
    closed loop, which keeps the refinement accurate when the closed
    loop is far from normal.
    """
    best = X
    best_res = dare_residual(p, X)
    for _ in range(_NEWTON_STEPS):
        K, _ = _gain(p, X)
        A_c = p.A - p.B @ K
        if np.max(np.abs(np.linalg.eigvals(A_c))) >= 1.0:
            break
        W = _sym(p.Q - p.S @ K - K.T @ p.S.T + K.T @ p.R @ K)
        X = _sym(stein(A_c.T, W))
        res = dare_residual(p, X)
        if res < best_res:
            best, best_res = X, res
        else:
            break
    return best


def solve_dare(p: DareProblem, check_assumptions: bool = False) -> DareSolution:
    """Stabilizing DARE solution via SDA, tried after the Q = 0 dichotomy
    when the cost is zero; raises NoStabilizingSolution when neither is
    accepted."""
    if check_assumptions:
        report = check_dare_assumptions(p)
        if not report.passed:
            raise AssumptionViolated(
                f"DARE assumptions failed: {report.failure_summary()}", report
            )
    if p.n == 0:
        return DareSolution(np.zeros((0, 0)), np.zeros((p.m, 0)), p.R.copy(),
                            np.zeros((0, 0)), 0.0, 0, "empty")
    # eliminate the cross term: same X solves the shifted problem
    Rinv_St = np.linalg.solve(p.R, p.S.T)
    A_s = p.A - p.B @ Rinv_St
    Q_s = _sym(p.Q - p.S @ Rinv_St)
    G = _sym(p.B @ np.linalg.solve(p.R, p.B.T))

    def _accept(X):
        """Quality gates; returns the solution tuple or None."""
        if not np.all(np.isfinite(X)):
            return None
        X = _sym(X)
        K, H = _gain(p, X)
        A_c = p.A - p.B @ K
        rho = float(np.max(np.abs(np.linalg.eigvals(A_c)))) if p.n else 0.0
        res = dare_residual(p, X)
        x_scale = 1.0 + float(np.max(np.abs(X)))
        eig_min = float(np.min(np.linalg.eigvalsh(X)))
        # Tolerate the roundoff image of an exactly singular solution
        # (stiff regularized problems hit this).
        if rho < 1.0 and res <= 1e-7 * x_scale and eig_min >= -1e-6 * x_scale:
            return X, K, H, A_c, res
        return None

    accepted = None
    method = "sda"
    iterations = 0
    if np.max(np.abs(p.Q)) == 0.0 and np.max(np.abs(p.S)) == 0.0:
        # SDA latches onto the non-stabilizing zero solution here; use
        # the dichotomy construction instead.
        X = _solve_dare_zero_q(p)
        if X is not None:
            accepted = _accept(_newton_polish(p, X))
        method = "zero_q_dichotomy"
    if accepted is None:
        method = "sda"
        out = _sda(A_s, G, Q_s)
        if out is not None:
            X, iterations = out
            accepted = _accept(_newton_polish(p, X))
    if accepted is None:
        raise NoStabilizingSolution("no solver produced a stabilizing solution")
    X, K, H, A_c, res = accepted
    return DareSolution(X, K, _sym(H), A_c, res, iterations, method)
