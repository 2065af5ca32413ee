"""Discrete-time state-space systems and their algebra.

The :class:`StateSpace` type is the universal carrier for plants,
controllers, weights and spectral factors.  All systems are discrete
time; ``sample_time`` is either a finite positive number of seconds or
the token ``"unit"`` for normalized-time models, and the matrices are
finite.

A system is the recursion::

    x[t+1] = A x[t] + B u[t]
    y[t]   = C x[t] + D u[t]

with transfer function ``G(z) = C (zI - A)^{-1} B + D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrtrs

from .errors import DimensionError, NonFiniteSystem, SampleTimeError

# Schur margin: stable means spectral radius < 1 - TOL_STAB.
TOL_STAB = 1e-9

# complex entries of the stacked matrices e^{j theta} I - A that one
# block of StateSpace.freqresp solves at once (16 bytes each: 1 MB)
FREQRESP_BLOCK = 65536

UNIT = "unit"

# passes of balance_states over all states
_BALANCE_SWEEPS = 8


def _as_matrix(value) -> np.ndarray:
    return np.atleast_2d(np.asarray(value, dtype=float))


def _schur_stein(A: np.ndarray, Q: np.ndarray):
    """Solve X = A' X A + Q in the complex Schur coordinates of A.

    With A = Z T Z^H (Z unitary, T upper triangular) the solution is
    X = Z Xs Z^H where Xs = T^H Xs T + Z^H Q Z.  Column j of Xs then
    needs only columns l < j, through one lower-triangular solve, so
    the recursion keeps the accuracy of triangular substitution even
    when A is far from normal.  Returns (Z, Xs).

    Each solve calls LAPACK's ``ztrtrs`` directly, the call
    ``scipy.linalg.solve_triangular`` makes for a C-ordered matrix (its
    transpose, upper, transposed), without that wrapper's per-call
    checks: a singular column raises ``LinAlgError`` as it does there,
    and a non-finite Q raises ``ValueError`` once, before the recursion.
    """
    n = A.shape[0]
    T, Z = scipy.linalg.schur(A.astype(complex), output="complex")
    Qs = Z.conj().T @ Q @ Z
    if not np.isfinite(Qs).all():
        raise ValueError("Stein equation with a non-finite right-hand side")
    TH = T.conj().T
    eye = np.eye(n)
    Xs = np.zeros((n, n), dtype=complex)
    for j in range(n):
        rhs = Qs[:, j] + TH @ (Xs[:, :j] @ T[:j, j])
        Xs[:, j], info = ztrtrs((eye - T[j, j] * TH).T, rhs, lower=0, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}")
    return Z, Xs


def stein(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve M = A M A' + Q (A Schur stable) by a triangular recursion in
    the Schur coordinates of A'."""
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    Z, Ms = _schur_stein(A.T, Q)
    return np.real(Z @ Ms @ Z.conj().T)


def balance_states(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Diagonal state scaling by powers of two (exact in floating point)
    that equalizes the off-diagonal row and column sums of [A B; C 0],
    all states at once.

    Returns the scaled (A, B, C); the transfer function is unchanged.
    Including B and C in the sums keeps the input and output maps in
    scale with A.  The row sums of |B| and the column sums of |C| are
    formed once and rescaled by the same powers of two as B and C on
    each sweep, which gives the bits of forming them anew as long as
    every sum stays a normal float.
    """
    n = A.shape[0]
    b_sums = np.abs(B).sum(axis=1)
    c_sums = np.abs(C).sum(axis=0)
    for _ in range(_BALANCE_SWEEPS):
        off = np.abs(A)
        off.flat[:: n + 1] = 0.0
        rows = off.sum(axis=1)
        rows += b_sums
        cols = off.sum(axis=0)
        cols += c_sums
        ok = (rows > 0) & (cols > 0)
        expo = np.zeros(n)
        expo[ok] = np.minimum(np.maximum(
            np.rint(0.5 * np.log2(rows[ok] / cols[ok])), -16.0), 16.0)
        if not expo.any():
            break
        f = 2.0 ** expo
        A = A / f[:, None]
        A *= f
        B = B / f[:, None]
        C = C * f
        b_sums /= f
        c_sums *= f
    return A, B, C


@dataclass(frozen=True)
class StateSpace:
    """Immutable discrete-time LTI system (A, B, C, D, sample_time).

    A matrix with a NaN or infinite entry raises NonFiniteSystem, and a
    ``sample_time`` that is neither ``"unit"`` nor a finite positive
    number raises SampleTimeError.  The matrices are read-only, so
    quantities derived from them alone (the poles, the observability
    Gramian) are computed once per instance and kept.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    sample_time: float | str = UNIT

    def __post_init__(self):
        A = _as_matrix(self.A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        B = _as_matrix(self.B)
        if B.size == 0:
            B = B.reshape(n, max(B.shape[1] if B.ndim == 2 else 0, 0))
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
        C = _as_matrix(self.C)
        if C.size == 0:
            C = C.reshape(max(C.shape[0] if C.ndim == 2 else 0, 0), n)
        if C.shape[1] != n:
            raise DimensionError(f"C has {C.shape[1]} cols, expected {n}")
        D = _as_matrix(self.D)
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionError(
                f"D shape {D.shape} inconsistent with C rows {C.shape[0]} "
                f"and B cols {B.shape[1]}"
            )
        if self.sample_time != UNIT:
            ts = float(self.sample_time)
            if not 0.0 < ts < np.inf:
                raise SampleTimeError(f"sample_time must be 'unit' or a finite "
                                      f"positive number, got {ts!r}")
            object.__setattr__(self, "sample_time", ts)
        mats = (("A", A), ("B", B), ("C", C), ("D", D))
        # one test over all entries; the matrix is named only on failure
        if not np.isfinite(np.concatenate((A, B, C, D), axis=None)).all():
            name = next(name for name, arr in mats if not np.isfinite(arr).all())
            raise NonFiniteSystem(f"matrix {name} has a non-finite entry")
        for name, arr in mats:
            # a private copy: no caller's array can alias the matrices
            # that the cached properties are derived from
            arr = np.array(arr, order="C")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- dimensions -----------------------------------------------------
    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    # -- stability ------------------------------------------------------
    @cached_property
    def _poles(self) -> np.ndarray:
        poles = (np.linalg.eigvals(self.A) if self.n_x
                 else np.zeros(0, dtype=complex))
        poles.flags.writeable = False
        return poles

    def poles(self) -> np.ndarray:
        """Eigenvalues of A (read-only)."""
        return self._poles

    def spectral_radius(self) -> float:
        if self.n_x == 0:
            return 0.0
        return float(np.max(np.abs(self.poles())))

    def is_schur(self) -> bool:
        return self.spectral_radius() < 1.0 - TOL_STAB

    @cached_property
    def observability_gramian(self) -> np.ndarray:
        """Go = A' Go A + C' C of a stable system (read-only), solved by
        the triangular recursion of :func:`stein` in Schur coordinates."""
        Go = stein(self.A.T, self.C.T @ self.C)
        Go.flags.writeable = False
        return Go

    # -- evaluation ------------------------------------------------------
    def freqresp(self, thetas) -> np.ndarray:
        """Frequency response G(e^{j theta}) on an array of angles.

        Returns a complex array of shape (len(thetas), n_y, n_u).  The
        angles are taken in blocks of ``max(1, FREQRESP_BLOCK // n_x**2)``,
        so that the stacked matrices ``e^{j theta} I - A`` of a block
        hold about 1 MB; each block is one stacked solve
        ``(e^{j theta} I - A) X = B`` followed by ``C X + D``.  Every
        angle gets the arithmetic of a one-angle call, so the result
        does not depend on the blocking.  A block whose stacked solve
        raises (a pole exactly on the circle at one of its angles) is
        evaluated angle by angle, and an angle whose own solve is
        singular too is moved to ``z (1 + 1e-9)``, just outside the
        unit circle.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        out = np.empty((thetas.size, self.n_y, self.n_u), dtype=complex)
        if self.n_x == 0:
            out[:] = self.D
            return out
        n = self.n_x
        neg_A = -self.A
        block = max(1, FREQRESP_BLOCK // n**2)
        for lo in range(0, thetas.size, block):
            z = np.exp(1j * thetas[lo : lo + block])
            # built in place: -A in every matrix, then z on the diagonals
            # (a second block-sized temporary took about as long as the
            # solve itself)
            resolvent = np.empty((z.size, n, n), dtype=complex)
            resolvent[...] = neg_A
            resolvent.reshape(z.size, n * n)[:, :: n + 1] += z[:, None]
            try:
                # B[None]: numpy 1.x reads a 2-D B next to a 3-D stack as
                # a stack of vectors, not as one matrix for every angle
                X = np.linalg.solve(resolvent, self.B[None])
            except np.linalg.LinAlgError:
                for k, zk in enumerate(z, start=lo):
                    try:
                        Xk = np.linalg.solve(zk * np.eye(n) - self.A, self.B)
                    except np.linalg.LinAlgError:
                        Xk = np.linalg.solve(zk * (1 + 1e-9) * np.eye(n) - self.A,
                                             self.B)
                    out[k] = self.C @ Xk + self.D
                continue
            np.add(self.C @ X, self.D, out=out[lo : lo + z.size])
        return out

    # -- submatrices -----------------------------------------------------
    def subsystem(self, outputs, inputs) -> "StateSpace":
        """Keep a subset of input/output channels (state is preserved)."""
        outputs = np.atleast_1d(outputs)
        inputs = np.atleast_1d(inputs)
        return StateSpace(
            self.A,
            self.B[:, inputs],
            self.C[outputs, :],
            self.D[np.ix_(outputs, inputs)],
            self.sample_time,
        )


def static_gain(D, sample_time=UNIT) -> StateSpace:
    D = _as_matrix(D)
    n_y, n_u = D.shape
    return StateSpace(
        np.zeros((0, 0)), np.zeros((0, n_u)), np.zeros((n_y, 0)), D, sample_time
    )


def join_sample_time(a: StateSpace, b: StateSpace):
    if a.sample_time == b.sample_time:
        return a.sample_time
    raise SampleTimeError(
        f"incompatible sample times {a.sample_time!r} and {b.sample_time!r}"
    )


def series(g1: StateSpace, g2: StateSpace) -> StateSpace:
    """Cascade: output of g1 feeds g2, i.e. the map g2(g1(u))."""
    if g1.n_y != g2.n_u:
        raise DimensionError(f"series: g1 has {g1.n_y} outputs, g2 takes {g2.n_u}")
    ts = join_sample_time(g1, g2)
    n1, n = g1.n_x, g1.n_x + g2.n_x
    # [[A1, 0], [B2 C1, A2]], [B1; B2 D1], [D2 C1, C2]
    A = np.zeros((n, n))
    A[:n1, :n1] = g1.A
    A[n1:, :n1] = g2.B @ g1.C
    A[n1:, n1:] = g2.A
    B = np.empty((n, g1.n_u))
    B[:n1] = g1.B
    B[n1:] = g2.B @ g1.D
    C = np.empty((g2.n_y, n))
    C[:, :n1] = g2.D @ g1.C
    C[:, n1:] = g2.C
    return StateSpace(A, B, C, g2.D @ g1.D, ts)


def _block_diag(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    (r1, c1), (r2, c2) = M1.shape, M2.shape
    out = np.zeros((r1 + r2, c1 + c2))
    out[:r1, :c1] = M1
    out[r1:, c1:] = M2
    return out


def append(g1: StateSpace, g2: StateSpace) -> StateSpace:
    """Block-diagonal stacking diag(g1, g2) of inputs and outputs."""
    ts = join_sample_time(g1, g2)
    return StateSpace(_block_diag(g1.A, g2.A), _block_diag(g1.B, g2.B),
                      _block_diag(g1.C, g2.C), _block_diag(g1.D, g2.D), ts)


def invert(g: StateSpace) -> StateSpace:
    """Exact state-space inverse; requires square invertible D."""
    if g.n_u != g.n_y:
        raise DimensionError("invert: system must be square")
    Dinv = np.linalg.inv(g.D)
    A = g.A - g.B @ Dinv @ g.C
    B = g.B @ Dinv
    C = -Dinv @ g.C
    return StateSpace(A, B, C, Dinv, g.sample_time)


def schur_realization(g: StateSpace) -> StateSpace:
    """The same system in orthogonal coordinates where A is in real
    Schur form (upper quasi-triangular)."""
    if g.n_x == 0:
        return g
    T, Z = scipy.linalg.schur(g.A, output="real")
    return StateSpace(T, Z.T @ g.B, g.C @ Z, g.D, g.sample_time)


def zoh_discretize(Ac, Bc, Cc, Dc, Ts: float) -> StateSpace:
    """Exact zero-order-hold discretization of a continuous system.

    Uses the augmented-matrix exponential: exp([[Ac, Bc], [0, 0]] Ts)
    yields both A = exp(Ac Ts) and B = int_0^Ts exp(Ac s) ds Bc.
    """
    if not Ts > 0:
        raise SampleTimeError(f"Ts must be positive, got {Ts}")
    Ac = _as_matrix(Ac)
    Bc = _as_matrix(Bc)
    Cc = _as_matrix(Cc)
    Dc = _as_matrix(Dc)
    n = Ac.shape[0]
    m = Bc.shape[1]
    if n == 0:
        return StateSpace(Ac, Bc, Cc, Dc, Ts)
    M = np.zeros((n + m, n + m))
    M[:n, :n] = Ac * Ts
    M[:n, n:] = Bc * Ts
    eM = scipy.linalg.expm(M)
    return StateSpace(eM[:n, :n], eM[:n, n:], Cc, Dc, Ts)


def tf1_to_ss(num1, num0, den1, den0):
    """First-order SISO transfer function (num1 s + num0)/(den1 s + den0)
    as balanced continuous-time state-space matrices (Ac, Bc, Cc, Dc)."""
    if den1 == 0:
        raise DimensionError("denominator must be first order")
    b1, b0 = num1 / den1, num0 / den1
    a0 = den0 / den1
    # G(s) = b1 + r/(s + a0); balanced so |B| = |C| = sqrt(|r|)
    r = b0 - b1 * a0
    g = np.sqrt(abs(r)) if r != 0 else 0.0
    Ac = np.array([[-a0]])
    Bc = np.array([[g]])
    Cc = np.array([[np.sign(r) * g]])
    Dc = np.array([[b1]])
    return Ac, Bc, Cc, Dc
