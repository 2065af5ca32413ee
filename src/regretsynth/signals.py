"""Finite-support representatives of two-sided l2 signals and simulation.

A :class:`Signal` stores samples on an integer window [t0, t1] and is
implicitly zero outside it.  Costs over two-sided sequences are made
computable by extending simulation windows until the truncated tail
energy is certifiably negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonDecaying
from .statespace import StateSpace

# Default certified truncation level for window auto-extension.
TRUNC_TOL = 1e-12

# Share of the response energy that response_energy leaves to the
# Gramian form once the free response has been simulated further.
TAIL_FRACTION = 1e-3

# free-response steps that response_energy simulates between two
# evaluations of the tail form
TAIL_CHUNK = 16


@dataclass(frozen=True)
class Signal:
    """Vector-valued sequence supported on [t0, t0 + len - 1]."""

    t0: int
    samples: np.ndarray  # shape (T, dim)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DimensionError("samples must be a (T, dim) array")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "t0", int(self.t0))

    @property
    def t1(self) -> int:
        return self.t0 + self.samples.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.samples.shape[0]

    def at(self, t: int) -> np.ndarray:
        if self.t0 <= t <= self.t1:
            return self.samples[t - self.t0]
        return np.zeros(self.dim)

    def norm_sq(self) -> float:
        return float(np.sum(self.samples * self.samples))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def on_window(self, t0: int, t1: int) -> np.ndarray:
        """Samples on [t0, t1] with zero padding where unsupported."""
        out = np.zeros((t1 - t0 + 1, self.dim))
        lo = max(t0, self.t0)
        hi = min(t1, self.t1)
        if hi >= lo:
            out[lo - t0 : hi - t0 + 1] = self.samples[lo - self.t0 : hi - self.t0 + 1]
        return out

    @classmethod
    def impulse(cls, dim: int, channel: int = 0, t0: int = 0) -> "Signal":
        s = np.zeros((1, dim))
        s[0, channel] = 1.0
        return cls(t0, s)


def inner(a: Signal, b: Signal) -> float:
    if a.dim != b.dim:
        raise DimensionError("inner: dimension mismatch")
    lo = max(a.t0, b.t0)
    hi = min(a.t1, b.t1)
    if hi < lo:
        return 0.0
    return float(np.sum(a.on_window(lo, hi) * b.on_window(lo, hi)))


def decay_extension(rho: float, tol: float = TRUNC_TOL, n_x: int = 1) -> int:
    """Steps after which a rho-decaying state has shrunk by the factor
    tol: ceil(log tol / log rho), with a dimensional floor."""
    rho = min(max(rho, 1e-12), 1.0 - 1e-12)
    n = int(np.ceil(np.log(tol) / np.log(rho)))
    return max(n, 4 * n_x, 8)


def simulate(G: StateSpace, d: Signal) -> Signal:
    """Response of G to a finite-support input with certified truncation.

    Runs x[t+1] = A x[t] + B d[t] from a zero state at the window start;
    requires rho(A) < 1 so the response tail decays.  The window covers
    the support of d, then the free response in chunks that double in
    length, until the terminal state satisfies
    ||x|| <= TRUNC_TOL sqrt(1 + energy so far): the samples left out are
    TRUNC_TOL times the response's size, the factor by which
    ``decay_extension`` lets the slowest mode decay.  The spectral radius
    only caps the window, at seven times ``decay_extension(rho)`` free
    steps: sized from rho alone, a slow mode that the input never drives
    would make the window millions of steps long.
    """
    if d.dim != G.n_u:
        raise DimensionError(f"input has dim {d.dim}, system takes {G.n_u}")
    if G.n_x == 0:
        return Signal(d.t0, d.samples @ G.D.T)
    rho = G.spectral_radius()
    if rho >= 1.0 - 1e-12:
        raise NonDecaying(f"forward simulation of system with rho(A) = {rho:.6g}")
    A, n_d = G.A, len(d)
    drive = np.matmul(G.B, d.samples[:, :, None])[:, :, 0]
    xs = np.empty((n_d, G.n_x))
    x = np.zeros(G.n_x)
    for k in range(n_d):
        xs[k] = x
        x = A @ x + drive[k]
    parts = [xs @ G.C.T + d.samples @ G.D.T]
    energy = float(np.vdot(parts[0], parts[0]))
    # the free response in chunks that double in length; the window
    # ends just before the first state that meets the rule
    left = 7 * decay_extension(rho, TRUNC_TOL, G.n_x)
    chunk = max(4 * G.n_x, 8)
    while left > 0:
        free = np.empty((min(chunk, left), G.n_x))
        for j in range(len(free)):
            free[j] = x
            x = A @ x
        y = free @ G.C.T
        before = energy + np.concatenate(([0.0], np.cumsum(np.sum(y * y, axis=1))))
        stop = np.flatnonzero(np.sum(free * free, axis=1)
                              <= TRUNC_TOL**2 * (1.0 + before[:-1]))
        if stop.size:
            parts.append(y[: stop[0]])
            break
        parts.append(y)
        energy = float(before[-1])
        left -= len(free)
        chunk *= 2
    return Signal(d.t0, np.concatenate(parts))


def response_energy(G: StateSpace, d: Signal) -> float:
    """||G d||_2^2 with the post-support tail summed exactly.

    Simulates over the input support; the remaining output energy is
    x' Go x with Go the observability Gramian, so no window extension
    is needed even for slowly decaying systems.  The tail is evaluated
    in the orthogonal Schur coordinates of A, where the quadratic form
    is unchanged but the Gramian comes from a triangular recursion: a
    Kronecker solve of I - A (x) A in the caller's coordinates loses
    the tail when the realization is far from normal.  The Schur form
    still inherits a backward error of order eps ||A||, large next to
    the tail when ||A|| far exceeds the spectral radius, so the free
    response is simulated further, for at most len(d) steps, until the
    form carries under TAIL_FRACTION of the energy.

    The Gramian is solved once per system (``G.schur_gramian``); a call
    costs one matrix-vector product per simulated step, and outputs and
    tail forms are evaluated as whole arrays.
    """
    if d.dim != G.n_u:
        raise DimensionError(f"input has dim {d.dim}, system takes {G.n_u}")
    if G.n_x == 0:
        return float(np.sum((d.samples @ G.D.T) ** 2))
    if not G.is_schur():
        raise NonDecaying("response_energy requires a stable system")
    A, n_d = G.A, len(d)
    # B d[k] for every k as one stack of matrix-vector products, which
    # round like the product taken step by step: in far-from-normal
    # coordinates the recursion amplifies a one-ulp change of its input
    drive = np.matmul(G.B, d.samples[:, :, None])[:, :, 0]
    xs = np.zeros((n_d + 1, G.n_x))
    x = xs[0]
    for k in range(n_d):
        x = xs[k + 1] = A @ x + drive[k]
    y = xs[:-1] @ G.C.T + d.samples @ G.D.T
    total = float(np.vdot(y, y))
    Z, Go_s = G.schur_gramian
    # free-response steps i = 0..n_d, TAIL_CHUNK at a time: stop at the
    # first i whose tail form is at most TAIL_FRACTION of the energy
    # before it, or at i = n_d
    start = 0
    while True:
        free = np.empty((min(TAIL_CHUNK, n_d + 1 - start), G.n_x))
        for j in range(free.shape[0]):
            free[j] = x
            x = A @ x
        free_s = free @ Z.conj()  # rows x' conj(Z) = (Z^H x)'
        tails = np.real(np.sum(free_s.conj() * (free_s @ Go_s.T), axis=1))
        y = free @ G.C.T
        steps = np.sum(y * y, axis=1)
        before = total + np.concatenate(([0.0], np.cumsum(steps[:-1])))
        stop = np.flatnonzero(tails <= TAIL_FRACTION * before)
        start += free.shape[0]
        if stop.size or start > n_d:
            i = stop[0] if stop.size else -1
            return float(before[i] + tails[i])
        total = float(before[-1] + steps[-1])


def random_signal(rng, dim: int, length: int, t0: int = 0, kind: str = "white") -> Signal:
    """Seeded disturbance generator used by sampling verifications."""
    w = rng.standard_normal((length, dim))
    if kind == "white":
        s = w
    elif kind == "lowpass":
        s = np.empty_like(w)
        acc = np.zeros(dim)
        for k in range(length):
            acc = 0.9 * acc + 0.1 * w[k]
            s[k] = acc
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return Signal(t0, s)


def sinusoid_signal(dim: int, theta: float, length: int, t0: int = 0,
                    direction: np.ndarray | None = None) -> Signal:
    """Windowed unit-norm sinusoid at a given angle (near-worst-case probe)."""
    t = np.arange(length)
    if direction is None:
        direction = np.ones(dim)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    window = 0.5 * (1 - np.cos(2 * np.pi * (t + 0.5) / length))
    s = np.outer(np.cos(theta * t) * window, direction)
    sig = Signal(t0, s)
    n = sig.norm()
    return Signal(t0, s / n) if n > 0 else sig
