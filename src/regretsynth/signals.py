"""Finite-support representatives of two-sided l2 signals and simulation.

A :class:`Signal` stores samples on an integer window [t0, t1] and is
implicitly zero outside it.  Costs over two-sided sequences are made
computable by extending simulation windows until the truncated tail
energy is certifiably negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NonDecaying
from .statespace import StateSpace

# Default certified truncation level for window auto-extension.
TRUNC_TOL = 1e-12

# Share of the response energy that response_energy leaves to the
# Gramian form once the free response has been simulated further.
TAIL_FRACTION = 1e-3

# float64 entries (8 bytes each: 512 kB) of the padded arrays that one
# block of a lock-step trial kernel holds
TRIAL_BLOCK = 65536


@dataclass(frozen=True)
class Signal:
    """Vector-valued sequence supported on [t0, t0 + len - 1].

    The samples are read-only, so the energy ``norm_sq`` is computed
    once per instance.
    """

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

    def norm_sq(self) -> float:
        return self._norm_sq

    @cached_property
    def _norm_sq(self) -> float:
        # computed once: the samples are read-only
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
    y = xs @ G.C.T + d.samples @ G.D.T
    _, free, _ = free_response(A, x, lambda states: states @ G.C.T,
                               float(np.vdot(y, y)),
                               7 * decay_extension(rho, TRUNC_TOL, G.n_x), TRUNC_TOL)
    return Signal(d.t0, np.concatenate([y, free]))


def free_response(step: np.ndarray, x: np.ndarray, output, energy: float,
                  cap: int, tol: float):
    """States x, step x, step^2 x, ... until the state is negligible.

    The states run in chunks that double in length and end just before
    the first state with ||x|| <= tol sqrt(1 + energy so far), the
    energy starting at ``energy`` and growing by that of each state's
    output (the rows of ``output(states)``); at most ``cap`` > 0
    states.  Returns (states, outputs, the first state left out).
    """
    states, outputs = [], []
    chunk = max(4 * x.size, 8)
    while cap > 0:
        xs = np.empty((min(chunk, cap), x.size))
        for j in range(xs.shape[0]):
            xs[j] = x
            x = step @ x
        ys = output(xs)
        before = energy + np.concatenate(([0.0], np.cumsum(np.sum(ys * ys, axis=1))))
        stop = np.flatnonzero(np.sum(xs * xs, axis=1)
                              <= tol**2 * (1.0 + before[:-1]))
        if stop.size:
            i = stop[0]
            return (np.concatenate(states + [xs[:i]]),
                    np.concatenate(outputs + [ys[:i]]), xs[i])
        states.append(xs)
        outputs.append(ys)
        energy = float(before[-1])
        cap -= xs.shape[0]
        chunk *= 2
    return np.concatenate(states), np.concatenate(outputs), x


def trial_blocks(lengths, row_size: int) -> list[np.ndarray]:
    """Blocks of trials for the lock-step kernels, as arrays of indices.

    Trials are taken in increasing length (ties in their given order),
    and a block grows while its trials, each padded to the block's
    longest and counted as one sample more, hold at most TRIAL_BLOCK
    entries at ``row_size`` entries per sample.  A trial too long for
    that forms a block of its own.
    """
    lengths = np.asarray(lengths, dtype=int)
    order = np.argsort(lengths, kind="stable")
    blocks, start = [], 0
    for i in range(1, order.size + 1):
        if i == order.size or \
                (i + 1 - start) * (lengths[order[i]] + 1) * row_size > TRIAL_BLOCK:
            blocks.append(order[start:i])
            start = i
    return blocks


def lock_step_run(A: np.ndarray, states: np.ndarray, drive) -> None:
    """states[k + 1] = A states[k] + drive[k], in place; past the last
    drive, states[k + 1] = A states[k].

    ``states`` is a time-major stack of column vectors, shape (steps,
    trials, n, 1), and ``drive`` one of at most steps - 1 such steps.
    A step is one stacked ``np.matmul`` written into the next state: it
    rounds like the per-trial ``A @ x`` (``X @ A.T`` rounds otherwise),
    so a trial's states do not depend on the others.
    """
    for prev, cur, dk in zip(states[:-1], states[1:], drive):
        np.matmul(A, prev, out=cur)
        cur += dk
    for prev, cur in zip(states[len(drive) : -1], states[len(drive) + 1 :]):
        np.matmul(A, prev, out=cur)


def response_energy(G: StateSpace, d):
    """||G d||_2^2 with the post-support tail summed exactly.

    ``d`` is a :class:`Signal`, which gives a float, or a sequence of
    signals, which gives an array with one energy per signal.

    The output energy up to step k plus x[k]' Go x[k], with Go the
    observability Gramian, is the whole energy, so no window extension
    is needed even for slowly decaying systems.  Go is solved by a
    triangular recursion in the Schur coordinates of A: a Kronecker
    solve of I - A (x) A in the caller's coordinates loses the tail
    when the realization is far from normal.  The Schur form still
    inherits a backward error of order eps ||A||, large next to the
    tail when ||A|| far exceeds the spectral radius, so the free
    response is followed for up to len(d) steps past the support: the
    sum is taken at the first free state whose form is at most
    TAIL_FRACTION of the energy before it, or at the last.

    The state recursions of a sequence run in lock step, in blocks of
    :func:`trial_blocks`.  The inputs of a block are zero-padded to its
    longest, so each state runs on as its free response past its own
    support, and a time step is one stacked product (see
    :func:`lock_step_run`): it rounds like the per-signal ``A @ x``,
    which matters because in far-from-normal coordinates the recursion
    amplifies a one-ulp change (``X @ A.T`` rounds otherwise).  Outputs
    and tail forms are evaluated on each signal's own rows, in products
    whose shapes the signal alone sets, and the energies are summed in
    time order, so an energy does not depend on the sequence it is in.
    The Gramian is solved once per system
    (``G.observability_gramian``).
    """
    if isinstance(d, Signal):
        return float(_energies(G, [d])[0])
    return _energies(G, d)


def _energies(G: StateSpace, ds) -> np.ndarray:
    for d in ds:
        if d.dim != G.n_u:
            raise DimensionError(f"input has dim {d.dim}, system takes {G.n_u}")
    out = np.empty(len(ds))
    if G.n_x == 0:
        for i, d in enumerate(ds):
            out[i] = np.sum((d.samples @ G.D.T) ** 2)
        return out
    if not G.is_schur():
        raise NonDecaying("response_energy requires a stable system")
    # per padded sample: the input, its drive and two history rows
    for block in trial_blocks([len(d) for d in ds], G.n_u + 3 * G.n_x):
        out[block] = _lock_step_energies(G, [ds[i] for i in block])
    return out


def _lock_step_energies(G: StateSpace, ds) -> np.ndarray:
    """Energies of :func:`response_energy` for one block of signals.

    The block's recursion runs once, to state 2T of its longest length
    T.  Then each signal, of length L, takes one pass over its own rows:
    the outputs of its states 0..2L, the tail forms of its free states
    L..2L, and the TAIL_FRACTION rule over all of them at once.
    """
    C, D, Go = G.C, G.D, G.observability_gramian
    T = max(len(d) for d in ds)
    u = np.zeros((T, len(ds), G.n_u, 1))
    for b, d in enumerate(ds):
        u[: len(d), b, :, 0] = d.samples
    xs = np.zeros((2 * T + 1, len(ds), G.n_x, 1))
    # B d[k] as stacked matrix-vector products, like the recursion
    lock_step_run(G.A, xs, np.matmul(G.B, u))
    out = np.empty(len(ds))
    for b, d in enumerate(ds):
        L = len(d)
        states, free = xs[: 2 * L, b, :, 0], xs[L : 2 * L + 1, b, :, 0]
        y = states @ C.T
        y[:L] += d.samples @ D.T
        # the energy before free state L + i, i = 0..L, summed in time
        # order; stop at the first i whose tail form is at most
        # TAIL_FRACTION of it, or at i = L
        before = np.cumsum(np.concatenate(([0.0], (y * y).sum(axis=1))))[L:]
        tails = ((free @ Go) * free).sum(axis=1)
        stop = (tails <= TAIL_FRACTION * before).nonzero()[0]
        i = stop[0] if stop.size else L
        out[b] = before[i] + tails[i]
    return out


def random_signal(rng, dim: int, length: int, kind: str = "white") -> Signal:
    """Seeded disturbance generator used by sampling verifications; the
    signal starts at time 0."""
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
    return Signal(0, s)


def sinusoid_signal(theta: float, length: int, direction: np.ndarray) -> Signal:
    """Windowed unit-norm sinusoid at a given angle (near-worst-case
    probe) along ``direction``, starting at time 0."""
    t = np.arange(length)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    window = 0.5 * (1 - np.cos(2 * np.pi * (t + 0.5) / length))
    s = np.outer(np.cos(theta * t) * window, direction)
    sig = Signal(0, s)
    n = sig.norm()
    return Signal(0, s / n) if n > 0 else sig
