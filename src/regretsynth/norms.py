"""Frequency-domain analysis: H-infinity norm, sigma curves, loop margins.

The H-infinity norm is computed on a dense adaptive frequency grid with
local peak refinement.  The initial grid mixes logarithmically and
linearly spaced angles and is seeded with the angles of the system
poles, which is where lightly damped peaks live; each local maximum is
then sharpened by golden-section search until the peak value is
resolved to a relative tolerance.

All evaluation is stacked over angles: :meth:`StateSpace.freqresp`
solves the resolvent for a block of angles at once (blocks of about
1 MB, see ``statespace.FREQRESP_BLOCK``, with a per-angle fallback for
a pole exactly on the circle) and the singular values of all angles come
from one stacked SVD.  The golden sections of the (at most 12) peaks run
in lock step, one ``freqresp`` call per step for every bracket still
open, each bracket with its own update, best-so-far and stop rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnstableSystem
from .statespace import UNIT, StateSpace

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FrequencyGrid:
    """Sorted angles in [0, pi] (radians/sample), always containing 0 and pi."""

    thetas: np.ndarray

    def __post_init__(self):
        th = np.unique(np.asarray(self.thetas, dtype=float))
        th = th[(th >= 0.0) & (th <= np.pi)]
        th = np.union1d(th, [0.0, np.pi])
        th.flags.writeable = False
        object.__setattr__(self, "thetas", th)

    @classmethod
    def default(cls, n: int = 256, theta_min: float = 1e-5) -> "FrequencyGrid":
        """Mixed log + linear grid on (0, pi] plus the endpoints {0, pi}."""
        n_log = n // 2
        n_lin = n - n_log
        log_part = np.logspace(np.log10(theta_min), np.log10(np.pi), n_log)
        lin_part = np.linspace(0.0, np.pi, n_lin)
        return cls(np.concatenate([log_part, lin_part]))

    def refined_near(self, centers, factor: int = 4) -> "FrequencyGrid":
        """Add `factor` extra points inside the grid cells around each center."""
        th = self.thetas
        extra = []
        for c in np.atleast_1d(centers):
            i = np.searchsorted(th, c)
            lo = th[max(i - 2, 0)]
            hi = th[min(i + 1, th.size - 1)]
            extra.append(np.linspace(lo, hi, 4 * factor + 2))
        return FrequencyGrid(np.concatenate([th] + extra))

    def __len__(self):
        return self.thetas.size


def _pole_angle_seeds(sys: StateSpace) -> np.ndarray:
    """Angles of poles with modulus near 1: resonant peak locations."""
    poles = sys.poles()
    if poles.size == 0:
        return np.zeros(0)
    mask = np.abs(poles) > 0.5
    seeds = np.abs(np.angle(poles[mask]))
    return np.clip(seeds, 0.0, np.pi)


def norm_grid(sys: StateSpace, n: int = 512) -> np.ndarray:
    """Evaluation grid for norm computation, seeded with pole angles."""
    base = FrequencyGrid.default(n).thetas
    seeds = _pole_angle_seeds(sys)
    if seeds.size:
        jitter = np.concatenate([seeds, seeds * 0.999, np.minimum(seeds * 1.001, np.pi)])
        base = np.union1d(base, jitter)
    return base


def sigma_max_on_grid(sys: StateSpace, thetas) -> np.ndarray:
    return np.linalg.svd(sys.freqresp(thetas), compute_uv=False)[:, 0]


def _golden_max_lockstep(f, lo, hi, rel_tol: float):
    """Golden-section maximization on k brackets [lo, hi] in lock step.

    ``f`` maps an array of points to their values.  Each step evaluates
    one new point per bracket that has not yet met its stop rule; every
    bracket follows the scalar golden-section update on its own and
    keeps its best point seen.  Returns the best points and values.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    k = a.size
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fcd = f(np.concatenate([c, d]))
    fc, fd = fcd[:k], fcd[k:]
    first = fc >= fd
    best_x, best_f = np.where(first, c, d), np.where(first, fc, fd)
    live = np.arange(k)
    for _ in range(80):
        if not live.size:
            break
        left = fc[live] >= fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - _GOLDEN * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + _GOLDEN * (b[rt] - a[rt])
        f_new = f(np.where(left, c[live], d[live]))
        fc[lt], fd[rt] = f_new[left], f_new[~left]
        at_c = fc[live] >= fd[live]
        x = np.where(at_c, c[live], d[live])
        fx = np.where(at_c, fc[live], fd[live])
        up = fx > best_f[live]
        best_x[live[up]], best_f[live[up]] = x[up], fx[up]
        width = np.maximum(np.maximum(np.abs(a[live]), np.abs(b[live])), 1e-12)
        live = live[~(b[live] - a[live] <= rel_tol * width)]
    return best_x, best_f


def hinf_norm(sys: StateSpace, tol: float = 1e-6, return_theta: bool = False):
    """Peak maximum singular value of G(e^{j theta}) over [0, pi].

    Requires a Schur-stable system.  Equals the induced l2 -> l2 gain.
    """
    if sys.n_u == 0 or sys.n_y == 0:
        return (0.0, 0.0) if return_theta else 0.0
    if sys.n_x == 0:
        val = float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
        return (val, 0.0) if return_theta else val
    if not sys.is_schur():
        raise UnstableSystem(
            f"hinf_norm requires a stable system (spectral radius "
            f"{sys.spectral_radius():.6g})"
        )
    thetas = norm_grid(sys)
    vals = sigma_max_on_grid(sys, thetas)

    # refine every local maximum of the gridded response
    peaks = []
    for i in range(thetas.size):
        left = vals[i - 1] if i > 0 else -np.inf
        right = vals[i + 1] if i < thetas.size - 1 else -np.inf
        if vals[i] >= left and vals[i] >= right:
            peaks.append(i)
    # strongest peaks first; cap the refinement work
    peaks.sort(key=lambda i: -vals[i])
    best_val = float(np.max(vals))
    best_theta = float(thetas[int(np.argmax(vals))])
    brackets = [(thetas[max(i - 1, 0)], thetas[min(i + 1, thetas.size - 1)])
                for i in peaks[:12]]
    brackets = [(lo, hi) for lo, hi in brackets if hi > lo]
    if brackets:
        lo, hi = zip(*brackets)
        xs, fxs = _golden_max_lockstep(lambda th: sigma_max_on_grid(sys, th),
                                       lo, hi, rel_tol=tol * 1e-2)
        for x, fx in zip(xs, fxs):
            if fx > best_val:
                best_val, best_theta = float(fx), float(x)
    if return_theta:
        return best_val, best_theta
    return best_val


def l2_gain_curve(sys: StateSpace, thetas) -> np.ndarray:
    """Column 2-norm ||G(e^{j theta})||_2 for single-input systems,
    maximum singular value otherwise."""
    resp = sys.freqresp(thetas)
    if sys.n_u == 1:
        return np.linalg.norm(resp[:, :, 0], axis=1)
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


@dataclass(frozen=True)
class LoopMargins:
    """Phase margin of a SISO loop at its lowest gain crossover."""

    phase_margin_deg: float | None
    crossover_rad_s: float | None
    crossover_theta: float | None

    @property
    def has_crossover(self) -> bool:
        return self.phase_margin_deg is not None


def loop_margins(L: StateSpace, n_grid: int = 4096) -> LoopMargins:
    """Phase margin and gain-crossover frequency of a SISO loop.

    The crossover is the lowest angle where |L| crosses 1; the phase
    margin is 180 deg plus the loop phase there.  Reports no crossover
    when |L| never reaches 1 on the grid.
    """
    if L.n_u != 1 or L.n_y != 1:
        raise DimensionError("loop_margins requires a SISO loop")
    thetas = np.union1d(norm_grid(L, n_grid), np.linspace(1e-7, np.pi, n_grid // 2))
    resp = L.freqresp(thetas)[:, 0, 0]
    mags = np.abs(resp)
    crossings = np.nonzero((mags[:-1] - 1.0) * (mags[1:] - 1.0) < 0)[0]
    exact = np.nonzero(mags == 1.0)[0]
    if crossings.size == 0 and exact.size == 0:
        return LoopMargins(None, None, None)
    if exact.size and (crossings.size == 0 or exact[0] <= crossings[0]):
        theta_c = float(thetas[exact[0]])
    else:
        i = crossings[0]
        lo, hi = thetas[i], thetas[i + 1]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            m = abs(L.at_z(np.exp(1j * mid))[0, 0])
            if (m - 1.0) * (mags[i] - 1.0) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14 + 1e-10 * hi:
                break
        theta_c = 0.5 * (lo + hi)
    phase = np.angle(L.at_z(np.exp(1j * theta_c))[0, 0])
    pm = np.degrees(np.pi + phase)
    # wrap into (-180, 180]
    pm = (pm + 180.0) % 360.0 - 180.0
    if L.sample_time == UNIT:
        omega = theta_c
    else:
        omega = theta_c / L.sample_time
    return LoopMargins(float(pm), float(omega), float(theta_c))
