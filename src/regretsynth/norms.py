"""Frequency-domain analysis: H-infinity norm, sigma curves, loop margins.

The H-infinity norm comes with a certificate.  :func:`hinf_norm` runs the
level-set iteration of Boyd and Balakrishnan (1990) and Bruinsma and
Steinbuch (1990) directly on the discrete-time pencil, with no bilinear
map, and returns a bracket ``[lower, upper]``.  The lower end is sigma_max
at an angle, and the upper end is a level that sigma_max never reaches.
The upper end is the certificate, so it is the value that
``hinf_norm`` returns.

A level gamma is a singular value of G(e^{j theta}) exactly when
e^{j theta} is a generalized eigenvalue of the (x, p, u, y) pencil
``F - z E`` with

    F = [[A, 0, B, 0], [0, I, 0, 0], [C, 0, D, -I], [0, B', -gamma^2 I, D']]
    E = [[I, 0, 0, 0], [0, A', 0, C'], [0, 0, 0, 0], [0, 0, 0, 0]].

Each step tests the level ``(1 + 2 _NORM_TOL) lower``.  An eigenvalue
within ``_CIRCLE_TOL`` of the unit circle is taken as a crossing only once a
singular value at its angle is confirmed within ``_CONFIRM_TOL`` of the
level.  The lower bound then rises to sigma_max at the confirmed angles
and at their midpoints.  The iteration stops when the level has no
confirmed crossing.

Near a peak, the level just above it still has a pair of eigenvalues
close to the circle, and no midpoint rises above the level.  This is a
stall.  A bounded local search maximizes sigma_max around each confirmed
angle.  If it finds a peak above the level, the iteration goes on.  If
every such peak lies below the level, the eigenvalues are off the circle
and the level is an upper bound.  Status ``"peaks_below"`` records this.
An iteration that runs out of steps certifies nothing: it reports an
infinite upper end.

A search over levels needs only to know whether the bracket's upper
end would fall below each level, and :func:`norm_below` answers that
from a single step at the level just under it.  It shares the step
(:func:`_level_step`) with the bracket, and answers None when only the
bracket can tell.

The state coordinates are balanced by powers of two before the pencil
is formed.  On loops with D-scale poles near z = 1, the unbalanced
pencil put true crossings up to 1e-3 off the circle, and the balanced
one puts them within 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, UnstableSystem
from .statespace import UNIT, StateSpace, balance_states

# a pencil eigenvalue this close to the unit circle is a candidate crossing
_CIRCLE_TOL = 1e-4
# a candidate is confirmed when a singular value at its angle is this
# close to the level, relative to it
_CONFIRM_TOL = 1e-3
# levels tested before the iteration gives up without a certificate
_MAX_LEVELS = 30
# hinf_norm's relative bracket half-width, the one norm_below decides
_NORM_TOL = 1e-9
# the local search spans this many times an eigenvalue's distance from
# the circle on each side of its angle, and at least _SEARCH_MIN
_SEARCH_SPAN = 10.0
_SEARCH_MIN = 1e-8
# the local search zooms in this many times on 9 points per bracket
_SEARCH_ZOOMS = 4
# smallest positive angle of FrequencyGrid.default's log-spaced part
_THETA_MIN = 1e-5
# extra points that FrequencyGrid.refined_near puts per grid cell; its
# 4 _REFINE_FACTOR + 2 points also make each loop_margins sub-grid
_REFINE_FACTOR = 4
# points of norm_grid's base grid; loop_margins adds half as many
# linearly spaced ones
_MARGIN_GRID = 4096


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
    def default(cls, n: int = 256) -> "FrequencyGrid":
        """Mixed log + linear grid on (0, pi] plus the endpoints {0, pi}."""
        n_log = n // 2
        n_lin = n - n_log
        log_part = np.logspace(np.log10(_THETA_MIN), np.log10(np.pi), n_log)
        lin_part = np.linspace(0.0, np.pi, n_lin)
        return cls(np.concatenate([log_part, lin_part]))

    def refined_near(self, centers) -> "FrequencyGrid":
        """Add ``_REFINE_FACTOR`` extra points inside the grid cells around
        each center."""
        th = self.thetas
        extra = []
        for c in np.atleast_1d(centers):
            i = np.searchsorted(th, c)
            lo = th[max(i - 2, 0)]
            hi = th[min(i + 1, th.size - 1)]
            extra.append(np.linspace(lo, hi, 4 * _REFINE_FACTOR + 2))
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


def norm_grid(sys: StateSpace) -> np.ndarray:
    """Evaluation grid for loop margins, seeded with pole angles."""
    base = FrequencyGrid.default(_MARGIN_GRID).thetas
    seeds = _pole_angle_seeds(sys)
    if seeds.size:
        jitter = np.concatenate([seeds, seeds * 0.999, np.minimum(seeds * 1.001, np.pi)])
        base = np.union1d(base, jitter)
    return base


def sigma_max_on_grid(sys: StateSpace, thetas) -> np.ndarray:
    return np.linalg.svd(sys.freqresp(thetas), compute_uv=False)[:, 0]


@dataclass(frozen=True)
class NormBracket:
    """H-infinity norm bracket: sigma_max(G(e^{j theta})) = lower, and
    sigma_max stays below upper at every angle when ``certified``."""

    lower: float
    upper: float
    theta: float      # angle of the largest sigma_max found: the lower end,
                      # unless no evaluated angle exceeded the Markov bound
    iterations: int   # levels tested, one generalized eigenproblem each
    status: str       # "exact", "no_crossing", "peaks_below" or "iteration_limit"

    @property
    def certified(self) -> bool:
        return self.status != "iteration_limit"


def _circle_eigenvalues(A, B, C, D, level: float):
    """Angles in [0, pi] and distances from the circle of the eigenvalues
    of the level-set pencil within ``_CIRCLE_TOL`` of the unit circle.

    The pencil is formed for G / level at level 1: scaling p by level^2,
    y by level and the rows to match turns it into the pencil at
    ``level``, so the eigenvalues are the same."""
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    size = 2 * n + m + p
    x, q = slice(0, n), slice(n, 2 * n)
    u, y = slice(2 * n, 2 * n + m), slice(2 * n + m, size)
    ry, ru = slice(2 * n, 2 * n + p), slice(2 * n + p, size)
    F = np.zeros((size, size))
    E = np.zeros((size, size))
    F[x, x], F[x, u] = A, B
    F[q, q] = np.eye(n)
    F[ry, x], F[ry, u], F[ry, y] = C / level, D / level, -np.eye(p)
    F[ru, q], F[ru, u], F[ru, y] = B.T, -np.eye(m), D.T / level
    E[x, x] = np.eye(n)
    E[q, q], E[q, y] = A.T, C.T / level
    alpha, beta = scipy.linalg.eigvals(F, E, homogeneous_eigvals=True)
    near = (beta != 0) & (np.abs(np.abs(alpha) - np.abs(beta)) <= _CIRCLE_TOL * np.abs(beta))
    z = alpha[near] / beta[near]
    return np.abs(np.angle(z)), np.abs(np.abs(z) - 1.0)


def _local_peaks(sys: StateSpace, thetas, dists):
    """Largest sigma_max found around each angle, by a zooming search.

    The bracket around an angle spans ``_SEARCH_SPAN`` times the
    distance of its eigenvalue from the circle; overlapping brackets are
    merged.  Each zoom evaluates 9 points across every bracket at once
    and narrows each bracket to a quarter around its best point.
    Returns (angles, values), one per merged bracket.
    """
    half = _SEARCH_SPAN * dists + _SEARCH_MIN
    order = np.argsort(thetas)
    lo, hi = [], []
    for a, b in zip(thetas[order] - half[order], thetas[order] + half[order]):
        if lo and a <= hi[-1]:
            hi[-1] = max(hi[-1], b)
        else:
            lo.append(a)
            hi.append(b)
    lo, hi = np.array(lo), np.array(hi)
    best_x = np.clip(0.5 * (lo + hi), 0.0, np.pi)
    best_f = sigma_max_on_grid(sys, best_x)
    width = 0.5 * (hi - lo)
    rows = np.arange(best_x.size)
    for _ in range(_SEARCH_ZOOMS):
        grid = np.clip(best_x[:, None] + width[:, None] * np.linspace(-1.0, 1.0, 9),
                       0.0, np.pi)
        vals = sigma_max_on_grid(sys, grid.ravel()).reshape(grid.shape)
        k = np.argmax(vals, axis=1)
        up = vals[rows, k] > best_f
        best_x[up], best_f[up] = grid[rows, k][up], vals[rows, k][up]
        width = 0.25 * width
    return best_x, best_f


def _markov_bound(sys: StateSpace) -> float:
    """A lower bound on the norm from the Markov parameters D, CB, ...,
    CA^{n-1}B: each h_k is a Fourier coefficient of G, so ||h_k||_2 <=
    ||G||_inf, and ||h_k||_F / sqrt(min(n_u, n_y)) <= ||h_k||_2.  It is
    zero only when G is."""
    markov = [sys.D]
    AkB = sys.B
    for _ in range(sys.n_x):
        markov.append(sys.C @ AkB)
        AkB = sys.A @ AkB
    frob = np.sqrt(np.max([np.sum(h * h) for h in markov]))
    return float(frob / np.sqrt(min(sys.n_u, sys.n_y)))


def _level_step(sys: StateSpace, A, B, C, level: float, ends: bool = False):
    """sigma_max samples of one level-set step at ``level``.

    ``A, B, C`` are the balanced state matrices of ``sys``.  The pencil
    at ``level`` gives the candidate crossings, and a candidate counts
    once a singular value at its angle is within ``_CONFIRM_TOL`` of the
    level.  sigma_max is evaluated at the confirmed angles and at the
    midpoints between consecutive ones; with ``ends``, 0 and pi join the
    angles the midpoints are taken between.  When a crossing is
    confirmed but no value rises above the level (a stall), the local
    search adds the peak around each confirmed angle.

    Returns (angles, values), or None when no crossing is confirmed and
    ``ends`` is false.
    """
    thetas, dists = _circle_eigenvalues(A, B, C, sys.D, level)
    thetas, first = np.unique(thetas, return_index=True)
    dists = dists[first]
    sv = np.linalg.svd(sys.freqresp(thetas), compute_uv=False)
    confirmed = np.min(np.abs(sv / level - 1.0), axis=1) <= _CONFIRM_TOL
    if not (confirmed.any() or ends):
        return None
    thetas, dists = thetas[confirmed], dists[confirmed]
    cuts = np.concatenate([[0.0], thetas, [np.pi]]) if ends else thetas
    mids = 0.5 * (cuts[1:] + cuts[:-1])
    pts = np.concatenate([thetas, mids])
    vals = np.concatenate([sv[confirmed, 0], sigma_max_on_grid(sys, mids)])
    if thetas.size and vals.max() <= level:
        peaks, peak_vals = _local_peaks(sys, thetas, dists)
        pts, vals = np.concatenate([pts, peaks]), np.concatenate([vals, peak_vals])
    return pts, vals


def _static_norm(sys: StateSpace) -> float | None:
    """The norm of a system with no input, output or state, None for
    any other; raises on a system the bracket rejects."""
    if sys.n_u == 0 or sys.n_y == 0:
        return 0.0
    if sys.n_x == 0:
        return float(np.linalg.svd(sys.D, compute_uv=False)[0])
    if not sys.is_schur():
        raise UnstableSystem(
            f"hinf_norm requires a stable system (spectral radius "
            f"{sys.spectral_radius():.6g})"
        )
    return None


def _norm_bracket(sys: StateSpace) -> NormBracket:
    """Certified bracket of the H-infinity norm of a Schur-stable system.

    Level-set iteration on the discrete pencil (see the module notes):
    the upper end exceeds the lower end by the factor ``1 + 2 _NORM_TOL``
    unless the iteration gave up, in which case the upper end is infinite.
    """
    val = _static_norm(sys)
    if val is not None:
        return NormBracket(val, val, 0.0, 0, "exact")
    seeds = np.concatenate([np.linspace(0.0, np.pi, 9), _pole_angle_seeds(sys)])
    vals = sigma_max_on_grid(sys, seeds)
    k = int(np.argmax(vals))
    theta = float(seeds[k])
    # a level far below the norm makes the pencil's blocks huge, so the
    # Markov bound keeps the first level off zero where every seed angle
    # is a zero of G
    lower = max(float(vals[k]), _markov_bound(sys))
    if lower == 0.0:
        return NormBracket(0.0, 0.0, 0.0, 0, "exact")
    A, B, C = balance_states(sys.A, sys.B, sys.C)
    for it in range(1, _MAX_LEVELS + 1):
        level = (1.0 + 2.0 * _NORM_TOL) * lower
        step = _level_step(sys, A, B, C, level)
        if step is None:
            return NormBracket(lower, level, theta, it, "no_crossing")
        pts, vals = step
        k = int(np.argmax(vals))
        if vals[k] > lower:
            lower, theta = float(vals[k]), float(pts[k])
        if vals[k] <= level:
            return NormBracket(lower, level, theta, it, "peaks_below")
    return NormBracket(lower, np.inf, theta, _MAX_LEVELS, "iteration_limit")


def norm_below(sys: StateSpace, level: float) -> bool | None:
    """Whether ``hinf_norm(sys)`` is below ``level``, from one step.

    True only when the bracket's upper end would be below ``level``,
    False only when it would not, and None when only the bracket can
    tell.  The step tests the largest ``L`` with
    ``(1 + 2 _NORM_TOL) L < level``: the bracket only ever tests
    ``(1 + 2 _NORM_TOL)`` times a value that sigma_max attains, so a norm
    below ``L`` keeps every level it tests below ``level``.  sigma_max is evaluated at 0 and pi, and
    :func:`_level_step` adds the confirmed crossings of the pencil at
    ``L``, the midpoints of [0, theta_1, ..., theta_k, pi] and, on a
    stall, the local peaks.  A value at or above ``level`` answers
    False.  Values all below ``L / (1 + 2 _NORM_TOL)`` answer True: the
    bracket's stall rule takes sigma_max to peak within that factor of
    the largest value its search finds, and the decision keeps the
    same margin under ``L``.  Any other outcome, a norm within about
    the bracket's width of ``level``, answers None.

    Requires a Schur-stable system, like :func:`hinf_norm`.
    """
    val = _static_norm(sys)
    if val is not None or not level > 0:
        return bool(val is not None and val < level)
    if level == np.inf:
        return None
    scale = 1.0 + 2.0 * _NORM_TOL
    test = level / scale
    while not scale * test < level:
        test = np.nextafter(test, 0.0)
    vals = sigma_max_on_grid(sys, [0.0, np.pi])
    if vals.max() < test:
        A, B, C = balance_states(sys.A, sys.B, sys.C)
        _, step = _level_step(sys, A, B, C, test, ends=True)
        vals = np.concatenate([vals, step])
    top = vals.max()
    if top >= level:
        return False
    if scale * top < test:
        return True
    return None


def hinf_norm(sys: StateSpace, return_theta: bool = False,
              return_bracket: bool = False):
    """Certified upper bound on the peak of sigma_max(G(e^{j theta})).

    Requires a Schur-stable system; the norm is the induced l2 -> l2
    gain.  The value is the upper end of :func:`_norm_bracket`, at most
    ``1 + 2 _NORM_TOL`` (1 + 2e-9) times a value sigma_max attains.
    ``return_theta`` adds the angle of that attained value;
    ``return_bracket`` returns the :class:`NormBracket` itself.
    """
    br = _norm_bracket(sys)
    if return_bracket:
        return br
    if return_theta:
        return br.upper, br.theta
    return br.upper


@dataclass(frozen=True)
class LoopMargins:
    """Phase margin of a SISO loop at its lowest gain crossover."""

    phase_margin_deg: float | None
    crossover_rad_s: float | None
    crossover_theta: float | None

    @property
    def has_crossover(self) -> bool:
        return self.phase_margin_deg is not None


def loop_margins(L: StateSpace) -> LoopMargins:
    """Phase margin and gain-crossover frequency of a SISO loop.

    The crossover is the lowest angle where |L| crosses 1; the phase
    margin is 180 deg plus the loop phase there.  Reports no crossover
    when |L| never reaches 1 on the grid.
    """
    if L.n_u != 1 or L.n_y != 1:
        raise DimensionError("loop_margins requires a SISO loop")
    thetas = np.union1d(norm_grid(L), np.linspace(1e-7, np.pi, _MARGIN_GRID // 2))
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
        # each pass keeps the cell of the first sign change on an evenly
        # spaced sub-grid of the bracket, one freqresp call per pass
        while hi - lo >= 1e-14 + 1e-10 * hi:
            sub = np.linspace(lo, hi, 4 * _REFINE_FACTOR + 2)
            changed = (np.abs(L.freqresp(sub[1:-1])[:, 0, 0]) - 1.0) * (mags[i] - 1.0) <= 0
            k = int(np.argmax(changed)) + 1 if changed.any() else sub.size - 1
            lo, hi = sub[k - 1], sub[k]
        theta_c = 0.5 * (lo + hi)
    phase = np.angle(L.freqresp([theta_c])[0, 0, 0])
    pm = np.degrees(np.pi + phase)
    # wrap into (-180, 180]
    pm = (pm + 180.0) % 360.0 - 180.0
    if L.sample_time == UNIT:
        omega = theta_c
    else:
        omega = theta_c / L.sample_time
    return LoopMargins(float(pm), float(omega), float(theta_c))
