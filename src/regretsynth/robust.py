"""Robust regret: scaled small-gain tests, D-scalings, DK-iteration.

A controller achieves the robust level iff the augmented open loop
``M = F_L(P, K) diag(I_nw, F^{-1})`` is stable and a positive scalar
frequency scaling D(theta) renders

    sigma_max( diag(D I_nv, I) M(e^{j theta}) diag(D^{-1} I_nw, I) ) < 1

at every angle.  The per-angle value is convex in log D, so a search on
its slope finds the minimum; the pointwise optimum is fitted by a
stable minimum-phase SISO system and alternated with H-infinity
synthesis (DK-iteration, a sufficient procedure only).  A K-step that
meets level 1 on the plant scaled by that system certifies the level:
the scaled closed loop's bracketed norm is below 1 at every angle, not
only on a grid (Packard and Doyle 1993).  The grid values feed the
D-fit and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegretSynthError, UnstableSystem
from .hinf import (SynthesisResult, certify_returned, decide_level, fell_back,
                   hinf_search)
from .noncausal import NoncausalController, build_noncausal, eval_noncausal_cost
from .norms import FrequencyGrid, hinf_norm
from .plants import GeneralizedPlant, UncertainPlant, lft_lower, lft_upper
from .regret import ParetoFront, RegretLevel, pareto_front, regret_weighted_plant
from .signals import Signal, response_energy
from .spectral import SpectralFactor
from .statespace import StateSpace, append, invert, series, static_gain

# bound on the D-scale zeros/poles: keeps D and D^{-1} safely stable
_RHO_MAX = 1.0 - 1e-5
# weight of the D-fit's ridge rows _RIDGE * params, which keep the
# Levenberg-Marquardt Jacobian of full column rank
_RIDGE = 1e-6
# robust_perf_test: base grid (immutable), and the number of its worst
# angles refined
_RP_GRID = FrequencyGrid.default(256)
_RP_N_REFINE = 5
# matrix_rp_test: half-width in decades of the initial bracket of log10 D,
# step cap of the slope search, the step and bracket width (decades) and
# the relative slope that end it, and the relative change one decade away
# that makes D free
_RP_LOG_SPAN = 12.0
_RP_MAX_STEPS = 100
_RP_STEP_TOL = 1e-7
_RP_SLOPE_TOL = 1e-13
_RP_FLAT_TOL = 1e-9
# highest order of the fitted D-scale, and the worst log10 error that
# ends its order escalation
_D_MAX_ORDER = 4
_D_FIT_TOL = 0.1
# DK-iteration: iteration cap, K-step bisection tolerances, and the stall
# rule (no peak drop of _DK_STALL_TOL over _DK_STALL_ITERS iterations)
_DK_MAX_ITER = 12
_DK_TOL_ABS = 1e-3
_DK_TOL_REL = 1e-3
_DK_STALL_TOL = 1e-3
_DK_STALL_ITERS = 3
# sample_uncertainty shrinks each sample by a factor uniform on this range
_DELTA_SCALE_RANGE = (0.2, 1.0)
# state order of the uncertainties that sample_uncertainty draws for
# verify_robust_regret and the command line's sampled time responses
DELTA_ORDER = 5


@dataclass(frozen=True)
class AugmentedOpenLoop:
    """Open uncertainty loop with the disturbance channel F^{-1}-weighted."""

    M: StateSpace
    n_w: int
    n_v: int


def build_M(P: UncertainPlant, K: StateSpace, F: SpectralFactor) -> AugmentedOpenLoop:
    """Close the controller, leave (w, v) open, weight d by F^{-1}."""
    cl = lft_lower(P.as_generalized(), K)  # (w, d) -> (v, e)
    W_in = append(static_gain(np.eye(P.n_w), cl.sample_time), F.F_inv)
    M = series(W_in, cl)
    return AugmentedOpenLoop(M, P.n_w, P.n_v)


def _scaled(M0: np.ndarray, n_v: int, n_w: int, d: np.ndarray) -> np.ndarray:
    """diag(d I_nv, I) M0 diag(I_nw / d, I) for each matrix of a stack M0
    of shape (..., m, n), with one scaling of ``d`` per matrix."""
    r = np.ones(M0.shape[:-1])
    c = np.ones(M0.shape[:-2] + M0.shape[-1:])
    r[..., :n_v] = d[..., None]
    c[..., :n_w] = 1.0 / d[..., None]
    return M0 * (r[..., :, None] * c[..., None, :])


def _scaled_sigma(M0: np.ndarray, n_v: int, n_w: int, d) -> np.ndarray:
    """sigma_max(diag(d I_nv, I) M0 diag(I_nw / d, I)) for each matrix of
    a stack M0 of shape (..., m, n), with one scaling d per matrix."""
    M0 = np.asarray(M0)
    d = np.broadcast_to(np.asarray(d, dtype=float), M0.shape[:-2])
    if M0.shape[-2] == 0 or M0.shape[-1] == 0:
        return np.zeros(M0.shape[:-2])
    return np.linalg.svd(_scaled(M0, n_v, n_w, d), compute_uv=False)[..., 0]


def _sigma_and_slope(M0: np.ndarray, n_v: int, n_w: int, t: np.ndarray):
    """f(t), the largest singular value of a stack (k, m, n) scaled by
    d = 10^t, and its slope in t.

    With the top singular triplet (sigma, u, v) of the scaled matrix the
    slope is ln(10) sigma (||u[:n_v]||^2 - ||v[:n_w]||^2); at a kink (a
    repeated top singular value) it is a one-sided slope.
    """
    U, sv, Vh = np.linalg.svd(_scaled(M0, n_v, n_w, 10.0 ** t),
                              full_matrices=False)
    sigma = sv[:, 0]
    u_v = np.sum(np.abs(U[:, :n_v, 0]) ** 2, axis=1)
    v_w = np.sum(np.abs(Vh[:, 0, :n_w]) ** 2, axis=1)
    return sigma, np.log(10.0) * sigma * (u_v - v_w)


def matrix_rp_test(M0: np.ndarray, n_v: int, n_w: int):
    """Minimize the scaled maximum singular value over scalar D > 0.

    ``M0`` is a stack (k, m, n) of matrices.  Returns (passed, d_opt,
    value), arrays of length k.  ``value`` is the smallest scaled value
    evaluated, so the scaling d_opt attains it and ``passed`` (value <
    1) is sound.

    The scaled value is convex in t = log10 D (Sezginer and Overton
    1990), and the top singular triplet that gives it gives its slope
    too.  Each matrix runs a secant search on the slope inside a bracket
    that starts as [-12, 12] (``_RP_LOG_SPAN``) and shrinks to the side of each
    point where the slope changes sign.  The search starts where the
    two off-diagonal blocks balance in Frobenius norm and moves half a
    decade downhill; after that it takes the secant step through the
    previous point when that lands strictly inside the bracket, and the
    bracket's midpoint otherwise, which also settles a kink.  A matrix
    stops when its step or its bracket is below ``_RP_STEP_TOL`` decades or its
    slope is below 1e-13 of its value.  The k searches of a stack run in
    lock step, one stacked SVD per step over the matrices still
    searching.

    A matrix whose off-diagonal blocks vanish takes D = 1 without a
    search.  Where the value does not depend on D, d_opt is NaN: when
    one off-diagonal block vanishes, or when the value one decade to
    each side of the optimum is within 1e-9 (relative) of it.
    """
    M = np.asarray(M0)
    k = M.shape[0]
    has_up = np.any(M[:, :n_v, n_w:], axis=(1, 2))    # scaled by d
    has_down = np.any(M[:, n_v:, :n_w], axis=(1, 2))  # scaled by 1/d
    coupled = has_up | has_down
    d_opt = np.ones(k)
    val = np.empty(k)
    val[~coupled] = _scaled_sigma(M[~coupled], n_v, n_w, 1.0)
    lanes = np.flatnonzero(coupled)
    M = M[lanes]
    up = np.sum(np.abs(M[:, :n_v, n_w:]) ** 2, axis=(1, 2))
    down = np.sum(np.abs(M[:, n_v:, :n_w]) ** 2, axis=(1, 2))
    with np.errstate(divide="ignore"):
        t = np.clip(0.25 * np.log10(down / up), -_RP_LOG_SPAN, _RP_LOG_SPAN)
    a = np.full(lanes.size, -_RP_LOG_SPAN)
    b = np.full(lanes.size, _RP_LOG_SPAN)
    best = np.full(lanes.size, np.inf)
    best_t = t.copy()
    t_prev = np.empty(lanes.size)
    g_prev = np.empty(lanes.size)
    live = np.arange(lanes.size)
    for step in range(_RP_MAX_STEPS):
        if not live.size:
            break
        tl = t[live]
        s, g = _sigma_and_slope(M[live], n_v, n_w, tl)
        lower = s < best[live]
        best[live[lower]], best_t[live[lower]] = s[lower], tl[lower]
        downhill = g < 0
        a[live[downhill]] = tl[downhill]
        b[live[~downhill]] = tl[~downhill]
        al, bl = a[live], b[live]
        if step == 0:
            t_new = np.clip(tl - 0.5 * np.sign(g), al, bl)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                secant = tl - g * (tl - t_prev[live]) / (g - g_prev[live])
            t_new = np.where((al < secant) & (secant < bl), secant, 0.5 * (al + bl))
        t_prev[live], g_prev[live], t[live] = tl, g, t_new
        live = live[(np.abs(t_new - tl) >= _RP_STEP_TOL) & (bl - al >= _RP_STEP_TOL)
                    & (np.abs(g) > _RP_SLOPE_TOL * s)]
    flat = ~(has_up[lanes] & has_down[lanes])
    near = np.ones(lanes.size, dtype=bool)
    for side in (-1.0, 1.0):
        probe = _scaled_sigma(M, n_v, n_w, 10.0 ** (best_t + side))
        near &= np.abs(probe - best) <= _RP_FLAT_TOL * best
    d_opt[lanes] = np.where(flat | near, np.nan, 10.0 ** best_t)
    val[lanes] = best
    return val < 1.0, d_opt, val


@dataclass(frozen=True)
class RobustPerfReport:
    """The scaled grid test of :func:`robust_perf_test`: each angle's
    ``(theta, d_opt, value)`` and the largest value."""

    peak: float
    pointwise: tuple            # (theta, d_opt, value) triples

    def pointwise_scalings(self):
        return [(th, d) for th, d, _ in self.pointwise]


def robust_perf_test(M: AugmentedOpenLoop) -> RobustPerfReport:
    """The frequency-wise scaled test on a grid, the D-step's data.

    :func:`matrix_rp_test` runs on the 256 angles of ``_RP_GRID``, and
    again on the refined grid near its ``_RP_N_REFINE`` worst angles.
    The peak holds only on those angles, so it certifies nothing:
    :func:`dk_iteration` reads it to fit the next D-scale and to pick
    its best controller when it fails.  M11 needs no test of its own:
    D is scalar and commutes with it, so its norm is at most that of
    any D-scaled loop.
    """
    if not M.M.is_schur():
        raise UnstableSystem("robust performance test requires stable M")
    grid = _RP_GRID

    def run(thetas):
        _, d_opt, val = matrix_rp_test(M.M.freqresp(thetas), M.n_v, M.n_w)
        return [(float(th), float(d), float(v))
                for th, d, v in zip(thetas, d_opt, val)]

    pts = run(grid.thetas)
    worst = sorted(pts, key=lambda t: -t[2])[:_RP_N_REFINE]
    fine = grid.refined_near([t[0] for t in worst])
    extra_thetas = np.setdiff1d(fine.thetas, grid.thetas)
    pts += run(extra_thetas)
    pts.sort(key=lambda t: t[0])
    return RobustPerfReport(max(t[2] for t in pts), tuple(pts))


@dataclass(frozen=True)
class DScaling:
    """The rational min-phase fit of pointwise optimal scalings."""

    system: StateSpace
    order: int
    fit_error: float  # max |log10| deviation on the grid


def _first_order_cascade(gain_log: float, zeros: np.ndarray, poles: np.ndarray,
                         sample_time) -> StateSpace:
    """g * prod (z - a_k) / (z - b_k) as a minimum-phase state space."""
    sys = static_gain([[10.0 ** gain_log]], sample_time)
    for a, b in zip(zeros, poles):
        sec = StateSpace([[b]], [[1.0]], [[b - a]], [[1.0]], sample_time)
        sys = series(sys, sec)
    return sys


def _dscale_roots(x):
    """Zeros/poles of the D-scale fit from unconstrained parameters."""
    return _RHO_MAX * np.tanh(x)


class _SectionMemo:
    """What one start of the D-fit keeps: the constants of its order, and
    tanh of the root parameters and the section terms q at the last point
    where it evaluated its residual or Jacobian.

    A root r = rho tanh(x) contributes ``q = |e^{j theta} - r|^2``, taken
    as ``(1 - r)^2 + 4 r sin^2(theta / 2)``, which does not cancel near
    theta = 0 and |r| = 1 as ``1 - 2 r cos(theta) + r^2`` does.  ``s2``
    holds sin^2(theta / 2) of the samples.  Levenberg-Marquardt asks for
    the Jacobian at the point it has just evaluated and accepted, so the
    Jacobian takes q from here and costs no logarithm.
    """

    def __init__(self, s2, k):
        self.s2 = s2
        self.signs = np.repeat([1.0, -1.0], k)  # zeros, then poles
        m, n_par = s2.size, 2 * k + 1
        # the rows of the Jacobian that do not depend on the point: the
        # gain's 1 on the samples and the ridge block
        self.jac_fixed = np.zeros((n_par, m + n_par))
        self.jac_fixed[0, :m] = 1.0
        self.jac_fixed[:, m:] = _RIDGE * np.eye(n_par)
        self.key = None

    def at(self, params):
        """(tanh of the root parameters, q with one row per root)."""
        key = params.tobytes()
        if key != self.key:
            t = np.tanh(params[1:])
            r = _RHO_MAX * t
            self.key, self.t = key, t
            self.q = ((1.0 - r) ** 2)[:, None] + (4.0 * r)[:, None] * self.s2
        return self.t, self.q


def _logmag_residual(params, memo, target):
    """Fit residual at params = [gain_log, k zero parameters, k pole
    parameters]: the log10 magnitude misfit on the samples, then the
    ridge rows ``_RIDGE * params``."""
    _, q = memo.at(params)
    misfit = params[0] + (0.5 * memo.signs) @ np.log10(q) - target
    return np.concatenate((misfit, _RIDGE * params))


def _logmag_jacobian(params, memo, target):
    """Exact Jacobian of :func:`_logmag_residual`, one row per parameter
    (the transpose, as ``leastsq(..., col_deriv=True)`` takes it).

    The gain row is 1 on the samples.  A zero's row is
    ``((r - 1) + 2 sin^2(theta / 2)) / (q ln 10) * rho (1 - tanh^2 x)``
    and a pole's is its negative; the ridge block is ``_RIDGE * I``.
    """
    t, q = memo.at(params)
    jac = memo.jac_fixed.copy()
    drdx = memo.signs * (_RHO_MAX / np.log(10.0)) * (1.0 - t * t)
    jac[1:, : target.size] = ((_RHO_MAX * t - 1.0)[:, None] + 2.0 * memo.s2) \
        * drdx[:, None] / q
    return jac


def fit_dscale(pointwise, sample_time=1.0) -> DScaling:
    """Fit a stable minimum-phase SISO system to pointwise magnitudes.

    Log-magnitude least squares over a cascade of real first-order
    sections with zeros/poles inside the unit circle (so the inverse is
    stable by construction).  The order escalates until the worst-case
    log10 error is within ``_D_FIT_TOL``; past the highest order the
    best fit is returned whatever its error.  Samples whose magnitude is NaN
    (angles where :func:`matrix_rp_test` leaves D free) are dropped.

    Each start is one call of MINPACK's Levenberg-Marquardt ``lmder``
    through ``scipy.optimize.leastsq``, with the tolerances and the
    evaluation budget of ``least_squares(method="lm")`` and the exact
    Jacobian of :func:`_logmag_jacobian`; a start with non-finite
    residuals, or fewer samples than parameters, is skipped.  Ridge rows
    ``_RIDGE * params`` below the samples give the Jacobian full column
    rank at every point (each zero's column is minus its pole's where
    the two coincide), so ``lmder`` never takes its rank-deficient path,
    whose result depends on memory it reads before writing.  The fit
    error counts the samples only.
    """
    import scipy.optimize  # at first use: runs that fit no D-scale skip its memory and start-up

    pts = [(float(t), float(d)) for t, d in pointwise if not np.isnan(d)]
    thetas = np.array([t for t, _ in pts])
    target = np.log10(np.array([max(d, 1e-12) for _, d in pts]))
    rng = np.random.default_rng(0)
    s2 = np.sin(0.5 * thetas) ** 2

    # order 0: best constant over the finite samples (D = 1 when none
    # constrains D); an infinite sample leaves an infinite fit error
    finite = target[np.isfinite(target)]
    g0 = float(np.mean(finite)) if finite.size else 0.0
    empty = np.zeros(0)
    sys0 = _first_order_cascade(g0, empty, empty, sample_time)
    best = DScaling(sys0, 0, float(np.max(np.abs(g0 - target), initial=0.0)))
    if best.fit_error <= _D_FIT_TOL:
        return best
    th_pos = thetas[thetas > 0]
    th_lo = max(float(np.min(th_pos)) if th_pos.size else 1e-4, 1e-6)

    def corner_starts(k, jitter):
        """Pole/zero pairs at log-spaced corner angles of the data."""
        corners = np.logspace(np.log10(th_lo), np.log10(np.pi * 0.5), k)
        radii = np.clip(np.exp(-corners), -_RHO_MAX, _RHO_MAX)
        x = np.arctanh(np.clip(radii / _RHO_MAX, -0.999999, 0.999999))
        zs = x * (1.0 + 0.2 * jitter[:k])
        ps = x * (1.0 + 0.2 * jitter[k:])
        return np.concatenate([[g0], zs, ps])

    n = target.size
    for k in range(1, _D_MAX_ORDER + 1):
        starts = [corner_starts(k, np.zeros(2 * k))]
        for _ in range(2):
            starts.append(corner_starts(k, rng.standard_normal(2 * k)))
        starts.append(np.concatenate([[g0], rng.uniform(-2, 2, 2 * k)]))
        for x0 in starts:
            memo = _SectionMemo(s2, k)
            if n < x0.size or not np.all(np.isfinite(
                    _logmag_residual(x0, memo, target))):
                continue  # lmder needs finite residuals, one sample per parameter
            x = scipy.optimize.leastsq(
                _logmag_residual, x0, args=(memo, target),
                Dfun=_logmag_jacobian, full_output=True, col_deriv=True,
                ftol=1e-8, xtol=1e-8, gtol=1e-8, maxfev=600)[0]
            err = float(np.max(np.abs(_logmag_residual(x, memo, target)[:n])))
            if err < best.fit_error:
                zs = _dscale_roots(x[1 : 1 + k])
                ps = _dscale_roots(x[1 + k :])
                best = DScaling(_first_order_cascade(
                    x[0], zs, ps, sample_time), k, err)
        if best.fit_error <= _D_FIT_TOL:
            return best
    return best


def _diag_copies(sys: StateSpace, n: int) -> StateSpace:
    out = sys
    for _ in range(n - 1):
        out = append(out, sys)
    return out


def dk_scaled_plant(P: UncertainPlant, F: SpectralFactor,
                    D: DScaling) -> GeneralizedPlant:
    """Open-loop plant for the K-step: inputs (w~, d^, u) -> (v~, e, y),
    the uncertainty channels scaled by ``D`` and the disturbance
    weighted by ``F``'s inverse."""
    ss = P.ss
    n_w, n_d, n_u = P.n_w, P.n_d, P.n_u
    n_v, n_e, n_y = P.n_v, P.n_e, P.n_y
    eye_u = static_gain(np.eye(n_u), ss.sample_time)
    eye_ey = static_gain(np.eye(n_e + n_y), ss.sample_time)
    d_in = _diag_copies(invert(D.system), n_w)
    d_out = _diag_copies(D.system, n_v)
    W_in = append(append(d_in, F.F_inv), eye_u)
    W_out = append(d_out, eye_ey)
    scaled = series(series(W_in, ss), W_out)
    return GeneralizedPlant(scaled, n_d=n_w + n_d, n_u=n_u,
                            n_e=n_v + n_e, n_y=n_y)


def dk_iteration(P: UncertainPlant, level: RegretLevel, *,
                 K0: NoncausalController,
                 initial_D: DScaling | None = None) -> SynthesisResult:
    """Alternate H-infinity synthesis (K-step) and D-scale fitting.

    ``K0`` is the benchmark of the nominal plant, which sets the regret
    weight of the level.  A K-step whose search returns level 1 ends the
    run with success: the plant scaled by a stable minimum-phase D then
    has a closed loop of certified norm below 1, which certifies the
    robust level (sufficient only).  :func:`hinf.certify_returned`
    brackets that norm; its upper end is ``achieved_norm``, and the
    metadata holds the bracket as ``norm_bracket`` and that D as
    ``final_D``.  Every other iteration
    runs :func:`robust_perf_test`, whose pointwise scalings give the next
    D.  Stalls or the iteration cap end with an infeasible result whose
    reason is ``dk_did_not_converge``, holding the controller of lowest
    scaled peak, and so does a K-step that raises a
    :class:`RegretSynthError` (no feasible level within the doubling
    limit, say, or a bracket that contradicts the level) or a
    ``LinAlgError``: its message is the trace entry's ``error``.  Any
    other exception propagates.  Every result's metadata holds
    ``iterations``, the number of trace entries.  An entry that ran the
    scaled test records ``scaled_peak``; it and a success's entry record
    the D-scale of the K-step: ``d_order`` and ``d_fit_error`` (0 and
    None without one).
    Each K-step runs :func:`hinf.hinf_search` with ``stop_below=1``: the
    search decides its levels by the Riccati tests and certifies the
    level it returns by :func:`norms.norm_below`, falling back to a
    search over :func:`hinf.decide_level` when that level fails.  It
    tries level 1 first, so a level at or below 1 is 1.  The K-step's
    entry records the search's ``(gamma, verdict)`` pairs as
    ``k_levels`` and whether it fell back as ``k_fallback``.
    Every K-step after the first starts its search at the level the
    K-step before it returned, which changes only the levels tried while
    the verdicts are monotone in gamma.
    An ``initial_D`` from a nearby level warm-starts the alternation (any
    stable minimum-phase D keeps the certificate sound).  The nominal
    check at level 1 is :func:`hinf.decide_level`, which brackets only
    what :func:`norms.norm_below` cannot decide.  Without an
    ``initial_D``, iteration 0 keeps the nominal controller, records its
    norm, bracketed by :func:`hinf.certify_returned`, and runs the scaled
    test that seeds the first D-fit; it cannot succeed.  With one,
    iteration 0 runs a K-step.
    """
    nominal_plant, F = regret_weighted_plant(P.nominal(), K0, level)
    # nominal feasibility is necessary (Delta = 0 belongs to the set)
    _, nom_res = decide_level(nominal_plant, 1.0)
    if not nom_res.feasible:
        return SynthesisResult(None, 1.0, False, np.inf, None,
                               metadata={"level": (level.gamma_d, level.gamma_J),
                                         "kind": level.kind,
                                         "reason": "nominal_infeasible",
                                         "iterations": 0})
    # without an initial D the nominal controller also seeds the
    # alternation, and its bracketed norm is iteration 0's hinf_value
    if initial_D is None:
        nom_res = certify_returned(1.0, nom_res)
    D = initial_D
    best = None
    best_val = np.inf
    trace = []
    k_start = None
    for it in range(_DK_MAX_ITER):
        d_fit = {"d_order": D.order if D else 0,
                 "d_fit_error": D.fit_error if D else None}
        if it == 0 and D is None:
            K = nom_res.controller
            gamma_val = nom_res.achieved_norm
            k_step = {}
        else:
            P_syn = dk_scaled_plant(P, F, D)
            try:
                _, gamma_val, res, k_levels = hinf_search(
                    P_syn, _DK_TOL_ABS, _DK_TOL_REL, stop_below=1.0,
                    start=k_start)
                if gamma_val <= 1.0:
                    res = certify_returned(1.0, res)
            except (RegretSynthError, np.linalg.LinAlgError) as exc:
                trace.append({"iter": it, "error": str(exc)})
                break
            K, k_start = res.controller, gamma_val
            k_step = {"k_levels": k_levels, "k_fallback": fell_back(k_levels)}
            if gamma_val <= 1.0:
                trace.append({"iter": it, "hinf_value": gamma_val, **k_step, **d_fit})
                meta = {"level": (level.gamma_d, level.gamma_J),
                        "kind": level.kind, "iterations": it + 1,
                        "dk_trace": trace, "final_D": D,
                        "norm_bracket": res.metadata["norm_bracket"]}
                if F.gamma_d != level.gamma_d:
                    meta["gamma_d_regularized"] = F.gamma_d
                return SynthesisResult(K, 1.0, True, res.achieved_norm,
                                       lft_lower(P.nominal(), K), meta)
        M = build_M(P, K, F)
        if not M.M.is_schur():
            trace.append({"iter": it, "hinf_value": gamma_val, **k_step,
                          "note": "M unstable"})
            break
        rp = robust_perf_test(M)
        trace.append({"iter": it, "hinf_value": gamma_val, **k_step,
                      "scaled_peak": rp.peak, **d_fit})
        if rp.peak < best_val:
            best_val, best = rp.peak, K
        if len(trace) > _DK_STALL_ITERS:
            recent = [t.get("scaled_peak", np.inf)
                      for t in trace[-_DK_STALL_ITERS - 1 :]]
            if min(recent[:-1]) - recent[-1] < _DK_STALL_TOL and \
                    all(np.isfinite(recent)):
                break
        # best-effort fit: an imperfect D still reshapes the K-step
        D = fit_dscale(rp.pointwise_scalings(), sample_time=P.sample_time)
    meta = {"level": (level.gamma_d, level.gamma_J), "kind": level.kind,
            "reason": "dk_did_not_converge", "iterations": len(trace),
            "dk_trace": trace, "scaled_peak": best_val}
    return SynthesisResult(best, 1.0, False, best_val, None, meta)


def dk_feasibility_oracle(P: UncertainPlant, *, K0: NoncausalController):
    """Feasibility closure for bisections, warm-starting D across levels;
    ``K0`` is the benchmark of the nominal plant."""
    state = {"D": None}

    def feasibility(level: RegretLevel) -> SynthesisResult:
        res = dk_iteration(P, level, K0=K0, initial_D=state["D"])
        if res.feasible:
            state["D"] = res.metadata.get("final_D")
        return res

    return feasibility


def robust_pareto_front(P: UncertainPlant, n_points: int = 20,
                        tol_abs: float = 1e-2, tol_rel: float = 1e-3) -> ParetoFront:
    """Pareto front with DK-iteration as the feasibility oracle.

    The uncertainty channel does not scale with gamma, so DK levels have
    no ray structure: each point bisects gamma_J at a fixed gamma_d,
    taken from the points of the nominal ray front, so robust and
    nominal points sit at equal gamma_d (:func:`regret.pareto_front`).
    Each point is one cold search with its own warm-started oracle,
    whose D follows the levels that search evaluates.
    ``n_points < 1`` raises ValueError.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    nominal = P.nominal()
    K0 = build_noncausal(nominal)
    return pareto_front(nominal, n_points, tol_abs, tol_rel, K0=K0,
                        oracle_factory=lambda: dk_feasibility_oracle(P, K0=K0))


@dataclass(frozen=True)
class UncertaintySample:
    """Stable LTI uncertainty with H-infinity norm at most one."""

    Delta: StateSpace
    seed: int
    norm: float


def sample_uncertainty(n_v: int, n_w: int, seed: int,
                       sample_time=1.0) -> UncertaintySample:
    """Random stable Delta (n_w x n_v) of ``DELTA_ORDER`` states with
    ||Delta||_inf <= 1.

    Poles are uniform in radius on [0, 0.95] with random angles (complex
    pairs), input/output maps Gaussian; the system is divided by the
    certified upper bound of its norm (:func:`hinf_norm`) and shrunk by a
    uniform factor, so its norm is at most that factor as certified, and
    ``norm`` is the factor times the upper bound of the raw system.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    left = DELTA_ORDER
    while left >= 2:
        r = rng.uniform(0.0, 0.95)
        th = rng.uniform(0.05, np.pi - 0.05)
        a, b = r * np.cos(th), r * np.sin(th)
        blocks.append(np.array([[a, b], [-b, a]]))
        left -= 2
    if left == 1:
        blocks.append(np.array([[rng.uniform(-0.95, 0.95)]]))
    A = np.zeros((DELTA_ORDER, DELTA_ORDER))
    o = 0
    for blk in blocks:
        k = blk.shape[0]
        A[o : o + k, o : o + k] = blk
        o += k
    B = rng.standard_normal((DELTA_ORDER, n_v))
    C = rng.standard_normal((n_w, DELTA_ORDER))
    D = 0.1 * rng.standard_normal((n_w, n_v))
    raw = StateSpace(A, B, C, D, sample_time)
    nrm = hinf_norm(raw)
    factor = rng.uniform(*_DELTA_SCALE_RANGE) / max(nrm, 1e-12)
    Delta = StateSpace(A, B, factor * C, factor * D, sample_time)
    return UncertaintySample(Delta, seed, float(factor * nrm))


@dataclass(frozen=True)
class RobustVerification:
    passed: bool
    n_unstable: int
    worst_margin: float
    trials: int


def verify_robust_regret(K: StateSpace, P: UncertainPlant, level: RegretLevel,
                         n_delta: int = 50, n_dist: int = 20, seed: int = 0, *,
                         K0: NoncausalController) -> RobustVerification:
    """Sampled soundness check of the robust regret definition.

    For each sampled Delta the closed loop must be stable and every
    sampled disturbance must respect J(K, d, Delta) < gamma_d^2 ||d||^2
    + gamma_J^2 J(K0, d), with ``K0`` the benchmark of the nominal
    model.  Each Delta has ``DELTA_ORDER`` states.  The disturbances of
    a sampled Delta are drawn only when its loop is stable, and
    ``response_energy`` takes them as one sequence per loop; the
    benchmark is the same for every Delta, so ``eval_noncausal_cost``
    takes the disturbances of all of them as one sequence.  Both run
    their state recursions in lock step, and a trial's result does not
    depend on the sequence it is in.
    ``n_delta < 1`` or ``n_dist < 1`` raises ValueError: a check with no
    samples would pass whatever the controller.
    """
    if n_delta < 1 or n_dist < 1:
        raise ValueError(f"n_delta and n_dist must be at least 1, "
                         f"got {n_delta} and {n_dist}")
    cl_open = lft_lower(P.as_generalized(), K)  # (w, d) -> (v, e)
    rng = np.random.default_rng(seed)
    n_unstable = 0
    dists, energies = [], []  # of the stable loops, in draw order
    for i in range(n_delta):
        ds = sample_uncertainty(P.n_v, P.n_w, seed=int(rng.integers(0, 2**31)),
                                sample_time=P.sample_time)
        cl = lft_upper(cl_open, ds.Delta, P.n_w, P.n_v)
        if not cl.is_schur():
            n_unstable += 1
            continue
        drawn = [Signal(0, rng.standard_normal((int(rng.integers(8, 50)), P.n_d)))
                 for _ in range(n_dist)]
        dists += drawn
        energies += response_energy(cl, drawn).tolist()
    worst = -np.inf
    # the benchmark does not depend on Delta: one sequence for all of them
    for d, j, j_0 in zip(dists, energies, eval_noncausal_cost(K0, dists).tolist()):
        bound = level.gamma_d**2 * d.norm_sq() + level.gamma_J**2 * j_0
        worst = max(worst, j - bound)
    return RobustVerification(n_unstable == 0 and worst < 0.0,
                              n_unstable, worst, len(dists))
