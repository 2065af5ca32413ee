"""Nominal regret-level feasibility, optimization, and Pareto fronts.

A controller K achieves level (gamma_d, gamma_J) when, for every
nonzero finite-energy disturbance,

    J(K, d) < gamma_d^2 ||d||^2 + gamma_J^2 J(K0, d),

with K0 the optimal non-causal benchmark.  Feasibility reduces to a
unit-norm H-infinity problem on the plant weighted by the spectral
factor inverse on the disturbance channel; the three classical special
cases are gamma_J = 0 (plain H-infinity), gamma_d = 0 (competitive
ratio, solved with a small regularization as one H-infinity search on
the plant weighted by the factor at gamma_J = 1), and gamma_J = 1
(additive regret).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import RegretSynthError
from .hinf import (SynthesisResult, bisect_level, certify_returned, family_search,
                   hinf_optimize, hinf_search, synth_hinf)
from .noncausal import NoncausalController, build_phat, eval_noncausal_cost
from .norms import hinf_norm
from .plants import GeneralizedPlant, lft_lower, weight_disturbance
from .signals import random_signal, response_energy, sinusoid_signal
from .spectral import effective_gamma_d, spectral_factor_regret
from .statespace import StateSpace

KIND_HINF = "hinf"
KIND_COMPETITIVE = "competitive-ratio"
KIND_ADDITIVE = "additive-regret"
KIND_GENERAL = "general"

# sinusoidal trials of verify_regret, the rest of its trials being noise
_N_SINUSOIDS = 64
# pareto_front's rays cross the segment from (0, gamma_C) to
# (gamma_inf, 0) at these fractions of its length, evenly spaced
_GRID_SPAN = (0.001, 0.999)


@dataclass(frozen=True)
class RegretLevel:
    """A (gamma_d, gamma_J) pair; ``kind`` names its special case."""

    gamma_d: float
    gamma_J: float

    def __post_init__(self):
        if not (0 <= self.gamma_d < np.inf and 0 <= self.gamma_J < np.inf):
            raise ValueError("gamma levels must be finite and nonnegative")

    @property
    def kind(self) -> str:
        """The special case the pair falls in, tested in the order
        gamma_J = 0, gamma_d = 0, gamma_J = 1."""
        if self.gamma_J == 0:
            return KIND_HINF
        if self.gamma_d == 0:
            return KIND_COMPETITIVE
        if self.gamma_J == 1:
            return KIND_ADDITIVE
        return KIND_GENERAL

    @classmethod
    def hinf(cls, gamma: float) -> "RegretLevel":
        return cls(gamma, 0.0)

    @classmethod
    def competitive_ratio(cls, gamma: float) -> "RegretLevel":
        return cls(0.0, gamma)

    @classmethod
    def additive(cls, gamma: float) -> "RegretLevel":
        return cls(gamma, 1.0)


def regret_weighted_plant(P: GeneralizedPlant, K0: NoncausalController,
                          level: RegretLevel):
    """Weighted plant whose unit-level H-infinity problem encodes the level.

    Returns (plant, factor); the effective gamma_d regularization for
    competitive-ratio levels is recorded on the factor.
    """
    gd_eff = effective_gamma_d(level.gamma_d, level.gamma_J)
    phat = build_phat(K0, (gd_eff, level.gamma_J))
    factor = spectral_factor_regret(phat)
    return weight_disturbance(P, factor.F_inv), factor


def synth_regret(P: GeneralizedPlant, level: RegretLevel, *,
                 K0: NoncausalController) -> SynthesisResult:
    """Feasibility of a regret level: synthesize K or report infeasible.

    The pipeline is benchmark -> closed-loop -> spectral factor ->
    disturbance-weighted plant -> H-infinity synthesis at level 1.
    ``K0`` is the benchmark of ``P`` (:func:`noncausal.build_noncausal`).
    """
    Pw, factor = regret_weighted_plant(P, K0, level)
    res = synth_hinf(Pw, 1.0)
    meta = dict(res.metadata)
    meta["level"] = (level.gamma_d, level.gamma_J)
    meta["kind"] = level.kind
    if factor.gamma_d != level.gamma_d:
        meta["gamma_d_regularized"] = factor.gamma_d
    return SynthesisResult(res.controller, res.gamma, res.feasible,
                           res.achieved_norm, res.closed_loop, meta)


def _level_for(kind: str, gamma: float) -> RegretLevel:
    if kind == KIND_HINF:
        return RegretLevel.hinf(gamma)
    if kind == KIND_COMPETITIVE:
        return RegretLevel.competitive_ratio(gamma)
    if kind == KIND_ADDITIVE:
        return RegretLevel.additive(gamma)
    raise ValueError(f"optimize_special kind must be a special case, got {kind!r}")


def _traced_bisection(feasible_at, tol_abs: float, tol_rel: float):
    """:func:`bisect_level` over a per-level oracle ``feasible_at(g)``.

    Returns (lo, hi, best, search_levels), ``search_levels`` holding one
    (gamma, verdict) per level in the order tried: ``feasible`` or the
    result's ``reason``, followed by the iteration count for
    DK-iteration results, (gamma, verdict, iterations).
    """
    levels = []

    def at(g):
        res = feasible_at(g)
        verdict = ("feasible" if res.feasible else res.metadata.get("reason"),)
        if "iterations" in res.metadata:
            verdict += (res.metadata["iterations"],)
        levels.append((g, *verdict))
        return res

    lo, hi, best = bisect_level(at, tol_abs, tol_rel)
    return lo, hi, best, tuple(levels)


def optimize_special(P: GeneralizedPlant, kind: str, tol_abs: float = 1e-4,
                     tol_rel: float = 1e-4, *, K0: NoncausalController,
                     feasibility=None):
    """Bisect the scalar gamma of a special regret kind.

    Returns (gamma_upper, result_at_upper); the result's metadata holds
    the ``search_levels`` of the search.  ``K0`` is the benchmark of
    ``P``, which the H-infinity kind does not read.  ``feasibility`` is
    a per-level oracle (used by the robust designs to swap in
    DK-iteration), called at every level tried
    (:func:`_traced_bisection`).

    Without an oracle, every kind runs the rule of
    :func:`hinf.hinf_search`.  The H-infinity kind is
    :func:`hinf.hinf_optimize`.  The additive-regret level g is met when
    the plant weighted by the factor at (g, 1) has a loop of norm below
    1, so its search is :func:`hinf.family_search` over those plants,
    and its result :func:`synth_regret` at the level returned.

    The competitive ratio is one H-infinity search.
    Its level gamma is regularized to (EPS_CR gamma, gamma), so both
    costs of the factor's DAREs scale by gamma^2 and the factor is
    exactly gamma times the factor at (EPS_CR, 1).  The level is then
    met when the loop weighted by that one factor has norm below gamma,
    and :func:`hinf.hinf_optimize` on the weighted plant gives the
    ratio.  The result is that of the weighted H-infinity problem, in
    the ratio's units: ``gamma`` is the ratio, and ``achieved_norm``
    the certified norm of ``closed_loop``, below it.  Its metadata adds
    ``level`` (0, gamma), ``kind`` and ``gamma_d_regularized``.
    """
    _level_for(kind, 1.0)  # a kind that is not special raises ValueError
    if feasibility is not None:
        _, hi, best, levels = _traced_bisection(
            lambda g: feasibility(_level_for(kind, g)), tol_abs, tol_rel)
        return hi, replace(best, metadata={**best.metadata, "search_levels": levels})
    if kind == KIND_HINF:
        return hinf_optimize(P, tol_abs, tol_rel)
    if kind == KIND_COMPETITIVE:
        Pw, _ = regret_weighted_plant(P, K0, RegretLevel.competitive_ratio(1.0))
        gamma, res = hinf_optimize(Pw, tol_abs, tol_rel)
        return gamma, replace(res, metadata={
            **res.metadata, "level": (0.0, gamma), "kind": KIND_COMPETITIVE,
            "gamma_d_regularized": effective_gamma_d(0.0, gamma)})
    _, hi, _, levels = family_search(
        lambda g: (regret_weighted_plant(P, K0, RegretLevel.additive(g))[0], 1.0),
        tol_abs, tol_rel)
    res = synth_regret(P, RegretLevel.additive(hi), K0=K0)
    if not res.feasible:
        raise RegretSynthError(f"synth_regret contradicts the decided level {hi!r}")
    return hi, replace(res, metadata={**res.metadata, "search_levels": levels})


@dataclass(frozen=True)
class ParetoPoint:
    """A front point whose ``result`` certifies (gamma_d, gamma_j_upper).

    On the nominal front the point lies on the ray gamma_d = ``ray``
    gamma_J, and its :func:`hinf.hinf_search` bracketed gamma_J along
    that ray: gamma_d is ``ray`` times gamma_j_upper, and gamma_j_lower
    says that (ray gamma_j_lower, gamma_j_lower) is not met, its
    candidate failing the Riccati tests or, after a fallback, its norm
    not certified below the level.  It does not say that gamma_j_lower
    fails at gamma_d, which is larger.  On a front
    searched by an oracle, ``ray`` is None and gamma_d is fixed: the
    point is one cold search of gamma_J with its own oracle
    (:func:`_bisect_gamma_j`), and gamma_j_lower is a level the oracle
    found not met at gamma_d.  A lower end of 0 is a search that found
    no infeasible level.
    """

    gamma_d: float
    gamma_j_lower: float
    gamma_j_upper: float
    result: SynthesisResult
    ray: float | None

    @property
    def controller_order(self) -> int:
        return self.result.controller.n_x if self.result.controller else -1


@dataclass(frozen=True)
class ParetoFront:
    points: tuple
    gamma_inf: float
    metadata: dict = field(default_factory=dict)

    def gamma_j_values(self) -> np.ndarray:
        return np.array([p.gamma_j_upper for p in self.points])

    def csv_rows(self):
        """(gamma_d, gamma_J lower, gamma_J upper, weighted-loop norm,
        controller order) per point.  The norm is in unit-level terms:
        the certified norm of the weighted loop over the level it was
        certified at (1 but for the ray points), so below 1.  A robust
        point's is the certified norm of its last K-step's D-scaled
        loop (:func:`robust.dk_iteration`)."""
        return [(p.gamma_d, p.gamma_j_lower, p.gamma_j_upper,
                 p.result.achieved_norm / p.result.gamma, p.controller_order)
                for p in self.points]


def _bisect_gamma_j(feasibility, gamma_d: float, tol_abs: float,
                    tol_rel: float) -> ParetoPoint:
    """Minimal gamma_J at fixed gamma_d by one cold search over the
    oracle ``feasibility``, with the ``search_levels`` of
    :func:`_traced_bisection` on the result."""
    lo, hi, best, levels = _traced_bisection(
        lambda g: feasibility(RegretLevel(gamma_d, g)), tol_abs, tol_rel)
    return ParetoPoint(gamma_d, lo, hi, replace(best, metadata={
        **best.metadata, "search_levels": levels}), None)


def _ray_point(P: GeneralizedPlant, K0: NoncausalController, ray: float,
               tol_abs: float, tol_rel: float) -> ParetoPoint:
    """The front's point on the ray gamma_d = ``ray`` gamma_J, by one
    H-infinity search.

    Both DARE costs of the regret factor at (ray gamma, gamma) scale by
    gamma^2, so that factor is gamma times the factor at (ray, 1).  The
    level is met when the plant weighted by that one factor has a loop
    of norm below gamma, so the point is that plant's optimal norm, from
    a cold :func:`hinf.hinf_search` whose returned level is bracketed
    (:func:`hinf.certify_returned`).  The search's tolerance on gamma_J
    is ``tol_abs / max(1, ray)``, so the bracket of gamma_d = ray
    gamma_J meets ``tol_abs + tol_rel gamma_d`` too.

    The result is that of the weighted problem in gamma_J's units:
    ``gamma`` is gamma_j_upper and ``achieved_norm`` the certified norm
    of ``closed_loop``, below it.  Its metadata adds ``level``, ``kind``
    and the search's ``search_levels``.
    """
    Pw, factor = regret_weighted_plant(P, K0, RegretLevel(ray, 1.0))
    ray = factor.gamma_d  # EPS_CR for a ray below the regularization
    lo, hi, best, levels = hinf_search(Pw, tol_abs / max(1.0, ray), tol_rel)
    res = certify_returned(hi, best)
    gamma_d = ray * hi
    return ParetoPoint(gamma_d, lo, hi, replace(res, metadata={
        **res.metadata, "level": (gamma_d, hi), "kind": RegretLevel(gamma_d, hi).kind,
        "search_levels": levels}), ray)


def pareto_front(P: GeneralizedPlant, n_points: int = 20, tol_abs: float = 1e-4,
                 tol_rel: float = 1e-4, *, K0: NoncausalController,
                 gamma_inf: float | None = None, oracle_factory=None) -> ParetoFront:
    """Trade-off front: minimal gamma_J along gamma_d.

    The nominal front (no ``oracle_factory``) is solved on rays
    gamma_d = r gamma_J.  gamma_C comes from one search on the
    competitive-ratio weighted plant, and the rays go through the
    segment from (0, gamma_C) to (gamma_inf, 0) at ``n_points`` evenly
    spaced fractions of ``_GRID_SPAN``, in increasing slope.  Each point
    is one regret factor and one cold H-infinity search
    (:func:`_ray_point`).

    With an ``oracle_factory`` (DK-iteration levels, which have no ray
    structure), the points keep the nominal ray front's gamma_d, so that
    the two fronts sit at equal gamma_d.  Each is one cold search of
    gamma_J at its fixed gamma_d with its own oracle from
    ``oracle_factory()`` (:func:`_bisect_gamma_j`), so the points do not
    depend on one another.  Every point is certified at its own
    (gamma_d, gamma_J upper).  ``K0`` is the benchmark of ``P``, and
    ``gamma_inf``, when given, its optimal H-infinity level.
    ``n_points < 1`` raises ValueError.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if gamma_inf is None:
        _, gamma_inf, _, _ = hinf_search(P, tol_abs, tol_rel)
    Pc, _ = regret_weighted_plant(P, K0, RegretLevel.competitive_ratio(1.0))
    _, gamma_c, _, _ = hinf_search(Pc, tol_abs, tol_rel)
    # gamma_c > 0 is a level the search found feasible.  For every causal
    # controller sup_d J(K, d) / |d|^2 >= gamma_inf^2, and J0(d) <=
    # gamma_inf^2 |d|^2, so gamma_inf / gamma_c <= sqrt(EPS_CR^2 +
    # gamma_inf^2) up to the tolerances: the slopes stay finite, also
    # with both levels at the search's floor (d never reaching e)
    fractions = np.linspace(_GRID_SPAN[0], _GRID_SPAN[1], n_points)
    rays = [float(f / (1.0 - f) * (gamma_inf / gamma_c)) for f in fractions]
    points = tuple(_ray_point(P, K0, r, tol_abs, tol_rel) for r in rays)
    if oracle_factory is not None:
        points = tuple(_bisect_gamma_j(oracle_factory(), p.gamma_d, tol_abs, tol_rel)
                       for p in points)
    return ParetoFront(points, gamma_inf,
                       metadata={"tol_abs": tol_abs, "tol_rel": tol_rel,
                                 "grid_span": _GRID_SPAN, "gamma_c": gamma_c})


@dataclass(frozen=True)
class RegretVerification:
    passed: bool
    worst_margin: float  # max of J(K,d) - bound over trials; negative = pass
    n_trials: int
    worst_kind: str = ""


def verify_regret(K: StateSpace, P: GeneralizedPlant, level: RegretLevel,
                  n_trials: int = 200, seed: int = 0, *,
                  K0: NoncausalController) -> RegretVerification:
    """Empirical check of the regret bound over sampled disturbances.

    Mixes white noise, low-pass noise, and windowed sinusoids in random
    real directions at angles within 20% of the peak angle of the
    unweighted closed loop ``lft_lower(P, K)``, the angle of its
    :func:`norms.hinf_norm` bracket.  J(K0, d) is the cost of ``K0``,
    the benchmark of ``P``.  d = 0 is excluded by construction.  The
    trials are costed as one sequence by ``response_energy`` and
    ``eval_noncausal_cost``, whose state recursions run in lock step.
    ``n_trials < 1`` raises ValueError: a check with no trials would
    pass whatever the controller.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    cl = lft_lower(P, K)
    if not cl.is_schur():
        return RegretVerification(False, np.inf, 0, "unstable")
    theta_peak = hinf_norm(cl, return_bracket=True).theta
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_kind = ""
    trials = []
    n_noise = max(n_trials - _N_SINUSOIDS, 0)
    for k in range(n_noise):
        kind = "white" if k % 2 == 0 else "lowpass"
        trials.append((kind, random_signal(rng, P.n_d, int(rng.integers(8, 60)),
                                           kind=kind)))
    for k in range(min(_N_SINUSOIDS, n_trials)):
        theta = theta_peak * (0.8 + 0.4 * rng.random())
        direction = rng.standard_normal(P.n_d)
        trials.append(("sinusoid",
                       sinusoid_signal(P.n_d, theta, int(rng.integers(32, 128)),
                                       direction=direction)))
    live = [(kind, d) for kind, d in trials if d.norm_sq() != 0.0]
    ds = [d for _, d in live]
    for (kind, d), j_k, j_0 in zip(live, response_energy(cl, ds).tolist(),
                                    eval_noncausal_cost(K0, ds).tolist()):
        bound = level.gamma_d**2 * d.norm_sq() + level.gamma_J**2 * j_0
        margin = j_k - bound
        if margin > worst:
            worst, worst_kind = margin, kind
    return RegretVerification(worst < 0.0, worst, len(trials), worst_kind)
