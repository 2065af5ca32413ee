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

from .hinf import (SynthesisResult, bisect_level, hinf_optimize, hinf_search,
                   synth_hinf)
from .noncausal import NoncausalController, build_noncausal, build_phat, eval_noncausal_cost
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
# pareto_front's gamma_d grid, as fractions of the H-infinity optimum
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


def synth_regret(P: GeneralizedPlant, level: RegretLevel,
                 K0: NoncausalController | None = None,
                 verify_trials: int = 0, seed: int = 0) -> SynthesisResult:
    """Feasibility of a regret level: synthesize K or report infeasible.

    The pipeline is benchmark -> closed-loop -> spectral factor ->
    disturbance-weighted plant -> H-infinity synthesis at level 1.
    """
    if K0 is None:
        K0 = build_noncausal(P)
    Pw, factor = regret_weighted_plant(P, K0, level)
    res = synth_hinf(Pw, 1.0)
    meta = dict(res.metadata)
    meta["level"] = (level.gamma_d, level.gamma_J)
    meta["kind"] = level.kind
    if factor.gamma_d != level.gamma_d:
        meta["gamma_d_regularized"] = factor.gamma_d
    out = SynthesisResult(res.controller, res.gamma, res.feasible,
                          res.achieved_norm, res.closed_loop, meta)
    if out.feasible and verify_trials > 0:
        rep = verify_regret(out.controller, P, level, n_trials=verify_trials,
                            seed=seed, K0=K0)
        meta["verify_margin"] = rep.worst_margin
        meta["verified"] = rep.passed
    return out


def _level_for(kind: str, gamma: float) -> RegretLevel:
    if kind == KIND_HINF:
        return RegretLevel.hinf(gamma)
    if kind == KIND_COMPETITIVE:
        return RegretLevel.competitive_ratio(gamma)
    if kind == KIND_ADDITIVE:
        return RegretLevel.additive(gamma)
    raise ValueError(f"optimize_special kind must be a special case, got {kind!r}")


class _Implied:
    """The verdict on a level that a point at a smaller gamma_d already
    certified: feasible, with no oracle called."""

    feasible = True


_IMPLIED = _Implied()


def _traced_bisection(feasible_at, tol_abs: float, tol_rel: float,
                      implied_from: float = np.inf):
    """:func:`bisect_level` over ``feasible_at``, with the result at the
    upper end carrying ``search_levels``: one (gamma, verdict) per level
    in the order tried, the verdict being ``feasible`` or the result's
    ``reason``, followed by the iteration count for DK-iteration
    results.

    Levels at or above ``implied_from`` are answered feasible without
    calling ``feasible_at`` and are not recorded.  An upper end known
    only that way is evaluated (and recorded) last, so the result at it
    may be infeasible.
    """
    levels = []

    def decide(g):
        res = feasible_at(g)
        entry = (g, "feasible" if res.feasible else res.metadata.get("reason"))
        if "iterations" in res.metadata:
            entry += (res.metadata["iterations"],)
        levels.append(entry)
        return res

    lo, hi, best = bisect_level(
        lambda g: _IMPLIED if g >= implied_from else decide(g), tol_abs, tol_rel)
    if best is _IMPLIED:
        best = decide(hi)
    return lo, hi, replace(best, metadata={**best.metadata,
                                           "search_levels": tuple(levels)})


def optimize_special(P: GeneralizedPlant, kind: str, tol_abs: float = 1e-4,
                     tol_rel: float = 1e-4, K0: NoncausalController | None = None,
                     feasibility=None):
    """Bisect the scalar gamma of a special regret kind.

    Returns (gamma_upper, result_at_upper); the result's metadata holds
    the ``search_levels`` of the search.  ``feasibility`` overrides the
    per-level oracle (used by the robust designs to swap in
    DK-iteration).

    Without an oracle, the competitive ratio is one H-infinity search.
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
    if kind == KIND_HINF and feasibility is None:
        return hinf_optimize(P, tol_abs, tol_rel)
    if K0 is None:
        K0 = build_noncausal(P)
    if kind == KIND_COMPETITIVE and feasibility is None:
        Pw, _ = regret_weighted_plant(P, K0, RegretLevel.competitive_ratio(1.0))
        gamma, res = hinf_optimize(Pw, tol_abs, tol_rel)
        return gamma, replace(res, metadata={
            **res.metadata, "level": (0.0, gamma), "kind": KIND_COMPETITIVE,
            "gamma_d_regularized": effective_gamma_d(0.0, gamma)})
    if feasibility is None:
        def feasibility(level):
            return synth_regret(P, level, K0=K0)
    _, hi, best = _traced_bisection(lambda g: feasibility(_level_for(kind, g)),
                                    tol_abs, tol_rel)
    return hi, best


@dataclass(frozen=True)
class ParetoPoint:
    gamma_d: float
    gamma_j_lower: float
    gamma_j_upper: float
    result: SynthesisResult

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
        rows = []
        for p in self.points:
            rows.append((p.gamma_d, p.gamma_j_lower, p.gamma_j_upper,
                         p.result.achieved_norm, p.controller_order))
        return rows


def _bisect_gamma_j(feasibility, gamma_d: float, tol_abs: float, tol_rel: float,
                    implied_from: float = np.inf) -> ParetoPoint:
    """Minimal gamma_J at fixed gamma_d by :func:`bisect_level`, with the
    ``search_levels`` of :func:`optimize_special` on the result.

    ``implied_from`` is the gamma_J that a point at a smaller gamma_d
    certified.  The regret bound only weakens as gamma_d or gamma_J
    grows, so every level at or above it is feasible here too, and the
    search answers so without calling ``feasibility``.  An upper end
    known only that way is synthesized at this gamma_d.  Should that
    synthesis fail (numerical verdicts that are not monotone), the
    point is searched again from cold, with ``implied_refuted`` (the
    bound, the level) in its metadata.  The result's ``implied_from``
    is the bound its search ran under (None for a cold search):
    ``search_levels`` and the cold tree's levels at or above it make up
    the whole cold tree.
    """
    def feasible_at(g):
        return feasibility(RegretLevel(gamma_d, g))

    lo, hi, best = _traced_bisection(feasible_at, tol_abs, tol_rel, implied_from)
    meta = {"implied_from": None if implied_from == np.inf else implied_from}
    if not best.feasible:
        meta = {"implied_from": None, "implied_refuted": (implied_from, hi)}
        lo, hi, best = _traced_bisection(feasible_at, tol_abs, tol_rel)
    return ParetoPoint(gamma_d, lo, hi,
                       replace(best, metadata={**best.metadata, **meta}))


def pareto_front(P: GeneralizedPlant, n_points: int = 20, tol_abs: float = 1e-4,
                 tol_rel: float = 1e-4, K0: NoncausalController | None = None,
                 gamma_inf: float | None = None, oracle_factory=None) -> ParetoFront:
    """Trade-off front: minimal gamma_J over a grid of gamma_d values.

    The grid spans ``_GRID_SPAN`` times the H-infinity optimum.  Points
    are solved in increasing gamma_d, each bisecting with its own oracle
    from ``oracle_factory()`` (nominal synthesis by default).  A
    controller certified at (gamma_d, gamma_J) also certifies every
    level with a larger gamma_d and gamma_J, so each point's search
    takes the levels at or above the previous point's upper end as
    feasible (see :func:`_bisect_gamma_j`); every point's result is
    still synthesized at its own gamma_d.
    """
    if K0 is None:
        K0 = build_noncausal(P)
    if gamma_inf is None:
        gamma_inf, _, _ = hinf_search(P, tol_abs, tol_rel)
    if oracle_factory is None:
        def oracle_factory():
            return lambda level: synth_regret(P, level, K0=K0)
    grid = np.linspace(_GRID_SPAN[0], _GRID_SPAN[1], n_points) * gamma_inf
    points = []
    implied_from = np.inf
    for gd in grid:
        point = _bisect_gamma_j(oracle_factory(), float(gd), tol_abs, tol_rel,
                                implied_from)
        points.append(point)
        implied_from = point.gamma_j_upper
    return ParetoFront(tuple(points), gamma_inf,
                       metadata={"tol_abs": tol_abs, "tol_rel": tol_rel,
                                 "grid_span": _GRID_SPAN})


@dataclass(frozen=True)
class RegretVerification:
    passed: bool
    worst_margin: float  # max of J(K,d) - bound over trials; negative = pass
    n_trials: int
    worst_kind: str = ""


def verify_regret(K: StateSpace, P: GeneralizedPlant, level: RegretLevel,
                  n_trials: int = 200, seed: int = 0,
                  K0: NoncausalController | None = None) -> RegretVerification:
    """Empirical check of the regret bound over sampled disturbances.

    Mixes white noise, low-pass noise, and windowed sinusoids in random
    real directions at angles within 20% of the peak angle of the
    unweighted closed loop ``lft_lower(P, K)``.  d = 0 is excluded by
    construction.  The trials are costed as one sequence by
    ``response_energy`` and ``eval_noncausal_cost``, whose state
    recursions run in lock step.
    """
    if K0 is None:
        K0 = build_noncausal(P)
    cl = lft_lower(P, K)
    if not cl.is_schur():
        return RegretVerification(False, np.inf, 0, "unstable")
    _, theta_peak = hinf_norm(cl, return_theta=True)
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
