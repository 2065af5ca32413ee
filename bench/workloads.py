"""The benchmark workloads: set-up, one timed round, and output checks.

A round is a fixed list of operations; every run repeats whole rounds,
so the operations attempted per run are a multiple of the round size
and the share that fails is the same in every run.  The seed draws the
sweep disturbances and every sample of the independent checks, never
the set of operations or their sizes, so the work of a round is the
same on every seed.  ``verify_regret`` and ``verify_robust_regret`` draw
their trial lengths from their own seed, so those seeds are fixed: with
seeded lengths the verification round varied by 6% from seed to seed.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import numpy as np

import checks as ck

DATA = Path(__file__).resolve().parent / "data"

EXAMPLES = ("siso", "boeing747", "quartercar")
KINDS = ("hinf", "competitive-ratio", "additive-regret")
# bisection tolerances (tol_abs, tol_rel) of the acceptance special points
ACCEPT_TOL = {"siso": (1e-4, 1e-4), "boeing747": (1e-2, 1e-3),
              "quartercar": (1e-4, 1e-4)}
FRONT_POINTS = 8
FRONT_TOL = (1e-2, 1e-3)
# robust designs: name -> (example, kind); tolerances of robust_pareto_front
ROBUST = {"siso-hinf": ("siso", "hinf"),
          "quartercar-additive": ("quartercar", "additive-regret")}
ROBUST_TOL = (1e-2, 1e-3)
# published levels and their tolerances
PUBLISHED = {("boeing747", "hinf"): (28.47, 0.01),
             ("boeing747", "competitive-ratio"): (1.33, 0.01),
             ("boeing747", "additive-regret"): (12.27, 0.01),
             ("siso", "hinf"): (1.82, 0.02),
             ("siso", "additive-regret"): (1.63, 0.02),
             ("quartercar", "hinf"): (0.66, 0.05),
             ("quartercar", "additive-regret"): (0.43, 0.05)}
ROBUST_PUBLISHED = {"quartercar-additive": (0.78, 0.10)}
VERIFY_TRIALS = 200
SWEEP_DISTURBANCES = 100
SWEEP_LENGTHS = (8, 128)
SWEEP_LS_SUBSET = 10
ROBUST_DELTAS, ROBUST_DISTURBANCES = 50, 20
# sampled checks made apart from the program
CHECK_DISTURBANCES = 3
CHECK_DELTAS = 6


def load_levels() -> dict:
    return json.loads((DATA / "levels.json").read_text())


def level_of(rs, kind: str, gamma: float):
    return {"hinf": rs.RegretLevel.hinf,
            "competitive-ratio": rs.RegretLevel.competitive_ratio,
            "additive-regret": rs.RegretLevel.additive}[kind](gamma)


def certified_level(rs, result, gamma: float, kind: str):
    """(gamma_d, gamma_J) the result certifies, with the CR regularization."""
    if kind == "hinf":
        return gamma, 0.0
    gd, gj = result.metadata["level"]
    return rs.effective_gamma_d(gd, gj), gj


class Ops:
    """Runs the operations of a round and counts the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the benchmark keeps going and counts it
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


class Workload:
    name = ""
    # set-ups per timed batch, and the least number of batches per run
    setup_batch = 10
    setup_batches = 6
    ops_per_round = 0

    def __init__(self, rs, seed: int):
        self.rs = rs
        self.seed = seed

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def trials_per_round(self) -> int:
        """Units of work behind trials_per_s: design problems by default."""
        return self.ops_per_round

    @staticmethod
    def gamma(val) -> float:
        """The level of an optimize_special result, NaN when it failed."""
        return float("nan") if val is None else val[0]

    def examples(self, names):
        rs = self.rs
        unc = {n: rs.build_example(n) for n in names}
        nom = {n: u.nominal() for n, u in unc.items()}
        return unc, nom, {n: rs.build_noncausal(P) for n, P in nom.items()}


class NominalDesign(Workload):
    name = "nominal-design"
    ops_per_round = len(EXAMPLES) * len(KINDS) + 1

    def setup(self):
        _, nom, k0 = self.examples(EXAMPLES)
        return {"nom": nom, "k0": k0}

    def round(self, st, ops: Ops):
        rs = self.rs
        out = {}
        for name in EXAMPLES:
            for kind in KINDS:
                out[name, kind] = ops(rs.optimize_special, st["nom"][name], kind,
                                      *ACCEPT_TOL[name], K0=st["k0"][name])
        g_inf = out["boeing747", "hinf"]
        out["front"] = ops(rs.pareto_front, st["nom"]["boeing747"],
                           n_points=FRONT_POINTS, tol_abs=FRONT_TOL[0],
                           tol_rel=FRONT_TOL[1], K0=st["k0"]["boeing747"],
                           gamma_inf=g_inf[0] if g_inf else None)
        return out

    def robust_gammas(self, st, out):
        """The level of each robust design's kind over the set {Delta = 0}."""
        return {label: self.gamma(out[spec]) for label, spec in ROBUST.items()}

    @staticmethod
    def fingerprint(out):
        fp = []
        for key, val in out.items():
            if val is None:
                fp.append((key, None))
            elif key == "front":
                fp.append((key, tuple((p.gamma_d, p.gamma_j_lower, p.gamma_j_upper,
                                       p.result.achieved_norm) for p in val.points)))
            else:
                fp.append((key, val[0], val[1].feasible, val[1].achieved_norm))
        return tuple(fp)

    def check(self, st, out):
        rs = self.rs
        bad = []
        rng = self.rng(2)
        cost = {}
        designs = []  # (label, example, synthesis result, certified level)
        for (name, kind), val in ((k, v) for k, v in out.items() if k != "front"):
            if val is None:
                continue
            gamma, res = val
            designs.append((f"{name}/{kind}", name, res,
                            certified_level(rs, res, gamma, kind)))
            if (name, kind) in PUBLISHED:
                ref, tol = PUBLISHED[name, kind]
                if abs(gamma / ref - 1.0) >= tol:
                    bad.append(f"{name}/{kind}: {gamma:.5g} not within {tol:.0%} of {ref}")
        cr = out.get(("siso", "competitive-ratio"))
        if cr is not None:
            ref = ck.competitive_ratio_reference(rs, st["nom"]["siso"], rs.EPS_CR,
                                                 *ACCEPT_TOL["siso"])
            if abs(cr[0] / ref - 1.0) >= 1e-3:
                bad.append(f"siso/competitive-ratio: {cr[0]:.6g} not within 0.1% of "
                           f"the outer-factor reference {ref:.6g}")
        front = out.get("front")
        if front is not None:
            for p in front.points:
                designs.append((f"front@{p.gamma_d:.4g}", "boeing747", p.result,
                                (p.gamma_d, p.gamma_j_upper)))
            gj = front.gamma_j_values()
            slack = 2 * (FRONT_TOL[0] + FRONT_TOL[1] * gj[:-1])
            if not np.all(np.diff(gj) <= slack):
                bad.append(f"front not non-increasing: {gj}")
            g_c = out.get(("boeing747", "competitive-ratio"))
            if g_c is not None and abs(gj[0] / g_c[0] - 1.0) >= 0.03:
                bad.append(f"front low end {gj[0]:.4g} not within 3% of gamma_C {g_c[0]:.4g}")
        for label, name, res, (gd, gj) in designs:
            P = st["nom"][name]
            cl = ck.close_lower(P.ss, P.n_y, P.n_u, res.controller)
            if not cl.is_stable():
                bad.append(f"{label}: closed loop unstable")
                continue
            if not ck.hinf_below(ck.System.of(res.closed_loop), res.gamma):
                bad.append(f"{label}: certificate norm not below {res.gamma}")
            if gj == 0.0 and not ck.hinf_below(cl, gd):
                bad.append(f"{label}: closed loop norm not below {gd}")
            for d in disturbances(rng, P.n_d, CHECK_DISTURBANCES):
                if name not in cost:
                    cost[name] = ck.BenchmarkCost(P, 128)
                j_k = ck.energy(cl, d)
                bound = gd**2 * float(np.sum(d * d)) + gj**2 * cost[name].cost(d)
                if not j_k < bound * (1 + 1e-9):
                    bad.append(f"{label}: J(K,d) {j_k:.6g} >= bound {bound:.6g}")
        return bad


class RobustDK(Workload):
    name = "robust-dk"
    ops_per_round = len(ROBUST)

    def setup(self):
        unc, nom, k0 = self.examples(sorted({e for e, _ in ROBUST.values()}))
        return {"unc": unc, "nom": nom, "k0": k0}

    def round(self, st, ops: Ops):
        rs = self.rs
        out = {}
        for label, (name, kind) in ROBUST.items():
            oracle = rs.dk_feasibility_oracle(st["unc"][name], K0=st["k0"][name])
            out[label] = ops(rs.optimize_special, st["nom"][name], kind, *ROBUST_TOL,
                             K0=st["k0"][name], feasibility=oracle)
        return out

    def robust_gammas(self, st, out):
        return {label: self.gamma(out[label]) for label in ROBUST}

    @staticmethod
    def fingerprint(out):
        return tuple((k, None) if v is None else
                     (k, v[0], v[1].feasible, v[1].achieved_norm) for k, v in out.items())

    def check(self, st, out):
        rs = self.rs
        bad = []
        rng = self.rng(2)
        for label, (name, kind) in ROBUST.items():
            if out[label] is None:
                continue
            gamma, res = out[label]
            nominal, _ = rs.optimize_special(st["nom"][name], kind, *ROBUST_TOL,
                                             K0=st["k0"][name])
            if gamma < nominal - (ROBUST_TOL[0] + ROBUST_TOL[1] * nominal):
                bad.append(f"{label}: robust {gamma:.5g} below nominal {nominal:.5g}")
            if label in ROBUST_PUBLISHED:
                ref, tol = ROBUST_PUBLISHED[label]
                if abs(gamma / ref - 1.0) >= tol:
                    bad.append(f"{label}: {gamma:.5g} not within {tol:.0%} of {ref}")
            bad += robust_sample_check(rs, label, st["unc"][name], res.controller,
                                       certified_level(rs, res, gamma, kind), rng)
        return bad


def robust_sample_check(rs, label, unc, K, level, rng):
    """Stability and the regret bound under sampled Delta, ||Delta|| <= 1."""
    bad = []
    gd, gj = level
    P = unc.nominal()
    M = ck.close_lower(unc.ss, unc.n_y, unc.n_u, K)
    cost = None
    for _ in range(CHECK_DELTAS):
        cl = ck.close_upper(M, unc.n_w, unc.n_v, ck.allpass_delta(rng))
        if not cl.is_stable():
            bad.append(f"{label}: closed loop unstable under a sampled Delta")
            continue
        for d in disturbances(rng, unc.n_d, CHECK_DISTURBANCES):
            if cost is None:
                cost = ck.BenchmarkCost(P, 128)
            j_k = ck.energy(cl, d)
            bound = gd**2 * float(np.sum(d * d)) + gj**2 * cost.cost(d)
            if not j_k < bound * (1 + 1e-9):
                bad.append(f"{label}: J(K,d,Delta) {j_k:.6g} >= bound {bound:.6g}")
    return bad


def disturbances(rng, n_d: int, count: int):
    """White, low-pass and windowed-sinusoid disturbances of 8-128 samples."""
    out = []
    for k in range(count):
        length = int(rng.integers(8, 129))
        w = rng.standard_normal((length, n_d))
        if k % 3 == 1:
            for t in range(1, length):
                w[t] = 0.9 * w[t - 1] + 0.1 * w[t]
        elif k % 3 == 2:
            t = np.arange(length)
            window = np.sin(np.pi * (t + 0.5) / length) ** 2
            w = np.outer(window * np.cos(rng.uniform(0, np.pi) * t), rng.standard_normal(n_d))
        out.append(w)
    return out


class Verification(Workload):
    name = "verification"
    setup_batch = 1
    setup_batches = 3
    n_verify = len(EXAMPLES) * len(KINDS)
    ops_per_round = n_verify + SWEEP_DISTURBANCES * len(EXAMPLES) + len(ROBUST)

    def trials_per_round(self) -> int:
        return (self.n_verify * VERIFY_TRIALS + SWEEP_DISTURBANCES * len(EXAMPLES)
                + len(ROBUST) * ROBUST_DELTAS * ROBUST_DISTURBANCES)

    def setup(self):
        rs = self.rs
        unc, nom, k0 = self.examples(EXAMPLES)
        designs, gammas = {}, {}
        for name in EXAMPLES:
            for kind in KINDS:
                gamma, res = rs.optimize_special(nom[name], kind, *ACCEPT_TOL[name],
                                                 K0=k0[name])
                designs[name, kind] = (level_of(rs, kind, gamma), res.controller)
                gammas[name, kind] = gamma
        robust = {}
        for label, spec in load_levels().items():
            K = rs.io.load_controller(DATA / spec["controller"])
            robust[label] = (spec["example"], rs.RegretLevel(*spec["level"]), K)
        rng = self.rng(1)
        lengths = np.linspace(*SWEEP_LENGTHS, SWEEP_DISTURBANCES).round().astype(int)
        sweep = {n: [rs.Signal(0, rng.standard_normal((int(L), nom[n].n_d)))
                     for L in lengths] for n in EXAMPLES}
        return {"unc": unc, "nom": nom, "k0": k0, "designs": designs,
                "gammas": gammas, "robust": robust, "sweep": sweep}

    def round(self, st, ops: Ops):
        rs = self.rs
        out = {}
        for i, ((name, kind), (level, K)) in enumerate(st["designs"].items()):
            out[name, kind] = ops(rs.verify_regret, K, st["nom"][name], level,
                                  n_trials=VERIFY_TRIALS, seed=i,
                                  K0=st["k0"][name])
        for name in EXAMPLES:
            P, K0 = st["nom"][name], st["k0"][name]
            loops = [rs.lft_lower(P, K) for (n, _), (_, K) in st["designs"].items()
                     if n == name]

            def costs(d):
                return (rs.eval_noncausal_cost(K0, d),
                        [rs.signals.response_energy(cl, d) for cl in loops])

            out["sweep", name] = [ops(costs, d) for d in st["sweep"][name]]
        for j, (label, (name, level, K)) in enumerate(st["robust"].items()):
            out[label] = ops(rs.verify_robust_regret, K, st["unc"][name], level,
                             n_delta=ROBUST_DELTAS, n_dist=ROBUST_DISTURBANCES,
                             seed=100 + j, K0=st["k0"][name])
        return out

    def robust_gammas(self, st, out):
        """As on nominal-design: the nominal levels, designed in set-up."""
        return {label: st["gammas"][spec] for label, spec in ROBUST.items()}

    @staticmethod
    def fingerprint(out):
        fp = []
        for key, val in out.items():
            if key[0] == "sweep":
                fp.append((key, tuple(None if v is None else (v[0], tuple(v[1]))
                                      for v in val)))
            elif val is None:
                fp.append((key, None))
            else:
                fp.append((key, val))
        return tuple(fp)

    def check(self, st, out):
        bad = []
        for (name, kind) in st["designs"]:
            rep = out[name, kind]
            if rep is not None and not (rep.passed and rep.n_trials == VERIFY_TRIALS):
                bad.append(f"{name}/{kind}: sampled check failed "
                           f"(margin {rep.worst_margin:.3g}, {rep.n_trials} trials)")
        rng = self.rng(2)
        for name in EXAMPLES:
            sweep = out["sweep", name]
            for d, val in zip(st["sweep"][name], sweep):
                if val is None:
                    continue
                j0, jks = val
                if any(j0 > jk + 1e-9 * (1 + jk) for jk in jks):
                    bad.append(f"{name}: J(K0,d) {j0:.6g} above a causal cost {min(jks):.6g}")
            pick = rng.choice(len(sweep), SWEEP_LS_SUBSET, replace=False)
            ds = [st["sweep"][name][i].samples for i in pick]
            cost = ck.BenchmarkCost(st["nom"][name], SWEEP_LENGTHS[1])
            for i, d in zip(pick, ds):
                if sweep[i] is None:
                    continue
                j_ls = cost.cost(d)
                if abs(sweep[i][0] - j_ls) > 1e-6 * j_ls:
                    bad.append(f"{name}: eval_noncausal_cost {sweep[i][0]:.10g} vs "
                               f"least squares {j_ls:.10g}")
        for label in st["robust"]:
            rep = out[label]
            expected = ROBUST_DELTAS * ROBUST_DISTURBANCES
            if rep is not None and not (rep.passed and rep.n_unstable == 0
                                        and rep.trials == expected):
                bad.append(f"{label}: robust sampled check failed (unstable "
                           f"{rep.n_unstable}, margin {rep.worst_margin:.3g})")
        return bad


WORKLOADS = {w.name: w for w in (NominalDesign, RobustDK, Verification)}
