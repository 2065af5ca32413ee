"""Command-line front end.

Verbs: synth, pareto, sim, freqresp, margins, verify, each with only the
options it reads.  Outputs are CSV for curves and JSON for scalar summaries;
every run writes metadata (tolerances, seeds, versions, timings).  Exit codes:
0 success, 2 infeasible level, 3 DK non-convergence, 4 input or usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import io as rio
from .errors import RegretSynthError
from .examples import (EXAMPLE_NAMES, build_example, example_components,
                       quartercar_response_plant, road_pulse)
from .hinf import check_tolerances
from .noncausal import build_noncausal
from .norms import FrequencyGrid, hinf_norm, loop_margins
from .plants import GeneralizedPlant, UncertainPlant, lft_lower, lft_upper
from .regret import RegretLevel, optimize_special, pareto_front, synth_regret, verify_regret
from .robust import (dk_feasibility_oracle, robust_pareto_front, sample_uncertainty,
                     verify_robust_regret)
from .signals import simulate
from .statespace import series

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_DK_FAIL = 3
EXIT_INPUT = 4

SPECIAL_KINDS = ("hinf", "competitive-ratio", "additive-regret")


def _load_uncertain(args) -> UncertainPlant:
    if args.example:
        return build_example(args.example)
    plant = rio.load_plant(args.plant_file)
    if isinstance(plant, GeneralizedPlant):
        raise RegretSynthError("plant file has no uncertainty channels; "
                               "robust commands need them")
    return plant


def _load_nominal(args) -> GeneralizedPlant:
    if args.example:
        return build_example(args.example).nominal()
    plant = rio.load_plant(args.plant_file)
    return plant.nominal() if isinstance(plant, UncertainPlant) else plant


def _level(args) -> RegretLevel:
    """The level of --gamma-d / --gamma-j, an unset one read as 0."""
    try:
        return RegretLevel(args.gamma_d or 0.0,
                           args.gamma_j if args.gamma_j is not None else 0.0)
    except ValueError as exc:
        raise RegretSynthError(f"bad level: {exc}") from None


def _check_tolerances(args) -> None:
    """--tol-abs / --tol-rel as the bisection driver accepts them."""
    try:
        check_tolerances(args.tol_abs, args.tol_rel)
    except ValueError as exc:
        raise RegretSynthError(f"bad tolerances: {exc}") from None


def _at_least(flag: str, value: int, least: int) -> None:
    """A count below its least value, rejected before any output."""
    if value < least:
        raise RegretSynthError(f"{flag} must be at least {least}, got {value}")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metadata(args, t0, extra=None):
    import scipy

    from . import __version__

    meta = {
        "tool": "regretsynth",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "command": args.command,
        "example": args.example,
        "seed": getattr(args, "seed", None),
        "tol_abs": getattr(args, "tol_abs", None),
        "tol_rel": getattr(args, "tol_rel", None),
        "mode": getattr(args, "mode", None),
        "elapsed_s": time.time() - t0,
    }
    if extra:
        meta.update(extra)
    return meta


def _clean_meta(meta: dict) -> dict:
    out = {}
    for k, v in meta.items():
        if k == "final_D":
            continue
        if isinstance(v, (np.floating, np.integer)):
            v = float(v)
        out[k] = v
    return out


def cmd_synth(args) -> int:
    _check_tolerances(args)
    _at_least("--trials", args.trials, 0)
    t0 = time.time()
    level = None
    if args.gamma_d is not None or args.gamma_j is not None:
        level = _level(args)
    # the sampled check tests a given level on the nominal plant
    if args.trials > 0 and args.mode == "robust":
        raise RegretSynthError("--trials checks a nominal level, not --mode robust")
    if args.trials > 0 and level is None:
        raise RegretSynthError("--trials needs a level to check (--gamma-d / --gamma-j)")
    out = _outdir(args)
    check = {}
    if args.mode == "nominal":
        P = _load_nominal(args)
        K0 = build_noncausal(P)
        if level is None:
            gamma, res = optimize_special(P, args.kind, args.tol_abs,
                                          args.tol_rel, K0=K0)
        else:
            res = synth_regret(P, level, K0=K0)
            gamma = None
            if res.feasible and args.trials > 0:
                rep = verify_regret(res.controller, P, level, n_trials=args.trials,
                                    seed=args.seed, K0=K0)
                check = {"verify_margin": rep.worst_margin, "verified": rep.passed}
    else:
        unc = _load_uncertain(args)
        K0 = build_noncausal(unc.nominal())
        oracle = dk_feasibility_oracle(unc, K0=K0)
        if level is None:
            gamma, res = optimize_special(unc.nominal(), args.kind,
                                          args.tol_abs, args.tol_rel, K0=K0,
                                          feasibility=oracle)
        else:
            res = oracle(level)
            gamma = None
    summary = {
        "feasible": bool(res.feasible),
        "gamma": gamma,
        "kind": args.kind if level is None else "level",
        "level": None if level is None else [level.gamma_d, level.gamma_J],
        "achieved_norm": float(res.achieved_norm) if np.isfinite(res.achieved_norm) else None,
        "controller_order": res.controller.n_x if res.controller else None,
        "metadata": _clean_meta({**res.metadata, **check}),
    }
    rio.write_json(out / "summary.json", summary)
    rio.write_json(out / "metadata.json", _metadata(args, t0))
    if res.controller is not None:
        rio.save_controller(out / "controller.sys", res.controller)
        if "dk_trace" in res.metadata:
            rio.write_dk_trace_csv(out / "dk_trace.csv", res.metadata["dk_trace"])
    if not res.feasible:
        if res.metadata.get("reason") == "dk_did_not_converge":
            return EXIT_DK_FAIL
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_pareto(args) -> int:
    _check_tolerances(args)
    _at_least("--points", args.points, 1)
    t0 = time.time()
    out = _outdir(args)
    if args.mode == "nominal":
        P = _load_nominal(args)
        front = pareto_front(P, args.points, args.tol_abs, args.tol_rel,
                             K0=build_noncausal(P))
    else:
        unc = _load_uncertain(args)
        front = robust_pareto_front(unc, args.points, args.tol_abs, args.tol_rel,
                                    K0=build_noncausal(unc.nominal()))
    rio.write_pareto_csv(out / f"pareto_{args.mode}.csv", front)
    rio.write_json(out / "summary.json", {
        "mode": args.mode,
        "gamma_inf": front.gamma_inf,
        "points": args.points,
        "gamma_j_at_smallest_gd": front.points[0].gamma_j_upper,
    })
    rio.write_json(out / "metadata.json", _metadata(args, t0, front.metadata))
    return EXIT_OK


def cmd_sim(args) -> int:
    _at_least("--samples", args.samples, 0)
    t0 = time.time()
    out = _outdir(args)
    K = rio.load_controller(args.controller)
    resp = quartercar_response_plant()
    pulse = road_pulse(Ts=resp.sample_time)
    cl_nom = lft_lower(resp.nominal(prune=False), K)
    y_nom = simulate(cl_nom, pulse)
    rio.write_timeresp_csv(out / "time_response_nominal.csv", y_nom,
                           resp.sample_time)
    travel = float(np.max(np.abs(y_nom.samples[:, 1])))
    summary = {"suspension_travel_max_m": travel,
               "body_accel_peak": float(np.max(np.abs(y_nom.samples[:, 0]))),
               "within_actuator_limit": travel <= 0.05,
               "samples": args.samples}
    if args.samples > 0:
        rng = np.random.default_rng(args.seed)
        cl_open = lft_lower(resp.as_generalized(), K)
        header_t = [(pulse.t0 + i) * resp.sample_time for i in range(len(y_nom))]
        cols_ab, cols_sd = [], []
        ptp = []
        for i in range(args.samples):
            ds = sample_uncertainty(resp.n_v, resp.n_w, seed=int(rng.integers(0, 2**31)),
                                    sample_time=resp.sample_time)
            cl = lft_upper(cl_open, ds.Delta, resp.n_w, resp.n_v)
            y = simulate(cl, pulse)
            ab = y.on_window(y_nom.t0, y_nom.t1)[:, 0]
            sd = y.on_window(y_nom.t0, y_nom.t1)[:, 1]
            cols_ab.append(ab)
            cols_sd.append(sd)
            ptp.append(float(ab.max() - ab.min()))
        header = ["t_s"] + [f"ab_{i + 1}" for i in range(args.samples)] + \
            [f"sd_{i + 1}" for i in range(args.samples)]
        rows = []
        for k, t in enumerate(header_t):
            rows.append((float(t), *[float(c[k]) for c in cols_ab],
                         *[float(c[k]) for c in cols_sd]))
        rio.write_csv(out / "time_response_samples.csv", header, rows)
        summary["body_accel_ptp_max"] = max(ptp)
        summary["body_accel_ptp_min"] = min(ptp)
    rio.write_json(out / "summary.json", summary)
    rio.write_json(out / "metadata.json", _metadata(args, t0))
    return EXIT_OK


def cmd_freqresp(args) -> int:
    _at_least("--points", args.points, 1)
    t0 = time.time()
    out = _outdir(args)
    P = _load_nominal(args)
    thetas = FrequencyGrid.default(args.points).thetas
    if args.controller:
        K = rio.load_controller(args.controller)
        cl = lft_lower(P, K)
        if not cl.is_schur():
            print("closed loop unstable", file=sys.stderr)
            return EXIT_INFEASIBLE
        rio.write_freqresp_csv(out / "closed_loop_freqresp.csv", cl, thetas)
        rio.write_freqresp_csv(out / "controller_freqresp.csv", K, thetas)
    else:
        rio.write_freqresp_csv(out / "open_loop_freqresp.csv",
                               P.ed_subsystem(), thetas)
    rio.write_json(out / "metadata.json", _metadata(args, t0))
    return EXIT_OK


def cmd_margins(args) -> int:
    t0 = time.time()
    out = _outdir(args)
    K = rio.load_controller(args.controller)
    if args.loop_file:
        L, _, _ = rio.load_system(args.loop_file)
    else:
        comp = example_components(args.example or "siso")
        L = series(comp["A0"], comp["G"])
    m = loop_margins(series(K, L))
    rio.write_json(out / "margins.json", {
        "phase_margin_deg": m.phase_margin_deg,
        "crossover_rad_s": m.crossover_rad_s,
        "crossover_theta": m.crossover_theta,
        "has_crossover": m.has_crossover,
    })
    rio.write_json(out / "metadata.json", _metadata(args, t0))
    return EXIT_OK


def cmd_verify(args) -> int:
    # a check with no trials or no samples would pass whatever the controller
    _at_least("--trials", args.trials, 1)
    if args.mode == "robust":
        _at_least("--samples", args.samples, 1)
    t0 = time.time()
    out = _outdir(args)
    K = rio.load_controller(args.controller)
    level = _level(args)
    if args.mode == "nominal":
        P = _load_nominal(args)
        rep = verify_regret(K, P, level, n_trials=args.trials, seed=args.seed,
                            K0=build_noncausal(P))
        payload = {"passed": bool(rep.passed), "worst_margin": rep.worst_margin,
                   "trials": rep.n_trials, "worst_kind": rep.worst_kind}
    else:
        unc = _load_uncertain(args)
        rep = verify_robust_regret(K, unc, level, n_delta=args.samples,
                                   n_dist=max(args.trials // args.samples, 1),
                                   seed=args.seed, K0=build_noncausal(unc.nominal()))
        payload = {"passed": bool(rep.passed), "worst_margin": rep.worst_margin,
                   "n_unstable": rep.n_unstable, "trials": rep.trials}
    rio.write_json(out / "verify.json", payload)
    rio.write_json(out / "metadata.json", _metadata(args, t0))
    return EXIT_OK if rep.passed else EXIT_INFEASIBLE


def _add_plant_source(p) -> None:
    """--example or --plant-file, exactly one."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", choices=EXAMPLE_NAMES)
    source.add_argument("--plant-file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="regretsynth",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def verb(name, fn, doc):
        # each verb declares only the options its cmd_* function reads
        p = sub.add_parser(name, help=doc)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default="out")
        return p

    p = verb("synth", cmd_synth, "optimize a special regret kind or test a specific level")
    _add_plant_source(p)
    p.add_argument("--mode", choices=("nominal", "robust"), default="nominal")
    p.add_argument("--gamma-d", type=float)
    p.add_argument("--gamma-j", type=float)
    p.add_argument("--kind", choices=SPECIAL_KINDS, default="hinf")
    p.add_argument("--tol-abs", type=float, default=1e-4)
    p.add_argument("--tol-rel", type=float, default=1e-4)
    p.add_argument("--trials", type=int, default=0, help="sampled check of the "
                   "synthesized controller at the given nominal level (as verify)")
    p.add_argument("--seed", type=int, default=0)

    p = verb("pareto", cmd_pareto, "trade-off front over gamma_d")
    _add_plant_source(p)
    p.add_argument("--mode", choices=("nominal", "robust"), default="nominal")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol-abs", type=float, default=1e-4)
    p.add_argument("--tol-rel", type=float, default=1e-4)

    p = verb("sim", cmd_sim, "time-domain road-pulse study")
    p.add_argument("--example", choices=("quartercar",), required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = verb("freqresp", cmd_freqresp, "frequency-response CSV emission")
    _add_plant_source(p)
    p.add_argument("--controller")
    p.add_argument("--points", type=int, default=256)

    p = verb("margins", cmd_margins, "phase margin of a SISO loop")
    loop = p.add_mutually_exclusive_group()
    loop.add_argument("--example", choices=("siso",))
    loop.add_argument("--loop-file")
    p.add_argument("--controller", required=True)

    p = verb("verify", cmd_verify, "sampled regret-bound verification")
    _add_plant_source(p)
    p.add_argument("--mode", choices=("nominal", "robust"), default="nominal")
    p.add_argument("--gamma-d", type=float)
    p.add_argument("--gamma-j", type=float)
    p.add_argument("--controller", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--samples", type=int, default=20,
                   help="uncertainty samples (robust mode)")
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse's usage errors are input errors; --help exits 0
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (RegretSynthError, OSError) as exc:
        # bad levels, unreadable or malformed input files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
