"""Tests that the benchmark's tracing wrappers see every call and change nothing.

    python3 -m pytest -q bench/test_tracing.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

rs = run.import_regretsynth()

import tracing  # noqa: E402  (after the package is on the path)
import workloads  # noqa: E402

ROBUST_LAYERS = ("robust.dk_iteration", "robust.robust_perf_test",
                 "robust.matrix_rp_test", "robust.fit_dscale",
                 "robust.sample_uncertainty", "robust.verify_robust_regret")


def package_modules():
    return [mod for key, mod in sys.modules.items()
            if key == "regretsynth" or key.startswith("regretsynth.")]


def originals():
    out = {}
    for module, fn, _ in tracing.WRAPPED:
        if fn == "freqresp":
            out[id(rs.StateSpace.__dict__["freqresp"])] = "statespace.freqresp"
        else:
            out[id(getattr(sys.modules[f"regretsynth.{module}"], fn))] = f"{module}.{fn}"
    return out


def test_every_binding_is_replaced_and_restored():
    orig = originals()
    before = {(key, attr): value for key, mod in sys.modules.items()
              if key.startswith("regretsynth") for attr, value in vars(mod).items()}
    with tracing.Tracer():
        for name in ("norms", "hinf", "regret", "robust", "cli"):
            wrapped = sys.modules[f"regretsynth.{name}"].hinf_norm
            assert wrapped.traced_name == "norms.hinf_norm", name
        assert rs.hinf_norm.traced_name == "norms.hinf_norm"
        assert rs.StateSpace.freqresp.traced_name == "statespace.freqresp"
        for mod in package_modules():
            for attr, value in vars(mod).items():
                assert id(value) not in orig, f"{mod.__name__}.{attr} not wrapped"
    after = {(key, attr): value for key, mod in sys.modules.items()
             if key.startswith("regretsynth") for attr, value in vars(mod).items()}
    assert all(after[k] is v for k, v in before.items())
    assert not hasattr(rs.StateSpace.freqresp, "traced_name")


def traced_and_plain(fn):
    plain = fn()
    tracer = tracing.Tracer()
    with tracer:
        traced = fn()
    return plain, traced, tracer


def test_nominal_round_reaches_its_layers_only_and_is_unchanged():
    wl = workloads.NominalDesign(rs, seed=0)
    st = wl.setup()
    plain, traced, tr = traced_and_plain(lambda: wl.round(st, workloads.Ops()))
    assert wl.fingerprint(plain) == wl.fingerprint(traced)
    for name in ("riccati.solve_dare", "noncausal.build_phat",
                 "spectral.spectral_factor_regret", "hinf.synth_hinf",
                 "hinf.hinf_optimize", "norms.hinf_norm", "statespace.freqresp",
                 "plants.lft_lower", "regret.synth_regret",
                 "regret.optimize_special", "regret.pareto_front"):
        assert tr.calls[name] > 0, name
    for name in ROBUST_LAYERS + ("regret.verify_regret", "signals.response_energy",
                                 "noncausal.eval_noncausal_cost"):
        assert tr.calls[name] == 0, name
    metrics = tr.metrics(1, 1.0)
    assert metrics["statespace.freqresp.angles"][0] >= tr.calls["statespace.freqresp"]
    verdicts = sum(v for k, (v, _) in metrics.items()
                   if k.startswith("hinf.synth_hinf.verdict."))
    assert verdicts == tr.calls["hinf.synth_hinf"]
    routes = sum(v for k, (v, _) in metrics.items()
                 if k.startswith("riccati.solve_dare.route."))
    assert routes == tr.calls["riccati.solve_dare"]


def test_robust_layers_reached_and_unchanged():
    unc = rs.build_example("quartercar")
    K0 = rs.build_noncausal(unc.nominal())
    level = rs.RegretLevel.additive(0.8)
    plain, traced, tr = traced_and_plain(lambda: rs.dk_iteration(unc, level, K0=K0))
    assert plain.feasible and traced.feasible
    assert plain.achieved_norm == traced.achieved_norm
    assert plain.metadata["dk_trace"] == traced.metadata["dk_trace"]
    for name in ROBUST_LAYERS[:4]:
        assert tr.calls[name] > 0, name
    assert tr.counts["robust.dk_iteration.iterations"] == len(plain.metadata["dk_trace"])

    K = plain.controller
    rep_plain, rep_traced, tr = traced_and_plain(
        lambda: rs.verify_robust_regret(K, unc, level, n_delta=2, n_dist=2, K0=K0))
    assert rep_plain == rep_traced
    for name in ("robust.sample_uncertainty", "robust.verify_robust_regret",
                 "plants.lft_upper", "signals.response_energy",
                 "noncausal.eval_noncausal_cost"):
        assert tr.calls[name] > 0, name
    assert tr.calls["hinf.synth_hinf"] == 0


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
