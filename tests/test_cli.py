from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

import regretsynth as rs
from regretsynth import cli
from regretsynth.cli import main
from regretsynth.io import save_controller, save_plant, save_system


def run(args):
    return main([str(a) for a in args])


def test_synth_boeing_cr(tmp_path):
    out = tmp_path / "o"
    code = run(["synth", "--example", "boeing747", "--kind", "competitive-ratio",
                "--tol-abs", "1e-2", "--tol-rel", "1e-3", "--out", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"]
    assert abs(summary["gamma"] - 1.33) < 0.05
    # the certificate of the weighted H-infinity problem, in the ratio's units
    gamma = summary["gamma"]
    assert summary["achieved_norm"] <= gamma
    assert summary["metadata"]["level"] == [0, gamma]
    assert summary["metadata"]["gamma_d_regularized"] == rs.EPS_CR * gamma
    assert (out / "controller.sys").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "synth"
    assert meta["numpy"] == np.__version__
    assert meta["scipy"] == scipy.__version__


def test_synth_additive_regret_writes_the_api_controller(tmp_path, store):
    out = tmp_path / "o"
    assert run(["synth", "--example", "siso", "--kind", "additive-regret",
                "--out", out]) == 0
    gamma, res = store.special("siso", "additive-regret")  # the CLI's tolerances
    save_controller(tmp_path / "K.sys", res.controller)
    assert (out / "controller.sys").read_bytes() == (tmp_path / "K.sys").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma"] == gamma
    # the record of hinf_search: Riccati verdicts, then the returned level's
    levels = summary["metadata"]["search_levels"]
    assert [gamma, "riccati_ok"] in levels[:-1]
    assert levels[-1] in ([gamma, "below"], [gamma, "bracket"])
    assert not {v for _, v in levels[:-1]} & {"below", "above", "bracket", "feasible"}


def test_synth_infeasible_level_exit_code(tmp_path):
    code = run(["synth", "--example", "boeing747", "--gamma-d", "5.0",
                "--gamma-j", "0.0", "--out", tmp_path / "x"])
    assert code == 2


def test_missing_input_exit_code(tmp_path):
    assert run(["synth", "--out", tmp_path / "x"]) == 4


@pytest.mark.parametrize("gamma_d", ["-1", "nan", "inf"])
def test_bad_level_exit_code(tmp_path, capsys, gamma_d):
    code = run(["synth", "--example", "siso", f"--gamma-d={gamma_d}",
                "--gamma-j", "1", "--out", tmp_path / "x"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: bad level") and "\n" not in err


@pytest.mark.parametrize("tol_abs, tol_rel", [("0", "0"), ("-1", "1e-4"),
                                              ("nan", "1e-4")])
def test_bad_tolerance_exit_code(tmp_path, capsys, tol_abs, tol_rel):
    code = run(["synth", "--example", "siso", f"--tol-abs={tol_abs}",
                f"--tol-rel={tol_rel}", "--out", tmp_path / "x"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: bad tolerances") and "\n" not in err


def test_unreadable_input_file_exit_code(tmp_path, capsys):
    code = run(["verify", "--example", "siso", "--controller",
                tmp_path / "missing.sys", "--gamma-d", "1", "--gamma-j", "1",
                "--out", tmp_path / "v"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert run(["synth", "--plant-file", tmp_path / "missing.sys",
                "--out", tmp_path / "s"]) == 4


def test_level_rejects_non_finite_values():
    for gd, gj in ((float("nan"), 1.0), (1.0, float("inf")), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            rs.RegretLevel(gd, gj)


def test_pareto_csv_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["pareto", "--example", "boeing747", "--points", "3",
            "--tol-abs", "5e-2", "--tol-rel", "5e-3"]
    assert run(base + ["--out", a]) == 0
    assert run(base + ["--out", b]) == 0
    csv_a = (a / "pareto_nominal.csv").read_text()
    assert csv_a == (b / "pareto_nominal.csv").read_text()
    lines = csv_a.strip().splitlines()
    assert lines[0] == "gamma_d,gamma_J_lower,gamma_J_upper,hinf_of_weighted_loop,controller_order"
    assert len(lines) == 4


def test_freqresp_and_margins(tmp_path, store):
    _, res = store.special("siso", "hinf")
    kfile = tmp_path / "K.sys"
    save_controller(kfile, res.controller)
    out = tmp_path / "fr"
    assert run(["freqresp", "--example", "siso", "--controller", kfile,
                "--points", "64", "--out", out]) == 0
    # sigma_max of the closed loop is the last column of its response
    lines = (out / "closed_loop_freqresp.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_rad_per_sample,omega_rad_per_s,sigma_max"
    thetas, sigma = np.loadtxt(lines[1:], delimiter=",", usecols=(0, 2)).T
    P = rs.build_example("siso").nominal()
    assert np.array_equal(sigma, rs.norms.sigma_max_on_grid(rs.lft_lower(P, res.controller), thetas))
    assert not (out / "closed_loop_sigma.csv").exists()
    out2 = tmp_path / "m"
    assert run(["margins", "--example", "siso", "--controller", kfile,
                "--out", out2]) == 0
    m = json.loads((out2 / "margins.json").read_text())
    assert m["has_crossover"]
    assert 70 < m["phase_margin_deg"] < 90


def test_sim_quartercar(tmp_path, store):
    _, res = store.special("quartercar", "additive-regret")
    kfile = tmp_path / "K.sys"
    save_controller(kfile, res.controller)
    out = tmp_path / "sim"
    assert run(["sim", "--example", "quartercar", "--controller", kfile,
                "--samples", "3", "--seed", "1", "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["within_actuator_limit"]
    assert summary["suspension_travel_max_m"] <= 0.05
    assert (out / "time_response_samples.csv").exists()


def test_verify_cli(tmp_path, store):
    P = store.nominal("boeing747")
    _, res = store.special("boeing747", "additive-regret", tol_abs=1e-2,
                           tol_rel=1e-3)
    kfile = tmp_path / "K.sys"
    save_controller(kfile, res.controller)
    gamma = res.metadata["level"][0]
    out = tmp_path / "v"
    assert run(["verify", "--example", "boeing747", "--controller", kfile,
                "--gamma-d", gamma * 1.02, "--gamma-j", "1.0",
                "--trials", "60", "--out", out]) == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["passed"]


@pytest.mark.parametrize("mode, trials, samples, flag", [
    ("nominal", "0", "20", "--trials"), ("nominal", "-5", "20", "--trials"),
    ("robust", "0", "20", "--trials"), ("robust", "200", "0", "--samples")])
def test_verify_without_trials_exit_code(tmp_path, capsys, store, mode, trials,
                                         samples, flag):
    # the H-infinity controller misses gamma_d = 0.01; no trials would pass it
    _, res = store.special("siso", "hinf")
    kfile = tmp_path / "K.sys"
    save_controller(kfile, res.controller)
    code = run(["verify", "--example", "siso", "--mode", mode, "--controller", kfile,
                "--gamma-d", "0.01", "--trials", trials, "--samples", samples,
                "--out", tmp_path / "v"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {flag} must be at least 1") and "\n" not in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command, mode, points", [
    ("pareto", "nominal", "0"), ("pareto", "nominal", "-3"), ("pareto", "robust", "0"),
    ("freqresp", None, "0"), ("freqresp", None, "-3")])
def test_points_below_one_exit_code(tmp_path, capsys, command, mode, points):
    # freqresp has no --mode
    mode_args = ["--mode", mode] if mode else []
    code = run([command, "--example", "siso", *mode_args, "--points", points,
                "--out", tmp_path / "o"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err == f"error: --points must be at least 1, got {points}"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, flag, count", [
    ("synth", ["--example", "siso", "--gamma-d", "5"], "--trials", "-5"),
    ("sim", ["--example", "quartercar", "--controller", "K.sys"], "--samples", "-3")])
def test_negative_count_exit_code(tmp_path, capsys, command, extra, flag, count):
    # 0 runs no sampled check; a negative count is an input error
    code = run([command, *extra, flag, count, "--out", tmp_path / "o"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err == f"error: {flag} must be at least 0, got {count}"
    assert not (tmp_path / "o").exists()


def test_synth_without_trials_skips_verification(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--example", "siso", "--gamma-d", "5", "--trials", "0",
                "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] and "verified" not in summary["metadata"]


def test_synth_trials_check_the_level(tmp_path, store):
    # the sampled check of the synthesized controller is verify_regret's,
    # at the level, the seed and the trials of the command line
    out = tmp_path / "s"
    assert run(["synth", "--example", "siso", "--gamma-d", "5", "--trials", "50",
                "--out", out]) == 0
    meta = json.loads((out / "summary.json").read_text())["metadata"]
    P, K0 = store.nominal("siso"), store.k0("siso")
    level = rs.RegretLevel(5.0, 0.0)
    K = rs.synth_regret(P, level, K0=K0).controller
    rep = rs.verify_regret(K, P, level, n_trials=50, seed=0, K0=K0)
    assert rep.passed
    assert (meta["verified"], meta["verify_margin"]) == (True, rep.worst_margin)


@pytest.mark.parametrize("extra, words", [
    (["--mode", "robust", "--gamma-d", "5", "--gamma-j", "1"],
     "checks a nominal level, not --mode robust"),
    (["--kind", "additive-regret"], "needs a level to check"),
    ([], "needs a level to check")])
def test_synth_trials_without_a_nominal_level_exit_code(tmp_path, capsys, extra, words):
    # a robust level, or a kind to optimize, has no level the check could test
    code = run(["synth", "--example", "siso", *extra, "--trials", "10",
                "--out", tmp_path / "o"])
    assert code == 4
    _one_line_error(capsys, f"--trials {words}")
    assert not (tmp_path / "o").exists()


def test_synth_and_verify_robust_quartercar(tmp_path, store):
    out = tmp_path / "s"
    assert run(["synth", "--mode", "robust", "--example", "quartercar",
                "--gamma-d", "0.8", "--gamma-j", "1", "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] and summary["achieved_norm"] < 1.0
    trace = (out / "dk_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iter,hinf_value,d_order,d_fit_error,scaled_peak,k_levels"
    assert len(trace) == 1 + summary["metadata"]["iterations"]
    # the sampled robust check of that controller: --trials split over
    # --samples Deltas
    v = tmp_path / "v"
    assert run(["verify", "--mode", "robust", "--example", "quartercar",
                "--controller", out / "controller.sys", "--gamma-d", "0.8",
                "--gamma-j", "1", "--trials", "12", "--samples", "3",
                "--seed", "4", "--out", v]) == 0
    got = json.loads((v / "verify.json").read_text())
    rep = rs.verify_robust_regret(rs.io.load_controller(out / "controller.sys"),
                                  store.uncertain("quartercar"), rs.RegretLevel(0.8, 1.0),
                                  n_delta=3, n_dist=4, seed=4, K0=store.k0("quartercar"))
    assert got == {"passed": True, "worst_margin": rep.worst_margin,
                   "n_unstable": 0, "trials": 12}


def test_synth_robust_dk_failure_exit_code(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--mode", "robust", "--example", "quartercar",
                "--gamma-d", "0.5", "--gamma-j", "1", "--out", out]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["feasible"]
    assert summary["metadata"]["reason"] == "dk_did_not_converge"


def test_pareto_robust_one_point(tmp_path):
    out = tmp_path / "p"
    assert run(["pareto", "--mode", "robust", "--example", "siso", "--points", "1",
                "--tol-abs", "1e-1", "--tol-rel", "1e-2", "--out", out]) == 0
    lines = (out / "pareto_robust.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    gd, lo, hi, norm, order = (float(x) for x in lines[1].split(","))
    assert lo <= hi and norm < 1.0 and order >= 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "robust" and summary["gamma_j_at_smallest_gd"] == hi


def test_freqresp_open_loop(tmp_path):
    out = tmp_path / "fr"
    assert run(["freqresp", "--example", "boeing747", "--points", "32",
                "--out", out]) == 0
    lines = (out / "open_loop_freqresp.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_rad_per_sample,omega_rad_per_s,sigma_max"
    thetas, sigma = np.loadtxt(lines[1:], delimiter=",", usecols=(0, 2)).T
    P = rs.build_example("boeing747").nominal()
    assert np.array_equal(thetas, rs.FrequencyGrid.default(32).thetas)
    assert np.array_equal(sigma, rs.norms.sigma_max_on_grid(P.ed_subsystem(), thetas))
    assert not (out / "closed_loop_freqresp.csv").exists()


def test_plant_file_input(tmp_path, store):
    pfile = tmp_path / "plant.sys"
    save_plant(pfile, rs.build_example("boeing747"))
    out = tmp_path / "o"
    code = run(["synth", "--plant-file", pfile, "--kind", "hinf",
                "--tol-abs", "1e-1", "--tol-rel", "1e-2", "--out", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["gamma"] - 28.47) / 28.47 < 0.05


@pytest.mark.parametrize("mode", ["nominal", "robust"])
def test_negative_partition_exit_code(tmp_path, capsys, mode):
    # the siso nominal plant with its output partition (0, 2, 1) given as
    # (-1, 3, 1): the sizes still sum to the outputs
    pfile = tmp_path / "plant.sys"
    nom = rs.build_example("siso").nominal()
    save_system(pfile, nom.ss, (0, 1, 1), (-1, 3, 1))
    code = run(["synth", "--plant-file", pfile, "--mode", mode,
                "--tol-abs", "1e-2", "--tol-rel", "1e-2", "--out", tmp_path / "o"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "non-negative" in err and "\n" not in err


@pytest.mark.parametrize("example", ["boeing747", "quartercar"])
def test_margins_needs_a_siso_loop(tmp_path, capsys, example):
    kfile = tmp_path / "K.sys"
    save_controller(kfile, rs.static_gain(np.eye(1), 1.0))
    code = run(["margins", "--example", example, "--controller", kfile,
                "--out", tmp_path / "m"])
    assert code == 4
    assert "argument --example: invalid choice" in capsys.readouterr().err


def test_margins_loop_file_matches_the_siso_example(tmp_path, store):
    # the siso loop A0 G saved as a system file gives the example's margins
    _, res = store.special("siso", "hinf")
    kfile, lfile = tmp_path / "K.sys", tmp_path / "L.sys"
    save_controller(kfile, res.controller)
    comp = rs.example_components("siso")
    save_system(lfile, rs.series(comp["A0"], comp["G"]))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["margins", "--loop-file", lfile, "--controller", kfile, "--out", a]) == 0
    assert run(["margins", "--example", "siso", "--controller", kfile, "--out", b]) == 0
    assert (a / "margins.json").read_bytes() == (b / "margins.json").read_bytes()


@pytest.mark.parametrize("argv, words", [
    (["synth", "--example", "siso", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["synth", "--example", "foo"], "argument --example: invalid choice: 'foo'"),
    (["sim", "--example", "siso", "--controller", "K.sys"],
     "argument --example: invalid choice: 'siso'"),
    (["pareto"], "one of the arguments --example --plant-file is required"),
    (["sim", "--controller", "K.sys"], "the following arguments are required: --example"),
    (["verify", "--example", "siso", "--plant-file", "P.sys", "--controller", "K.sys"],
     "argument --plant-file: not allowed with argument --example"),
    (["margins", "--example", "siso", "--loop-file", "L.sys", "--controller", "K.sys"],
     "argument --loop-file: not allowed with argument --example")])
def test_usage_error_exit_code(tmp_path, capsys, argv, words):
    # 2 is an infeasible level; a command line argparse rejects is an input error
    assert run([*argv, "--out", tmp_path / "o"]) == 4
    assert words in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_exit_code(capsys):
    assert run(["synth", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: regretsynth synth")


# the options each verb no longer declares, and a value to pass each
REMOVED = [(verb, opt) for verb, opts in (
    ("pareto", "--seed"), ("sim", "--plant-file --mode --tol-abs --tol-rel"),
    ("freqresp", "--mode --seed --tol-abs --tol-rel"),
    ("margins", "--plant-file --mode --seed --tol-abs --tol-rel"),
    ("verify", "--tol-abs --tol-rel")) for opt in opts.split()]
VALUE = {"--seed": "1", "--plant-file": "P.sys", "--mode": "nominal",
         "--tol-abs": "1e-4", "--tol-rel": "1e-4"}
VALID = {"pareto": ["--example", "siso"],
         "sim": ["--example", "quartercar", "--controller", "K.sys"],
         "freqresp": ["--example", "siso"],
         "margins": ["--controller", "K.sys"],
         "verify": ["--example", "siso", "--controller", "K.sys"]}


@pytest.mark.parametrize("command, option", REMOVED)
def test_removed_option_exit_code(tmp_path, capsys, command, option):
    code = run([command, *VALID[command], option, VALUE[option], "--out", tmp_path / "o"])
    assert code == 4
    assert f"unrecognized arguments: {option} {VALUE[option]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def declared_options(parser):
    """Verb -> (name of its function, {dest: option string}) of a parser
    built like ``cli.build_parser``'s."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {verb: (p.get_default("fn").__name__,
                   {a.dest: a.option_strings[-1] for a in p._actions
                    if a.option_strings and a.dest != "help"})
            for verb, p in sub.choices.items()}


def args_read(source, name):
    """The ``args`` attributes that function ``name`` of ``source`` reads,
    itself or through the module's functions it calls, except what
    ``_metadata`` records."""
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    read, todo, seen = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn in seen or fn == "_metadata":
            continue
        seen.add(fn)
        for node in ast.walk(funcs[fn]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "args":
                read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in funcs:
                todo.append(node.func.id)
    return read


def unread_options(source, parser, kept=frozenset()):
    """``verb --option`` for every option a verb declares that its
    function never reads, except the ``kept`` ones."""
    found = []
    for verb, (fn, options) in declared_options(parser).items():
        read = args_read(source, fn)
        found += [f"{verb} {opt}" for dest, opt in options.items()
                  if dest not in read and (verb, opt) not in kept]
    return sorted(found)


def test_detector_finds_unread_options():
    source = ("def _metadata(args):\n    return args.b\n"
              "def _load(args):\n    return args.a\n"
              "def cmd_x(args):\n    return _load(args), _metadata(args)\n")
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("x")

    def cmd_x(args):
        pass

    p.set_defaults(fn=cmd_x)
    for opt in ("--a", "--b", "--c"):
        p.add_argument(opt)
    assert unread_options(source, parser) == ["x --b", "x --c"]
    assert unread_options(source, parser, {("x", "--c")}) == ["x --b"]


# sim runs the quarter-car study only: argparse's one choice checks its
# --example, which the documented invocations pass
KEPT = {("sim", "--example")}


def test_every_declared_option_is_read():
    source = Path(cli.__file__).read_text()
    assert unread_options(source, cli.build_parser(), KEPT) == []


def _one_line_error(capsys, words):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and words in err and "\n" not in err


def _put_nan(path, name, row):
    """Write NaN over the first entry of row ``row`` of matrix ``name`` in
    a saved system file (a StateSpace cannot hold it)."""
    lines = path.read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if ln.split()[:1] == [name])
    if row < 0:
        row += int(lines[head].split()[1])
    entries = lines[head + 1 + row].split()
    lines[head + 1 + row] = " ".join(["nan"] + entries[1:])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("where", ["A", "D"])
def test_non_finite_plant_entry_exit_code(tmp_path, capsys, where):
    # a NaN in the first state of A (the uncertainty weight's, which the
    # nominal plant drops), or in the y row of D, of the siso plant
    pfile = tmp_path / "plant.sys"
    save_plant(pfile, rs.build_example("siso"))
    _put_nan(pfile, where, 0 if where == "A" else -1)
    code = run(["synth", "--plant-file", pfile, "--tol-abs", "1e-2",
                "--tol-rel", "1e-2", "--out", tmp_path / "o"])
    assert code == 4
    _one_line_error(capsys, f"matrix {where} has a non-finite entry")


@pytest.mark.parametrize("sample_time", ["inf", "nan", "0.0", "-1.0"])
def test_bad_sample_time_exit_code(tmp_path, capsys, sample_time):
    nom = rs.build_example("siso").nominal()
    pfile = tmp_path / "plant.sys"
    save_plant(pfile, nom)
    text = pfile.read_text()
    ts = f"sample_time {nom.ss.sample_time!r}"
    assert ts in text
    pfile.write_text(text.replace(ts, f"sample_time {sample_time}"))
    code = run(["synth", "--plant-file", pfile, "--tol-abs", "1e-2",
                "--tol-rel", "1e-2", "--out", tmp_path / "o"])
    assert code == 4
    _one_line_error(capsys, "sample_time must be 'unit' or a finite positive number")


@pytest.mark.parametrize("command", ["margins", "verify", "freqresp"])
def test_non_finite_controller_exit_code(tmp_path, capsys, command):
    ts = rs.build_example("siso").nominal().ss.sample_time
    kfile = tmp_path / "K.sys"
    save_controller(kfile, rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], ts))
    _put_nan(kfile, "C", 0)
    extra = ["--gamma-d", "2", "--gamma-j", "1"] if command == "verify" else []
    code = run([command, "--example", "siso", "--controller", kfile, *extra,
                "--out", tmp_path / "o"])
    assert code == 4
    _one_line_error(capsys, "matrix C has a non-finite entry")
