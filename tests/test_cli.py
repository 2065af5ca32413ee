from __future__ import annotations

import json

import numpy as np
import pytest
import scipy

import regretsynth as rs
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
            "--tol-abs", "5e-2", "--tol-rel", "5e-3", "--seed", "7"]
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
    ("freqresp", "nominal", "0"), ("freqresp", "nominal", "-3")])
def test_points_below_one_exit_code(tmp_path, capsys, command, mode, points):
    code = run([command, "--example", "siso", "--mode", mode, "--points", points,
                "--out", tmp_path / "o"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err == f"error: --points must be at least 1, got {points}"
    assert not (tmp_path / "o").exists()


def test_synth_without_trials_skips_verification(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--example", "siso", "--gamma-d", "5", "--trials", "0",
                "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] and "verified" not in summary["metadata"]


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
    assert "margins needs a SISO loop" in capsys.readouterr().err


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
