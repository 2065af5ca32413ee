from __future__ import annotations

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import PlantFileError
from regretsynth.io import (load_controller, load_plant, load_system,
                            save_controller, save_plant, save_system,
                            write_dk_trace_csv, write_freqresp_csv,
                            write_timeresp_csv)


def test_system_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(0)
    ss = rs.StateSpace(0.3 * rng.standard_normal((3, 3)),
                       rng.standard_normal((3, 2)),
                       rng.standard_normal((2, 3)),
                       rng.standard_normal((2, 2)), 0.001)
    p = tmp_path / "sys.txt"
    save_system(p, ss)
    loaded, _, _ = load_system(p)
    assert np.array_equal(loaded.A, ss.A)
    assert np.array_equal(loaded.B, ss.B)
    assert np.array_equal(loaded.C, ss.C)
    assert np.array_equal(loaded.D, ss.D)
    assert loaded.sample_time == ss.sample_time
    # byte-identical second write
    p2 = tmp_path / "sys2.txt"
    save_system(p2, loaded)
    assert p.read_text() == p2.read_text()


def test_unit_sample_time_round_trip(tmp_path):
    ss = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], rs.UNIT)
    p = tmp_path / "unit.txt"
    save_system(p, ss)
    loaded, _, _ = load_system(p)
    assert loaded.sample_time == rs.UNIT


def test_plant_round_trip(tmp_path):
    unc = rs.build_example("boeing747")
    p = tmp_path / "boeing.sys"
    save_plant(p, unc)
    loaded = load_plant(p)
    assert isinstance(loaded, rs.UncertainPlant)
    assert (loaded.n_w, loaded.n_d, loaded.n_u) == (2, 4, 2)
    assert np.array_equal(loaded.ss.A, unc.ss.A)
    nom = unc.nominal()
    p2 = tmp_path / "nom.sys"
    save_plant(p2, nom)
    loaded2 = load_plant(p2)
    assert isinstance(loaded2, rs.GeneralizedPlant)


def test_controller_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    K = rs.StateSpace(0.4 * rng.standard_normal((2, 2)),
                      rng.standard_normal((2, 1)),
                      rng.standard_normal((1, 2)),
                      rng.standard_normal((1, 1)), 0.002)
    p = tmp_path / "K.sys"
    save_controller(p, K)
    K2 = load_controller(p)
    assert np.array_equal(K2.A, K.A) and np.array_equal(K2.D, K.D)


def _round_trip(tmp_path, ss, name):
    """save/load/save: equal matrices, shapes and sample time, and the
    same bytes on the second write."""
    p, p2 = tmp_path / f"{name}.sys", tmp_path / f"{name}2.sys"
    save_system(p, ss)
    loaded, _, _ = load_system(p)
    for m in "ABCD":
        assert getattr(loaded, m).shape == getattr(ss, m).shape
        assert np.array_equal(getattr(loaded, m), getattr(ss, m))
    assert loaded.sample_time == ss.sample_time
    save_system(p2, loaded)
    assert p.read_text() == p2.read_text()
    return loaded


def test_static_gain_round_trip(tmp_path):
    # no states: C is 2 x 0 and A is 0 x 0, so their rows have no values
    K = rs.static_gain([[1.5, -0.25], [0.0, 2.0]], 0.01)
    assert K.C.shape == (2, 0)
    _round_trip(tmp_path, K, "gain")
    p = tmp_path / "K.sys"
    save_controller(p, K)
    assert np.array_equal(load_controller(p).D, K.D)


def test_round_trip_without_inputs_or_outputs(tmp_path):
    rng = np.random.default_rng(3)
    A = 0.4 * rng.standard_normal((3, 3))
    # no inputs: B and D have no columns
    _round_trip(tmp_path, rs.StateSpace(A, np.zeros((3, 0)),
                                        rng.standard_normal((2, 3)),
                                        np.zeros((2, 0)), 0.5), "no_inputs")
    # no outputs: C and D have no rows
    _round_trip(tmp_path, rs.StateSpace(A, rng.standard_normal((3, 2)),
                                        np.zeros((0, 3)), np.zeros((0, 2)),
                                        rs.UNIT), "no_outputs")


def test_malformed_file(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("A 2 2\n1.0 2.0\n")
    with pytest.raises(PlantFileError):
        load_system(p)
    p.write_text("sample_time 1.0\nA 1 1\n0.5\nB 1 1\n1.0\nC 1 1\n1.0\nmystery 1\n")
    with pytest.raises(PlantFileError):
        load_system(p)


def test_freqresp_csv(tmp_path):
    g = rs.StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], 0.01)
    p = tmp_path / "fr.csv"
    write_freqresp_csv(p, g, np.linspace(0, np.pi, 5))
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "theta_rad_per_sample,omega_rad_per_s,sigma_max"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert abs(first[2] - 2.0) < 1e-12  # value at theta = 0
    # omega = theta / Ts
    row = [float(v) for v in lines[3].split(",")]
    assert abs(row[1] - row[0] / 0.01) < 1e-12


def test_timeresp_csv(tmp_path):
    sig = rs.Signal(-2, np.arange(8.0).reshape(4, 2))
    p = tmp_path / "t.csv"
    write_timeresp_csv(p, sig, 0.5)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t_s,y_1,y_2"
    assert [float(v) for v in lines[1].split(",")] == [-1.0, 0.0, 1.0]


def test_dk_trace_csv(tmp_path):
    # the three kinds of entry: the nominal iteration, a K-step, an error
    trace = [{"iter": 0, "hinf_value": 0.75, "scaled_peak": 1.25, "d_order": 0,
              "d_fit_error": None},
             {"iter": 1, "hinf_value": 1.0, "k_levels": ((1.0, "X_riccati"), (2.0, "below")),
              "scaled_peak": 0.5, "d_order": 2, "d_fit_error": 0.125},
             {"iter": 2, "error": "no feasible level found up to 5.76e+17"}]
    p = tmp_path / "dk_trace.csv"
    write_dk_trace_csv(p, trace)
    assert p.read_text().splitlines() == [
        "iter,hinf_value,d_order,d_fit_error,scaled_peak,k_levels",
        "0,0.75,0,,1.25,",
        "1,1.0,2,0.125,0.5,2",
        "2,nan,-1,,,",
    ]
