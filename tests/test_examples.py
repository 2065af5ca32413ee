from __future__ import annotations

import json

import numpy as np
import pytest

import regretsynth as rs
from regretsynth.errors import UnknownExample

from oracles import dcgain


def test_unknown_example():
    with pytest.raises(UnknownExample):
        rs.build_example("segway")


def test_boeing_structure():
    unc = rs.build_example("boeing747")
    spec = rs.example_spec("boeing747")
    A, B = spec.data["A"], spec.data["B"]
    assert unc.n_x == 4
    assert unc.sample_time == rs.UNIT
    ss = unc.ss
    # B_w = 0.6 B, B_d = I4, B_u = B
    assert np.allclose(ss.B[:, :2], 0.6 * B)
    assert np.allclose(ss.B[:, 2:6], np.eye(4))
    assert np.allclose(ss.B[:, 6:], B)
    # full information: y = [x; d]
    nom = unc.nominal()
    assert np.allclose(nom.C_y, np.vstack([np.eye(4), np.zeros((4, 4))]))
    assert np.allclose(nom.D_yd, np.vstack([np.zeros((4, 4)), np.eye(4)]))
    # e = [x; u] gives Q = I4, R = I2, S = 0
    assert np.allclose(nom.C_e.T @ nom.C_e, np.eye(4))
    assert np.allclose(nom.D_eu.T @ nom.D_eu, np.eye(2))
    assert np.max(np.abs(nom.C_e.T @ nom.D_eu)) == 0.0


def test_siso_structure():
    unc = rs.build_example("siso")
    # plant + actuator + four weights, one state each
    assert unc.n_x == 6
    assert (unc.n_w, unc.n_d, unc.n_u) == (1, 1, 1)
    assert (unc.n_v, unc.n_e, unc.n_y) == (1, 2, 1)
    nom = unc.nominal()
    # the uncertainty weight state is structurally dead in the nominal view
    assert nom.n_x == 5
    comp = rs.example_components("siso")
    assert abs(dcgain(comp["W_d"])[0, 0] - 1.0) < 1e-9
    assert abs(dcgain(comp["W_u"])[0, 0] - 0.1) < 1e-9
    assert abs(dcgain(comp["W_unc"])[0, 0] - 0.2) < 1e-9
    assert abs(dcgain(comp["G"])[0, 0] - 15.0 / 5.6) < 1e-9


def test_quartercar_structure():
    unc = rs.build_example("quartercar")
    assert unc.n_x == 9
    assert (unc.n_w, unc.n_d, unc.n_u) == (1, 3, 1)
    assert (unc.n_v, unc.n_e, unc.n_y) == (1, 3, 2)
    nom = unc.nominal()
    assert np.max(np.abs(nom.D_yu)) == 0.0
    # noise feedthroughs make D21 full row rank
    sv = np.linalg.svd(nom.D_yd, compute_uv=False)
    assert sv[-1] > 1e-6


# angles for the wiring checks: low, middle and near-Nyquist frequencies
_WIRING_THETAS = np.array([1e-3, 0.05, 0.7, 3.0])


def _block_responses(name):
    """Each example block's response on _WIRING_THETAS; SISO blocks as
    1-d arrays, the car as (angle, a_b/s_d, r/f_s)."""
    return {k: (g.freqresp(_WIRING_THETAS) if k == "car"
                else g.freqresp(_WIRING_THETAS)[:, 0, 0])
            for k, g in rs.example_components(name).items()}


def _assert_same_response(ss, rows):
    T = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    got = ss.freqresp(_WIRING_THETAS)
    assert got.shape == T.shape
    assert np.allclose(got, T, rtol=1e-9, atol=1e-12 * np.abs(T).max())


def test_siso_wiring():
    b = _block_responses("siso")
    zero = np.zeros_like(b["G"])
    GA = b["G"] * b["A0"]                  # actuator then plant, from u + w
    y = [-GA, b["W_d"], -GA]               # y = W_d d - G
    _assert_same_response(rs.build_example("siso").ss, [
        [zero, zero, b["W_unc"]],          # v = W_unc u
        [b["W_e"] * y_k for y_k in y],     # e1 = W_e y
        [zero, zero, b["W_u"]],            # e2 = W_u u
        y,
    ])


def _car_outputs(b, road_gain, n_noise):
    """(a_b, s_d) rows over the inputs (w, r, noise..., u)."""
    car, A0 = b["car"], b["A0"]
    noise = [np.zeros_like(A0)] * n_noise
    return [[car[:, k, 1] * A0, road_gain * car[:, k, 0], *noise,
             car[:, k, 1] * A0] for k in (0, 1)]


def test_quartercar_wiring():
    spec = rs.example_spec("quartercar").data
    b = _block_responses("quartercar")
    zero, one = np.zeros_like(b["A0"]), np.ones_like(b["A0"])
    ab, sd = _car_outputs(b, spec["w_road"], 2)
    # inputs (w, d1, d2, d3, u)
    _assert_same_response(rs.build_example("quartercar").ss, [
        [zero, zero, zero, zero, b["W_unc"]],
        [zero, zero, zero, zero, b["W_act"]],
        [b["W_ab"] * x for x in ab],
        [b["W_sd"] * x for x in sd],
        [sd[0], sd[1], spec["w_d2"] * one, zero, sd[4]],
        [ab[0], ab[1], zero, spec["w_d3"] * one, ab[4]],
    ])


def test_response_plant_wiring():
    b = _block_responses("quartercar")
    zero = np.zeros_like(b["A0"])
    ab, sd = _car_outputs(b, 1.0, 0)
    # inputs (w, r, u); outputs (v, a_b, s_d, y1 = s_d, y2 = a_b)
    _assert_same_response(rs.quartercar_response_plant().ss,
                          [[zero, zero, b["W_unc"]], ab, sd, sd, ab])


def test_quartercar_continuous_poles_match():
    spec = rs.example_spec("quartercar")
    A = spec.data["car"][0]
    poles = np.sort_complex(np.linalg.eigvals(A))
    expected = np.sort_complex(np.array(
        [-1.43 + 6.91j, -1.43 - 6.91j, -8.57 + 57.6j, -8.57 - 57.6j]))
    assert np.max(np.abs(poles - expected)) < 0.1


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def test_example_spec_round_trip():
    for name in rs.EXAMPLE_NAMES:
        spec = rs.example_spec(name)
        payload = json.dumps({
            "name": spec.name,
            "sample_time": spec.sample_time,
            "data": {k: _jsonable(v) for k, v in spec.data.items()},
        }, sort_keys=True)
        again = json.loads(payload)
        assert again["name"] == name
        assert json.dumps(again, sort_keys=True) == payload


def test_response_plant_and_pulse():
    resp = rs.quartercar_response_plant()
    assert (resp.n_w, resp.n_d, resp.n_u) == (1, 1, 1)
    assert (resp.n_v, resp.n_e, resp.n_y) == (1, 2, 2)
    pulse = rs.road_pulse(Ts=resp.sample_time)
    t = np.arange(len(pulse)) * resp.sample_time
    expect = np.where(t <= 0.2, 0.025 * (1 - np.cos(8 * np.pi * t)), 0.0)
    assert np.allclose(pulse.samples[:, 0], expect)
    assert abs(pulse.samples[:, 0].max() - 0.05) < 1e-3
