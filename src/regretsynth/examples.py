"""Built-in example plants: SISO servo loop, Boeing 747, quarter car.

Each builder returns an :class:`UncertainPlant` with channel order
(w, d, u) -> (v, e, y); the nominal view drops the uncertainty
channels.  :func:`example_components` is the one place that discretizes
an example's continuous blocks (zero-order hold at the example's sample
time), and ``_assemble`` the one place that wires them.  The wiring,
with the uncertainty w entering at the actuator input:

- siso, (w, d, u): A0 <- u + w, G <- A0; v = W_unc u,
  e = (W_e (W_d d - G), W_u u), y = W_d d - G.
- quartercar, (w, d1, d2, d3, u): A0 <- u + w, car <- (w_road d1, A0)
  with car outputs (a_b, s_d); v = W_unc u,
  e = (W_act u, W_ab a_b, W_sd s_d), y = (s_d + w_d2 d2, a_b + w_d3 d3).
- quartercar response plant, (w, r, u): as quartercar with car <- (r, A0);
  outputs (W_unc u, a_b, s_d, s_d, a_b).

The Boeing 747 model is discrete already and is written out directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownExample
from .plants import UncertainPlant
from .statespace import UNIT, StateSpace, tf1_to_ss, zoh_discretize

EXAMPLE_NAMES = ("siso", "boeing747", "quartercar")

# road_pulse: bump height (m), bump duration and flat tail after it (s)
_PULSE_HEIGHT = 0.025
_PULSE_DURATION = 0.2
_PULSE_TAIL = 1.0


@dataclass(frozen=True)
class ExampleSpec:
    """Literal data of a built-in example (continuous where applicable)."""

    name: str
    sample_time: float | str
    data: dict


def example_spec(name: str) -> ExampleSpec:
    if name == "siso":
        return ExampleSpec(
            name,
            0.001,
            dict(
                plant=(0.0, 15.0, 1.0, 5.6),        # G(s) = 15 / (s + 5.6)
                actuator=(0.0, 25.0, 1.0, 25.0),    # A0(s) = 1 / (0.04 s + 1)
                w_unc=(3.0, 4.62, 1.0, 23.1),
                w_d=(0.0, 8.0, 1.0, 8.0),
                w_e=(0.5, 6.93, 1.0, 0.0693),
                w_u=(1000.0, 804.0, 1.0, 8040.0),
            ),
        )
    if name == "boeing747":
        A = np.array([
            [0.99, 0.03, -0.02, -0.32],
            [0.01, 0.47, 4.7, 0.0],
            [0.02, -0.06, 0.4, 0.0],
            [0.01, -0.04, 0.72, 0.99],
        ])
        B = np.array([
            [0.01, 0.99],
            [-3.44, 1.66],
            [-0.83, 0.44],
            [-0.47, 0.25],
        ])
        return ExampleSpec(name, UNIT, dict(A=A, B=B, unc_scale=0.6))
    if name == "quartercar":
        mb, mw, bs, ks, kt = 300.0, 60.0, 1000.0, 16000.0, 1.9e5
        A = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-ks / mb, -bs / mb, ks / mb, bs / mb],
            [0.0, 0.0, 0.0, 1.0],
            [ks / mw, bs / mw, -(ks + kt) / mw, -bs / mw],
        ])
        B = np.array([
            [0.0, 0.0],
            [0.0, 1e3 / mb],
            [0.0, 0.0],
            [kt / mw, -1e3 / mw],
        ])
        C = np.array([
            [-ks / mb, -bs / mb, ks / mb, bs / mb],
            [1.0, 0.0, -1.0, 0.0],
        ])
        D = np.array([[0.0, 1e3 / mb], [0.0, 0.0]])
        return ExampleSpec(
            name,
            0.002,
            dict(
                car=(A, B, C, D),
                actuator=(0.0, 60.0, 1.0, 60.0),     # A0(s) = 60 / (s + 60)
                w_unc=(3.0, 18.5, 1.0, 46.3),
                w_act=(0.8, 40.0, 1.0, 500.0),       # 0.8 (s + 50)/(s + 500)
                w_sd=(0.00625, 0.5, 0.005, 0.04),
                w_ab=(0.03, 4.5, 8.0, 3.6),
                w_road=0.07,
                w_d2=0.01,
                w_d3=0.5,
            ),
        )
    raise UnknownExample(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")


def _assemble(blocks, wiring, outputs, n_inputs):
    """Wire discretized blocks into one model; returns (A, B, C, D).

    blocks: ordered dict name -> StateSpace; its order is the state
    order.  wiring[name] holds one list of (source, gain) terms per
    input of the block, the input being their sum; outputs holds one
    such list per output of the model.  A source is "ext:<k>" for
    external input k, "<block>" for the block's output and
    "<block>:<row>" for one of its output rows.  A block's inputs may
    only read blocks before it, so feedthrough chains are acyclic.
    """
    offs = {}
    n = 0
    for name, g in blocks.items():
        offs[name] = n
        n += g.n_x
    # each block output is an affine map of (global state, external input)
    out_x = {}
    out_u = {}

    def resolve(rows):
        mx = np.zeros((len(rows), n))
        mu = np.zeros((len(rows), n_inputs))
        for row, terms in enumerate(rows):
            for source, gain in terms:
                name, _, k = source.partition(":")
                if name == "ext":
                    mu[row, int(k)] += gain
                    continue
                if name not in out_x:
                    raise ValueError(f"{source} is read before it is built")
                mx[row] += gain * out_x[name][int(k or 0)]
                mu[row] += gain * out_u[name][int(k or 0)]
        return mx, mu

    A = np.zeros((n, n))
    B = np.zeros((n, n_inputs))
    for name, g in blocks.items():
        mx, mu = resolve(wiring[name])
        states = slice(offs[name], offs[name] + g.n_x)
        A[states, states] = g.A
        A[states] += g.B @ mx
        B[states] = g.B @ mu
        cx = np.zeros((g.n_y, n))
        cx[:, states] = g.C
        out_x[name] = cx + g.D @ mx
        out_u[name] = g.D @ mu
    return (A, B, *resolve(outputs))


def _siso_plant() -> UncertainPlant:
    blocks = example_components("siso")
    # inputs: w=0, d=1, u=2; the uncertainty perturbs the actuator input
    wiring = {
        "W_unc": [[("ext:2", 1.0)]],
        "W_d": [[("ext:1", 1.0)]],
        "A0": [[("ext:2", 1.0), ("ext:0", 1.0)]],
        "G": [[("A0", 1.0)]],
        "W_e": [[("W_d", 1.0), ("G", -1.0)]],
        "W_u": [[("ext:2", 1.0)]],
    }
    # outputs: v = W_unc, e = (W_e, W_u), y = W_d - G
    outputs = [[("W_unc", 1.0)], [("W_e", 1.0)], [("W_u", 1.0)],
               [("W_d", 1.0), ("G", -1.0)]]
    A, B, C, D = _assemble(blocks, wiring, outputs, 3)
    ss = StateSpace(A, B, C, D, example_spec("siso").sample_time)
    return UncertainPlant(ss, n_w=1, n_d=1, n_u=1, n_v=1, n_e=2, n_y=1)


def _boeing_plant() -> UncertainPlant:
    spec = example_spec("boeing747")
    A = spec.data["A"]
    B = spec.data["B"]
    s = spec.data["unc_scale"]
    n = 4
    # inputs (w[2], d[4], u[2]); outputs (v[2], e[6], y[8])
    Bfull = np.hstack([s * B, np.eye(n), B])
    C = np.vstack([
        np.zeros((2, n)),          # v = u (feedthrough only)
        np.eye(n),                 # e upper block: x
        np.zeros((2, n)),          # e lower block: u
        np.eye(n),                 # y upper: x
        np.zeros((n, n)),          # y lower: d
    ])
    D = np.zeros((2 + 6 + 8, 2 + n + 2))
    D[0:2, n + 2 :] = np.eye(2)        # v = u
    D[6:8, n + 2 :] = np.eye(2)        # e lower block: u
    D[12:16, 2 : 2 + n] = np.eye(n)    # y lower block: d
    ss = StateSpace(A, Bfull, C, D, UNIT)
    return UncertainPlant(ss, n_w=2, n_d=4, n_u=2, n_v=2, n_e=6, n_y=8)


def _quartercar_plant() -> UncertainPlant:
    spec = example_spec("quartercar")
    d = spec.data
    # inputs: w=0, d1=1, d2=2, d3=3, u=4; car inputs (r, f_s) and
    # outputs (a_b, s_d)
    wiring = {
        "A0": [[("ext:4", 1.0), ("ext:0", 1.0)]],
        "car": [[("ext:1", d["w_road"])], [("A0", 1.0)]],
        "W_unc": [[("ext:4", 1.0)]],
        "W_act": [[("ext:4", 1.0)]],
        "W_ab": [[("car:0", 1.0)]],
        "W_sd": [[("car:1", 1.0)]],
    }
    # outputs: v = W_unc, e = (W_act, W_ab, W_sd), y = (s_d, a_b) + noise
    outputs = [[("W_unc", 1.0)], [("W_act", 1.0)], [("W_ab", 1.0)],
               [("W_sd", 1.0)], [("car:1", 1.0), ("ext:2", d["w_d2"])],
               [("car:0", 1.0), ("ext:3", d["w_d3"])]]
    A, B, C, D = _assemble(example_components("quartercar"), wiring, outputs, 5)
    ss = StateSpace(A, B, C, D, spec.sample_time)
    return UncertainPlant(ss, n_w=1, n_d=3, n_u=1, n_v=1, n_e=3, n_y=2)


def build_example(name: str) -> UncertainPlant:
    """Uncertain plant for a named example (nominal view via .nominal())."""
    if name == "siso":
        return _siso_plant()
    if name == "boeing747":
        return _boeing_plant()
    if name == "quartercar":
        return _quartercar_plant()
    raise UnknownExample(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")


def quartercar_response_plant() -> UncertainPlant:
    """Quarter-car loop with physical outputs for time-domain studies.

    Inputs (w, r, u) and outputs (v, a_b, s_d, y1, y2): the road enters
    unweighted and the errors are the physical body acceleration and
    suspension displacement, so closed-loop simulations read directly
    in m/s^2 and m.  Measurements are noise-free copies of (s_d, a_b),
    matching what the synthesis plant feeds the controller.
    """
    wiring = {
        "A0": [[("ext:2", 1.0), ("ext:0", 1.0)]],
        "car": [[("ext:1", 1.0)], [("A0", 1.0)]],
        "W_unc": [[("ext:2", 1.0)]],
    }
    outputs = [[("W_unc", 1.0)], [("car:0", 1.0)], [("car:1", 1.0)],
               [("car:1", 1.0)], [("car:0", 1.0)]]
    comp = example_components("quartercar")
    A, B, C, D = _assemble({name: comp[name] for name in wiring}, wiring,
                           outputs, 3)
    ss = StateSpace(A, B, C, D, example_spec("quartercar").sample_time)
    return UncertainPlant(ss, n_w=1, n_d=1, n_u=1, n_v=1, n_e=2, n_y=2)


def road_pulse(Ts: float = 0.002):
    """Road bump r(t) = 0.025 (1 - cos(8 pi t)) m on [0, 0.2] s, then 1 s
    of flat road."""
    from .signals import Signal

    n_pulse = int(round(_PULSE_DURATION / Ts))
    n_tail = int(round(_PULSE_TAIL / Ts))
    t = np.arange(n_pulse + n_tail) * Ts
    r = np.where(t <= _PULSE_DURATION,
                 _PULSE_HEIGHT * (1.0 - np.cos(8.0 * np.pi * t)), 0.0)
    return Signal(0, r[:, None])


def example_components(name: str) -> dict:
    """The example's blocks (plant, actuator, weights), discretized by
    zero-order hold, in the state order of its plant.  The Boeing 747
    model is given in discrete time and has none."""
    spec = example_spec(name)
    d = spec.data
    if name == "siso":
        keys = dict(W_unc="w_unc", W_d="w_d", A0="actuator", G="plant",
                    W_e="w_e", W_u="w_u")
    elif name == "quartercar":
        keys = dict(A0="actuator", car="car", W_unc="w_unc", W_act="w_act",
                    W_ab="w_ab", W_sd="w_sd")
    else:
        return {}
    return {block: zoh_discretize(*(d[k] if k == "car" else tf1_to_ss(*d[k])),
                                  spec.sample_time)
            for block, k in keys.items()}
