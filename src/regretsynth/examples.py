"""Built-in example plants: SISO servo loop, Boeing 747, quarter car.

Each builder returns an :class:`UncertainPlant` with channel order
(w, d, u) -> (v, e, y); the nominal view drops the uncertainty
channels.  Continuous weights are discretized by zero-order hold at the
example's sample time.
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


def _zoh_tf1(num1, num0, den1, den0, Ts) -> StateSpace:
    return zoh_discretize(*tf1_to_ss(num1, num0, den1, den0), Ts)


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


def _assemble(blocks, wiring, n_inputs, sample_time):
    """Assemble subsystems into one state-space model.

    blocks: ordered dict name -> StateSpace (static gains allowed).
    wiring: block input = sum of entries (source, gain) where source is
    "ext:<k>" for external input k or "<block>" for a block output.
    Every block must be expressible with inputs that are feedthrough-
    acyclic in block order (checked implicitly by construction order).
    """
    names = list(blocks)
    offs = {}
    n = 0
    for name in names:
        offs[name] = n
        n += blocks[name].n_x
    # Each block output is an affine map of (global state, external
    # input); inputs are resolved in block order, so feedthrough chains
    # must be acyclic in that order.
    block_in_x = {}
    block_in_u = {}
    block_out_x = {}
    block_out_u = {}
    for name in names:
        g = blocks[name]
        mx = np.zeros((g.n_u, n))
        mu = np.zeros((g.n_u, n_inputs))
        for row, terms in enumerate(wiring[name]):
            for source, gain in terms:
                if source.startswith("ext:"):
                    k = int(source.split(":", 1)[1])
                    mu[row, k] += gain
                else:
                    if source not in block_out_x:
                        raise ValueError(f"{name} depends on {source} not yet built")
                    mx[row] += gain * block_out_x[source][0]
                    mu[row] += gain * block_out_u[source][0]
        block_in_x[name] = mx
        block_in_u[name] = mu
        o = offs[name]
        cx = np.zeros((g.n_y, n))
        cx[:, o : o + g.n_x] = g.C
        block_out_x[name] = cx + g.D @ mx if g.n_u else cx
        block_out_u[name] = g.D @ mu if g.n_u else np.zeros((g.n_y, n_inputs))
    A = np.zeros((n, n))
    B = np.zeros((n, n_inputs))
    for name in names:
        g = blocks[name]
        o = offs[name]
        A[o : o + g.n_x, o : o + g.n_x] = g.A
        if g.n_u:
            A[o : o + g.n_x, :] += g.B @ block_in_x[name]
            B[o : o + g.n_x, :] = g.B @ block_in_u[name]
    return A, B, block_out_x, block_out_u, sample_time


def _siso_plant() -> UncertainPlant:
    spec = example_spec("siso")
    Ts = spec.sample_time
    d = spec.data
    G = _zoh_tf1(*d["plant"], Ts)
    A0 = _zoh_tf1(*d["actuator"], Ts)
    Wunc = _zoh_tf1(*d["w_unc"], Ts)
    Wd = _zoh_tf1(*d["w_d"], Ts)
    We = _zoh_tf1(*d["w_e"], Ts)
    Wu = _zoh_tf1(*d["w_u"], Ts)
    blocks = {"Wunc": Wunc, "Wd": Wd, "A0": A0, "G": G, "We": We, "Wu": Wu}
    # inputs: w=0, d=1, u=2; the uncertainty perturbs the actuator input
    wiring = {
        "Wunc": [[("ext:2", 1.0)]],
        "Wd": [[("ext:1", 1.0)]],
        "A0": [[("ext:2", 1.0), ("ext:0", 1.0)]],
        "G": [[("A0", 1.0)]],
        "We": [[("Wd", 1.0), ("G", -1.0)]],
        "Wu": [[("ext:2", 1.0)]],
    }
    A, B, out_x, out_u, _ = _assemble(blocks, wiring, 3, Ts)
    # outputs: v = Wunc, e1 = We, e2 = Wu, y = Wd - G
    C = np.vstack([out_x["Wunc"], out_x["We"], out_x["Wu"],
                   out_x["Wd"] - out_x["G"]])
    D = np.vstack([out_u["Wunc"], out_u["We"], out_u["Wu"],
                   out_u["Wd"] - out_u["G"]])
    ss = StateSpace(A, B, C, D, Ts)
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
    Ts = spec.sample_time
    d = spec.data
    car = zoh_discretize(*d["car"], Ts)          # inputs (r, f_s) -> (a_b, s_d)
    act = _zoh_tf1(*d["actuator"], Ts)
    Wunc = _zoh_tf1(*d["w_unc"], Ts)
    Wact = _zoh_tf1(*d["w_act"], Ts)
    Wsd = _zoh_tf1(*d["w_sd"], Ts)
    Wab = _zoh_tf1(*d["w_ab"], Ts)
    w_road, w_d2, w_d3 = d["w_road"], d["w_d2"], d["w_d3"]
    # inputs: w=0, d1=1, d2=2, d3=3, u=4
    wiring = {
        "act": [[("ext:4", 1.0), ("ext:0", 1.0)]],
        "car": [[("ext:1", w_road)], [("act", 1.0)]],
    }
    # assemble the act/car core, then hang the single-input weights off
    # individual car output rows
    A0, B0, out_x, out_u, _ = _assemble({"act": act, "car": car}, wiring, 5, Ts)
    ab_x, ab_u = out_x["car"][0:1], out_u["car"][0:1]
    sd_x, sd_u = out_x["car"][1:2], out_u["car"][1:2]
    n0 = A0.shape[0]
    extra = {"Wunc": Wunc, "Wact": Wact, "Wab": Wab, "Wsd": Wsd}
    ins = {
        "Wunc": (np.zeros((1, n0)), np.eye(1, 5, 4)),
        "Wact": (np.zeros((1, n0)), np.eye(1, 5, 4)),
        "Wab": (ab_x, ab_u),
        "Wsd": (sd_x, sd_u),
    }
    n = n0 + sum(g.n_x for g in extra.values())
    A = np.zeros((n, n))
    B = np.zeros((n, 5))
    A[:n0, :n0] = A0
    B[:n0] = B0
    o = n0
    outs = {}
    for name, g in extra.items():
        mx, mu = ins[name]
        A[o : o + g.n_x, :n0] = g.B @ mx
        A[o : o + g.n_x, o : o + g.n_x] = g.A
        B[o : o + g.n_x] = g.B @ mu
        cx = np.zeros((1, n))
        cx[:, o : o + g.n_x] = g.C
        cx[:, :n0] += g.D @ mx
        outs[name] = (cx, g.D @ mu)
        o += g.n_x
    pad = np.zeros((1, n - n0))
    y1_x = np.hstack([sd_x, pad])
    y1_u = sd_u + w_d2 * np.eye(1, 5, 2)
    y2_x = np.hstack([ab_x, pad])
    y2_u = ab_u + w_d3 * np.eye(1, 5, 3)
    C = np.vstack([outs["Wunc"][0], outs["Wact"][0], outs["Wab"][0],
                   outs["Wsd"][0], y1_x, y2_x])
    D = np.vstack([outs["Wunc"][1], outs["Wact"][1], outs["Wab"][1],
                   outs["Wsd"][1], y1_u, y2_u])
    ss = StateSpace(A, B, C, D, Ts)
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
    spec = example_spec("quartercar")
    Ts = spec.sample_time
    d = spec.data
    car = zoh_discretize(*d["car"], Ts)
    act = _zoh_tf1(*d["actuator"], Ts)
    Wunc = _zoh_tf1(*d["w_unc"], Ts)
    wiring = {
        "act": [[("ext:2", 1.0), ("ext:0", 1.0)]],
        "car": [[("ext:1", 1.0)], [("act", 1.0)]],
        "Wunc": [[("ext:2", 1.0)]],
    }
    A, B, out_x, out_u, _ = _assemble({"act": act, "car": car, "Wunc": Wunc},
                                      wiring, 3, Ts)
    ab_x, ab_u = out_x["car"][0:1], out_u["car"][0:1]
    sd_x, sd_u = out_x["car"][1:2], out_u["car"][1:2]
    C = np.vstack([out_x["Wunc"], ab_x, sd_x, sd_x, ab_x])
    D = np.vstack([out_u["Wunc"], ab_u, sd_u, sd_u, ab_u])
    ss = StateSpace(A, B, C, D, Ts)
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
    """Discretized pieces (plant, actuator, weights) for loop analysis."""
    spec = example_spec(name)
    Ts = spec.sample_time
    d = spec.data
    if name == "siso":
        return {
            "G": _zoh_tf1(*d["plant"], Ts),
            "A0": _zoh_tf1(*d["actuator"], Ts),
            "W_unc": _zoh_tf1(*d["w_unc"], Ts),
            "W_d": _zoh_tf1(*d["w_d"], Ts),
            "W_e": _zoh_tf1(*d["w_e"], Ts),
            "W_u": _zoh_tf1(*d["w_u"], Ts),
        }
    if name == "boeing747":
        return {"ss": StateSpace(d["A"], d["B"], np.eye(4), np.zeros((4, 2)), UNIT)}
    if name == "quartercar":
        return {
            "car": zoh_discretize(*d["car"], Ts),
            "A0": _zoh_tf1(*d["actuator"], Ts),
            "W_unc": _zoh_tf1(*d["w_unc"], Ts),
            "W_act": _zoh_tf1(*d["w_act"], Ts),
            "W_sd": _zoh_tf1(*d["w_sd"], Ts),
            "W_ab": _zoh_tf1(*d["w_ab"], Ts),
        }
    raise UnknownExample(name)
