"""Text formats: system files and CSV emitters.

System files are key/value text with named matrices::

    # regretsynth system file v1
    sample_time 0.001
    partition_inputs 1 1 1
    partition_outputs 1 2 1
    A 2 2
    1.0 0.0
    0.0 0.5
    ...

Floats are written with ``repr``, which round-trips IEEE doubles
exactly, so save/load/save is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import PlantFileError
from .plants import GeneralizedPlant, UncertainPlant
from .statespace import UNIT, StateSpace

_HEADER = "# regretsynth system file v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_lines(name: str, M: np.ndarray):
    yield f"{name} {M.shape[0]} {M.shape[1]}"
    for row in M:
        yield " ".join(_fmt(v) for v in row)


def save_system(path, ss: StateSpace, partition_inputs=None,
                partition_outputs=None):
    lines = [_HEADER]
    ts = "unit" if ss.sample_time == UNIT else _fmt(ss.sample_time)
    lines.append(f"sample_time {ts}")
    if partition_inputs is not None:
        lines.append("partition_inputs " + " ".join(str(int(v)) for v in partition_inputs))
    if partition_outputs is not None:
        lines.append("partition_outputs " + " ".join(str(int(v)) for v in partition_outputs))
    for name in ("A", "B", "C", "D"):
        lines.extend(_matrix_lines(name, getattr(ss, name)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_system(path):
    """Returns (StateSpace, partition_inputs | None, partition_outputs | None)."""
    text = Path(path).read_text()
    tokens = [ln.strip() for ln in text.splitlines()
              if ln.strip() and not ln.strip().startswith("#")]
    ts = None
    parts_in = None
    parts_out = None
    mats = {}
    i = 0
    try:
        while i < len(tokens):
            fields = tokens[i].split()
            key = fields[0]
            if key == "sample_time":
                ts = UNIT if fields[1] == "unit" else float(fields[1])
                i += 1
            elif key == "partition_inputs":
                parts_in = tuple(int(v) for v in fields[1:])
                i += 1
            elif key == "partition_outputs":
                parts_out = tuple(int(v) for v in fields[1:])
                i += 1
            elif key in ("A", "B", "C", "D"):
                rows, cols = int(fields[1]), int(fields[2])
                data = []
                # a matrix with no columns has no row lines: save_system
                # writes them empty, and blank lines are dropped above
                for r in range(rows if cols else 0):
                    i += 1
                    vals = [float(v) for v in tokens[i].split()]
                    if len(vals) != cols:
                        raise PlantFileError(
                            f"matrix {key} row {r} has {len(vals)} values, "
                            f"expected {cols}"
                        )
                    data.append(vals)
                mats[key] = np.array(data).reshape(rows, cols)
                i += 1
            else:
                raise PlantFileError(f"unknown key {key!r}")
    except (IndexError, ValueError) as exc:
        raise PlantFileError(f"malformed system file {path}: {exc}") from exc
    missing = {"A", "B", "C", "D"} - set(mats)
    if missing or ts is None:
        raise PlantFileError(f"system file {path} missing {missing or 'sample_time'}")
    ss = StateSpace(mats["A"], mats["B"], mats["C"], mats["D"], ts)
    return ss, parts_in, parts_out


def save_plant(path, plant):
    if isinstance(plant, UncertainPlant):
        save_system(path, plant.ss, (plant.n_w, plant.n_d, plant.n_u),
                    (plant.n_v, plant.n_e, plant.n_y))
    elif isinstance(plant, GeneralizedPlant):
        save_system(path, plant.ss, (0, plant.n_d, plant.n_u),
                    (0, plant.n_e, plant.n_y))
    else:
        raise PlantFileError(f"cannot save object of type {type(plant).__name__}")


def load_plant(path):
    """UncertainPlant when w/v channels are present, else GeneralizedPlant."""
    ss, pin, pout = load_system(path)
    if pin is None or pout is None:
        raise PlantFileError(f"{path} has no partition block")
    if len(pin) != 3 or len(pout) != 3:
        raise PlantFileError("partitions must list three channel sizes")
    n_w, n_d, n_u = pin
    n_v, n_e, n_y = pout
    if n_w == 0 and n_v == 0:
        return GeneralizedPlant(ss, n_d=n_d, n_u=n_u, n_e=n_e, n_y=n_y)
    return UncertainPlant(ss, n_w=n_w, n_d=n_d, n_u=n_u,
                          n_v=n_v, n_e=n_e, n_y=n_y)


def save_controller(path, K: StateSpace):
    save_system(path, K)


def load_controller(path) -> StateSpace:
    ss, _, _ = load_system(path)
    return ss


# -- CSV emitters -------------------------------------------------------

def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_freqresp_csv(path, sys: StateSpace, thetas):
    from .norms import sigma_max_on_grid

    thetas = np.asarray(thetas, dtype=float)
    sig = sigma_max_on_grid(sys, thetas)
    ts = sys.sample_time
    omega = thetas if ts == UNIT else thetas / ts
    rows = [(float(t), float(w), float(s))
            for t, w, s in zip(thetas, omega, sig)]
    write_csv(path, ["theta_rad_per_sample", "omega_rad_per_s", "sigma_max"], rows)


def write_sigma_curve_csv(path, sys: StateSpace, thetas):
    """sigma_max(T(e^{j theta})) against omega (the column 2-norm for a
    single input)."""
    from .norms import sigma_max_on_grid

    thetas = np.asarray(thetas, dtype=float)
    sig = sigma_max_on_grid(sys, thetas)
    ts = sys.sample_time
    omega = thetas if ts == UNIT else thetas / ts
    write_csv(path, ["omega", "sigma"],
               [(float(w), float(s)) for w, s in zip(omega, sig)])


def write_timeresp_csv(path, signal, sample_time):
    ts = 1.0 if sample_time == UNIT else float(sample_time)
    header = ["t_s"] + [f"y_{k + 1}" for k in range(signal.dim)]
    rows = []
    for i in range(len(signal)):
        t = (signal.t0 + i) * ts
        rows.append((float(t), *[float(v) for v in signal.samples[i]]))
    write_csv(path, header, rows)


def write_pareto_csv(path, front):
    write_csv(path,
               ["gamma_d", "gamma_J_lower", "gamma_J_upper",
                "hinf_of_weighted_loop", "controller_order"],
               [(float(gd), float(lo), float(hi), float(h), int(o))
                for gd, lo, hi, h, o in front.csv_rows()])


def write_dk_trace_csv(path, trace):
    """One row per ``dk_trace`` entry; ``k_levels`` is the number of levels
    its K-step search tried.  A column the entry lacks is left empty."""
    rows = []
    for t in trace:
        fit_error, peak = t.get("d_fit_error"), t.get("scaled_peak")
        rows.append((int(t.get("iter", -1)), float(t.get("hinf_value", np.nan)),
                     int(t.get("d_order", -1)),
                     "" if fit_error is None else float(fit_error),
                     "" if peak is None else float(peak),
                     len(t["k_levels"]) if "k_levels" in t else ""))
    write_csv(path, ["iter", "hinf_value", "d_order", "d_fit_error", "scaled_peak",
                      "k_levels"], rows)


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
