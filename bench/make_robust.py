"""Make anew the robust controllers that the verification workload loads.

    python3 bench/make_robust.py

runs the robust-dk designs (a fresh DK-iteration oracle per design, at
the robust-dk tolerances) and writes bench/data/<design>.sys with
``regretsynth.io.save_controller`` and bench/data/levels.json with the
certified levels.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    rs = run.import_regretsynth()
    import workloads

    wl = workloads.RobustDK(rs, seed=0)
    ops = workloads.Ops()
    out = wl.round(wl.setup(), ops)
    if ops.failed:
        print(f"{ops.failed} robust design(s) failed", file=sys.stderr)
        return 1
    workloads.DATA.mkdir(exist_ok=True)
    levels = {}
    for label, (name, kind) in workloads.ROBUST.items():
        gamma, res = out[label]
        path = workloads.DATA / f"{label}.sys"
        rs.io.save_controller(path, res.controller)
        levels[label] = {"example": name, "kind": kind, "gamma": gamma,
                         "level": list(res.metadata["level"]),
                         "tol": list(workloads.ROBUST_TOL),
                         "controller": path.name,
                         "controller_order": res.controller.n_x,
                         "dk_iterations": res.metadata["iterations"]}
        print(f"{label}: gamma {gamma:.6g}, controller order {res.controller.n_x}, "
              f"written to {path}")
    (workloads.DATA / "levels.json").write_text(json.dumps(levels, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
