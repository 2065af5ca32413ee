"""One-off reference for the REGRET_SYNTH_THREADS thread pool.

    python3 bench/thread_reference.py

times the 8-point nominal Boeing Pareto front (the nominal-design front)
with the pool at 1 and at 2 threads, alternating, and prints each time
and the medians.  The benchmark itself always runs at 1 thread.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import run

REPEATS = 3


def main() -> int:
    rs = run.import_regretsynth()
    import workloads

    P = rs.build_example("boeing747").nominal()
    K0 = rs.build_noncausal(P)
    g_inf, _ = rs.optimize_special(P, "hinf", *workloads.ACCEPT_TOL["boeing747"], K0=K0)
    times = {1: [], 2: []}
    fronts = {}
    for _ in range(REPEATS):
        for threads in (1, 2):
            os.environ["REGRET_SYNTH_THREADS"] = str(threads)
            t0 = time.perf_counter()
            front = rs.pareto_front(P, n_points=workloads.FRONT_POINTS,
                                    tol_abs=workloads.FRONT_TOL[0],
                                    tol_rel=workloads.FRONT_TOL[1], K0=K0,
                                    gamma_inf=g_inf)
            times[threads].append(time.perf_counter() - t0)
            fronts[threads] = tuple(front.gamma_j_values())
    os.environ["REGRET_SYNTH_THREADS"] = "1"
    for threads, ts in times.items():
        print(f"{threads} thread(s): " + ", ".join(f"{t:.3f}" for t in ts)
              + f" s; median {statistics.median(ts):.3f} s")
    print("same front at both thread counts:", fronts[1] == fronts[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
