"""Benchmark of regretsynth: nominal design, robust DK-iteration, verification.

    python3 bench/run.py --workload nominal-design --seed 1 --seconds 1 --trace 0

runs one workload in this process and prints, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with no tracing installed; with ``--trace 1`` the rounds run
again under :class:`tracing.Tracer` and the metrics are the per-layer
ones.  ``--workload all`` runs every workload in turn, each in a process
of its own.
Results and traces are written under bench/results/.  See README.md.

Times are CPU seconds of the main thread (time.thread_time), scaled to a
reference host speed by hostspeed.HostSpeed: a fixed kernel runs between
the operations, and each interval's CPU time, without the kernel's, is
multiplied by the kernel's reference time over its median time in that
interval.  The unscaled CPU and wall times are kept in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# The thread pool and the BLAS threads are pinned, so the environment
# cannot change the numbers.
THREAD_ENV = ("REGRET_SYNTH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS")


def import_regretsynth():
    """The package from this checkout's src/, never an installed copy."""
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import regretsynth

    if Path(regretsynth.__file__).resolve().parent != SRC / "regretsynth":
        raise ImportError(f"regretsynth imported from {regretsynth.__file__}, "
                          f"not from {SRC}")
    return regretsynth


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(rs, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import hostspeed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](rs, seed)
    speed = hostspeed.HostSpeed()
    setups, setups_cpu, setups_wall = [], [], []

    def timed_setups():
        """One batch of set-ups, timed as one interval; returns the last state."""
        mark = speed.start()
        for _ in range(wl.setup_batch):
            state = wl.setup()
        cpu, wall, scaled = speed.stop(mark)
        setups.append(scaled / wl.setup_batch)
        setups_cpu.append(cpu / wl.setup_batch)
        setups_wall.append(wall / wl.setup_batch)
        return state

    # The timer samples the host while the work is timed; none under
    # tracing, where the kernel would run inside spans (the per-layer
    # metrics are not scaled), and none during the checks.
    with contextlib.nullcontext() if trace else speed:
        # Set-up batches are spread over the run: half of them before the
        # rounds, one after each round, the rest at the end, so that the
        # median draws on more than one phase of the host's speed.
        for _ in range(wl.setup_batches // 2):
            state = timed_setups()
        tracer = tracing.Tracer() if trace else None
        ops = workloads.Ops()
        times, cpus, walls, first, bad = [], [], [], None, []
        start = time.perf_counter()
        while True:
            mark = speed.start()
            if tracer is not None:
                with tracer:
                    out = wl.round(state, ops)
            else:
                out = wl.round(state, ops)
            cpu, wall, scaled = speed.stop(mark)
            times.append(scaled)
            cpus.append(cpu)
            walls.append(wall)
            fp = wl.fingerprint(out)
            if first is None:
                first, first_out = fp, out
            elif fp != first:
                bad.append(f"round {len(times)} returned other outputs than round 1")
            timed_setups()
            if time.perf_counter() - start >= seconds:
                break
        rounds = len(times)
        run_s = statistics.median(times)
        while len(setups) < wl.setup_batches:
            timed_setups()
        peak_mb = peak_rss_mb()  # before the checks, which hold large LU factors
    bad += wl.check(state, first_out)
    result = {"workload": name, "seed": seed, "rounds": rounds,
              "round_s": times, "round_cpu_s": cpus, "round_wall_s": walls,
              "setup_s": setups, "setup_cpu_s": setups_cpu, "setup_wall_s": setups_wall,
              "speed_samples": speed.samples, "problems": bad}
    if tracer is not None:
        # spans are timed on the wall clock, so they are held to wall time
        traced_s = sum(walls) / rounds
        metrics = tracer.metrics(rounds, traced_s)
        self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        if self_sum > traced_s:
            bad.append(f"self times sum to {self_sum:.4g} s, above the traced "
                       f"round time {traced_s:.4g} s")
        report = tracer.report(rounds)
        report["self_s_sum"] = self_sum
        report["run_s"] = traced_s
        report["overhead"] = trace_overhead(name, seed, traced_s)
        result["trace"] = report
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "trials_per_s": (wl.trials_per_round() / run_s, "1/s"),
        }
        for label, gamma in wl.robust_gammas(state, first_out).items():
            metrics[f"robust_gamma.{label}"] = (gamma, "1")
    result.update(correct=not bad, attempted=ops.attempted, failed=ops.failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    RESULTS.mkdir(exist_ok=True)
    suffix = ".trace.json" if trace else ".json"
    (RESULTS / f"{name}-seed{seed}{suffix}").write_text(json.dumps(result, indent=1) + "\n")
    return result


def trace_overhead(name: str, seed: int, traced_s: float):
    """Traced round wall time against the untraced run of the same workload
    and seed, when that run has left its result file."""
    path = RESULTS / f"{name}-seed{seed}.json"
    if not path.exists():
        return {"untraced_run_s": None, "share": None,
                "note": f"run --trace 0 first to write {path.name}"}
    untraced = statistics.median(json.loads(path.read_text())["round_wall_s"])
    return {"untraced_run_s": untraced, "share": traced_s / untraced - 1.0}


def print_human(res: dict):
    print(f"[{res['workload']}] seed {res['seed']}: {res['rounds']} round(s), "
          f"attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for key, m in res["metrics"].items():
        if not (key.endswith(".calls") or key.endswith(".self_s")) or m["value"]:
            print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    if "trace" in res:
        ov = res["trace"]["overhead"]
        if ov["share"] is None:
            print(f"  trace overhead: unknown ({ov['note']})")
        else:
            print(f"  trace overhead: {ov['share']:+.1%} against untraced run_s "
                  f"{ov['untraced_run_s']:.4g} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rs = import_regretsynth()
    except ImportError as exc:
        print(f"cannot import regretsynth from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    res = run_workload(rs, args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(res)
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed",
                                                "metrics")}))
    return 0


def run_all(args, names) -> int:
    """Every workload in turn, each in a process of its own, so that
    peak_rss_mb is that workload's peak and not the largest so far."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
