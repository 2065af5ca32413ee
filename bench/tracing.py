"""Per-layer spans and counters around the public functions of regretsynth.

The package modules import one another's functions by name (``from
.norms import hinf_norm`` in ``hinf``, ``regret``, ``robust`` and
``cli``), so replacing a function in its defining module alone would
miss most calls.  :class:`Tracer` replaces every module-level binding of
each wrapped function across the loaded ``regretsynth`` modules, and the
``StateSpace.freqresp`` method on its class, and puts the originals
back on exit.  The package source is not touched.

A span is one call.  Its self time is its duration minus the durations
of the spans it directly encloses; its inclusive time counts only the
outermost span of a name.  Spans are aggregated per name (and per
parent -> child edge) in memory instead of being stored one by one:
a robust-dk round makes about 39 thousand of them.  The recorder keeps
one stack, so it assumes a single thread (REGRET_SYNTH_THREADS=1).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("statespace", "plants", "signals", "norms", "riccati", "noncausal",
           "spectral", "hinf", "regret", "robust", "parallel", "examples",
           "io", "cli")

# solution routes of riccati.solve_dare and verdicts of hinf.synth_hinf
DARE_ROUTES = ("sda", "zero_q_dichotomy", "qz", "value_iteration", "empty",
               "other")
HINF_VERDICTS = ("ok", "norm_at_level", "closed_loop_unstable", "parrott",
                 "X_indefinite", "Y_indefinite", "spectral_radius",
                 "X_riccati", "Y_riccati", "other")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _freqresp_counts(args, kwargs, out):
    yield "angles", out.shape[0]


def _dare_counts(args, kwargs, out):
    route = out.method if out.method in DARE_ROUTES else "other"
    yield f"route.{route}", 1


def _synth_counts(args, kwargs, out):
    reason = out.metadata.get("reason", "ok" if out.feasible else "other")
    yield f"verdict.{reason if reason in HINF_VERDICTS else 'other'}", 1


def _dk_counts(args, kwargs, out):
    yield "feasible", int(bool(out.feasible))
    yield "iterations", len(out.metadata.get("dk_trace", ()))


def _fit_counts(args, kwargs, out):
    yield "order", out.order


def _cost_counts(args, kwargs, out):
    yield "samples", len(_arg(args, kwargs, 1, "d"))


# (module, function, counts read from the call and its result)
WRAPPED = (
    ("riccati", "solve_dare", _dare_counts),
    ("noncausal", "build_noncausal", None),
    ("noncausal", "build_phat", None),
    ("noncausal", "eval_noncausal_cost", _cost_counts),
    ("spectral", "spectral_factor_regret", None),
    ("hinf", "synth_hinf", _synth_counts),
    ("hinf", "hinf_optimize", None),
    ("norms", "hinf_norm", None),
    ("statespace", "freqresp", _freqresp_counts),  # StateSpace.freqresp
    ("plants", "lft_lower", None),
    ("plants", "lft_upper", None),
    ("signals", "simulate", None),
    ("signals", "response_energy", None),
    ("regret", "synth_regret", None),
    ("regret", "optimize_special", None),
    ("regret", "pareto_front", None),
    ("regret", "verify_regret", None),
    ("robust", "dk_iteration", _dk_counts),
    ("robust", "robust_perf_test", None),
    ("robust", "matrix_rp_test", None),
    ("robust", "fit_dscale", _fit_counts),
    ("robust", "sample_uncertainty", None),
    ("robust", "verify_robust_regret", None),
)

# counters reported even when zero, so every run prints the same names
COUNTERS = (
    ("statespace.freqresp.angles",)
    + tuple(f"riccati.solve_dare.route.{r}" for r in DARE_ROUTES)
    + tuple(f"hinf.synth_hinf.verdict.{v}" for v in HINF_VERDICTS)
    + ("robust.dk_iteration.feasible", "robust.dk_iteration.iterations",
       "robust.fit_dscale.order", "noncausal.eval_noncausal_cost.samples")
)


def layer_names():
    return [f"{module}.{fn}" for module, fn, _ in WRAPPED]


def metric_units():
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["trace.run_s"] = "s"
    return units


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.edges = Counter()       # (parent, child) -> calls
        self.edge_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []             # [name, child time] per open span
        self._open = Counter()       # open spans per name
        self._restore = []

    def _wrap(self, name, fn, counts):
        stack, open_ = self._stack, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if not open_[name]:
                    self.incl_s[name] += dt
                self.edges[parent, name] += 1
                self.edge_s[parent, name] += dt
                if stack:
                    stack[-1][1] += dt
            if counts is not None:
                for key, n in counts(args, kwargs, out):
                    self.counts[f"{name}.{key}"] += n
            return out

        span.traced_name = name
        return span

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for m in MODULES:
            importlib.import_module(f"regretsynth.{m}")
        mods = [mod for key, mod in sorted(sys.modules.items())
                if key == "regretsynth" or key.startswith("regretsynth.")]
        for module, fn_name, counts in WRAPPED:
            name = f"{module}.{fn_name}"
            if name == "statespace.freqresp":
                cls = sys.modules["regretsynth.statespace"].StateSpace
                orig = cls.__dict__["freqresp"]
                self._restore.append((cls, "freqresp", orig))
                setattr(cls, "freqresp", self._wrap(name, orig, counts))
                continue
            orig = getattr(sys.modules[f"regretsynth.{module}"], fn_name)
            span = self._wrap(name, orig, counts)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, span)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, rounds: int, run_s: float) -> dict:
        """Per-layer metrics per round, as name -> (value, unit)."""
        out = {}
        for name, unit in metric_units().items():
            if name == "trace.run_s":
                out[name] = (run_s, unit)
            elif name.endswith(".calls"):
                out[name] = (self.calls[name[: -len(".calls")]] / rounds, unit)
            elif name.endswith(".self_s"):
                out[name] = (self.self_s[name[: -len(".self_s")]] / rounds, unit)
            else:
                out[name] = (self.counts[name] / rounds, unit)
        return out

    def report(self, rounds: int) -> dict:
        """Everything recorded, per round, for the trace file."""
        return {
            "layers": {name: {"calls": self.calls[name] / rounds,
                              "self_s": self.self_s[name] / rounds,
                              "inclusive_s": self.incl_s[name] / rounds}
                       for name in layer_names()},
            "edges": [{"parent": p, "child": c, "calls": n / rounds,
                       "inclusive_s": self.edge_s[p, c] / rounds}
                      for (p, c), n in sorted(self.edges.items(),
                                              key=lambda kv: -self.edge_s[kv[0]])],
            "counts": {k: self.counts[k] / rounds for k in COUNTERS},
        }
