"""Per-layer tracing installed from outside the package.

A :class:`Tracer` swaps wrappers in for the public functions and methods of
each cwom layer (and for ``numpy.fft.fft``/``ifft``), keeps aggregate
counters for every wrapped call and records spans at the coarse boundaries
(experiment, evolve/ensemble, trajectory, step). Self time is the wrapped
call's duration minus the time of the wrapped calls nested inside it, so
the per-layer self times of one solve add up to the traced wall time less
the untraced glue around it. Spans stay in memory until the run writes
them out (:meth:`Tracer.span_table`).

Wrapping is by identity: a function is replaced in every ``cwom`` module
that holds a reference to it, because the package imports functions by
name (``from ..core.interaction import interaction_rhs``) and patching only
the defining module would miss those call sites.
"""

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, counter key, records a span)
FUNCTIONS = [
    ("cwom.core.spectral", "spectral_derivative", "spectral.derivative", False),
    ("cwom.core.spectral", "apply_phase", "spectral.apply_phase", False),
    ("cwom.core.interaction", "interaction_rhs", "interaction.rhs", False),
    ("cwom.core.interaction", "total_energy", "interaction.total_energy", False),
    ("cwom.dynamics.stepper", "evolve", "stepper.evolve", True),
    ("cwom.dynamics.stepper", "observe_photon_number", "observers", False),
    ("cwom.dynamics.stepper", "observe_phonon_number", "observers", False),
    ("cwom.dynamics.stepper", "observe_snapshot", "observers", False),
    ("cwom.dynamics.bath", "sample_noise_field", "bath.noise", False),
    ("cwom.dynamics.rng", "trajectory_generator", "rng.generators", False),
    ("cwom.lattice", "simulate_array", "lattice.simulate", True),
    ("cwom.experiments", "array_convergence_study", "experiments", True),
    ("cwom.experiments", "run_two_branch_gain", "experiments", True),
    ("cwom.experiments", "run_forward_comb", "experiments", True),
    ("cwom.experiments", "run_swap_profile", "experiments", True),
    ("cwom.cli.main", "main", "cli.main", True),
    ("cwom.cli.config", "load_config", "cli.config", False),
    ("cwom.cli.config", "parse_config_text", "cli.config", False),
    ("cwom.cli.config", "serialize_config", "cli.config", False),
    ("cwom.cli.scenarios", "resolve_config", "cli.config", False),
]
OUTPUT_WRITERS = [("cwom.cli.output", name)
                  for name in ("write_csv", "write_snapshot", "write_json_report")]
# (module, class, method, counter key, records a span)
METHODS = [
    ("cwom.dynamics.stepper", "Stepper", "step_inplace", "stepper.step", True),
    ("cwom.multibranch", "MultiBranchStepper", "step_inplace", "multibranch.step",
     True),
    ("cwom.lattice", "LatticeStepper", "step_inplace", "lattice.step", True),
    ("cwom.dynamics.boundary", "DepositPlan", "apply", "boundary.deposit", False),
]
STEP_KEYS = ("stepper.step", "multibranch.step", "lattice.step")

# Per-layer metrics: name -> (unit, better). Emitted for every workload;
# a layer the workload bypasses reports zero.
PER_LAYER = {
    "spectral.derivative.calls": ("count", "lower"),
    "spectral.derivative.self_s": ("s", "lower"),
    "spectral.apply_phase.calls": ("count", "lower"),
    "spectral.apply_phase.self_s": ("s", "lower"),
    "fft.calls": ("count", "lower"),
    "fft.self_s": ("s", "lower"),
    "fft.transforms_per_step": ("1", "lower"),
    "fft.bytes_computed": ("B", "lower"),
    "interaction.rhs.calls": ("count", "lower"),
    "interaction.rhs.self_s": ("s", "lower"),
    "interaction.total_energy.calls": ("count", "lower"),
    "interaction.total_energy.self_s": ("s", "lower"),
    "stepper.step.calls": ("count", "lower"),
    "stepper.step.self_s": ("s", "lower"),
    "stepper.step_us.p50": ("us", "lower"),
    "stepper.step_us.p99": ("us", "lower"),
    "stepper.evolve.calls": ("count", "lower"),
    "stepper.ensemble.trajectories": ("count", "higher"),
    "observers.calls": ("count", "lower"),
    "observers.self_s": ("s", "lower"),
    "bath.noise.calls": ("count", "lower"),
    "bath.noise.self_s": ("s", "lower"),
    "boundary.deposit.calls": ("count", "lower"),
    "boundary.deposit.self_s": ("s", "lower"),
    "rng.generators": ("count", "lower"),
    "multibranch.step.calls": ("count", "lower"),
    "multibranch.step.self_s": ("s", "lower"),
    "multibranch.step_us.p50": ("us", "lower"),
    "lattice.step.calls": ("count", "lower"),
    "lattice.step.self_s": ("s", "lower"),
    "experiments.calls": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.config.s": ("s", "lower"),
    "cli.output.write_s": ("s", "lower"),
    "cli.output.bytes": ("B", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Counters, self times and spans for one or more traced solves.

    Call :meth:`install` before a solve and :meth:`uninstall` after it;
    :meth:`snapshot` then returns that solve's counters and resets them.
    """

    def __init__(self):
        self._stats = defaultdict(_Stat)
        self._extra = defaultdict(float)
        self._durations = defaultdict(list)
        self._stack = []  # frames: [child seconds, enclosing span id]
        self._patches = []
        self.spans = []   # (id, parent id, name, start s, end s)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, fn, span=False, after=None):
        stats, stack, spans = self._stats, self._stack, self.spans
        durations = self._durations if key in STEP_KEYS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = len(spans) if span else parent
            if span:
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stat = stats[key]
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[sid] = (sid, parent, key, t0, t1)
                if durations is not None:
                    durations[key].append(elapsed)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch_everywhere(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cwom" or name.startswith("cwom.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, key, span in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            self._patch_everywhere(original, self._wrap(key, original, span))
        for modname, attr in OUTPUT_WRITERS:
            original = getattr(importlib.import_module(modname), attr)
            self._patch_everywhere(original, self._wrap(
                "cli.output", original, after=self._count_written))
        for modname, cls, method, key, span in METHODS:
            owner = getattr(importlib.import_module(modname), cls)
            self._patch(owner, method, self._wrap(key, getattr(owner, method), span))

        stepper = sys.modules["cwom.dynamics.stepper"]
        make_energy = stepper.make_energy_observer
        run_ensemble = stepper.run_ensemble

        def energy_observer(*args, **kwargs):
            return self._wrap("observers", make_energy(*args, **kwargs))

        def ensemble(run_one, n_trajectories, *args, **kwargs):
            self._extra["stepper.ensemble.trajectories"] += n_trajectories
            return run_ensemble(self._wrap("trajectory", run_one, True),
                                n_trajectories, *args, **kwargs)

        self._patch_everywhere(make_energy, energy_observer)
        self._patch_everywhere(run_ensemble, self._wrap("stepper.ensemble", ensemble,
                                                        True))
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr, self._wrap("fft", getattr(np.fft, attr),
                                                 after=self._count_fft))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_fft(self, args, result):
        # read + write of the complex transform, computed from array sizes
        self._extra["fft.bytes_computed"] += 2 * result.nbytes

    def _count_written(self, args, result):
        self._extra["cli.output.bytes"] += os.path.getsize(args[0])

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer values of the solves traced since the last snapshot."""
        s, extra, dur = self._stats, self._extra, self._durations
        steps = sum(s[key].calls for key in STEP_KEYS)

        def p(key, q):
            return float(np.percentile(dur[key], q)) * 1e6 if dur[key] else 0.0

        values = {
            "fft.transforms_per_step": s["fft"].calls / steps if steps else 0.0,
            "fft.bytes_computed": extra["fft.bytes_computed"],
            "stepper.step_us.p50": p("stepper.step", 50),
            "stepper.step_us.p99": p("stepper.step", 99),
            "multibranch.step_us.p50": p("multibranch.step", 50),
            "stepper.ensemble.trajectories": extra["stepper.ensemble.trajectories"],
            "rng.generators": s["rng.generators"].calls,
            "cli.config.s": s["cli.config"].self_s,
            "cli.output.write_s": s["cli.output"].self_s,
            "cli.output.bytes": extra["cli.output.bytes"],
            "steps": steps,
        }
        for metric in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if metric not in values and field in ("calls", "self_s"):
                values[metric] = getattr(s[layer], field)
        self._stats.clear()
        self._extra.clear()
        self._durations.clear()
        return values

    def span_table(self) -> dict:
        """Spans as columns, for writing out once the run ends."""
        names = sorted({sp[2] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "columns": ["id", "parent", "name", "start_s", "end_s"],
                "rows": [[sid, parent, index[name], t0, t1]
                         for sid, parent, name, t0, t1 in self.spans]}
