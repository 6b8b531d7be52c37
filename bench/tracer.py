"""Per-layer tracing of a wbwaves process, installed from outside the package.

Every layer boundary is wrapped where its caller looks the name up: a module
that did ``from .dynamics import evolve`` holds its own binding, so both
``wbwaves.dynamics.evolve`` and ``wbwaves.cli.evolve`` are replaced.  Spans
are aggregated as they close (calls, busy seconds, self seconds), so memory
stays flat however many steps a run takes.  A span's self time is its
duration minus the time of the spans opened directly inside it.
"""

from __future__ import annotations

import os
import time

import numpy as np

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


class Tracer:
    def __init__(self):
        self.spans = {}   # name -> [calls, busy_s, self_s]
        self.counts = {}  # name -> summed quantity (bytes, iterations, ...)
        self._open = []   # child time accumulated by each open span
        self._sweep_start = 0.0  # None while a Picard solve awaits its first sweep

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, on_exit=None, on_enter=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        opened = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            if on_enter is not None:
                on_enter(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = opened.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if opened:
                    opened[-1] += elapsed
            if on_exit is not None:
                on_exit(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **hooks):
        """Replace ``owner.attr`` by a traced version, keeping classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, **hooks)))
        else:
            setattr(owner, attr, self.wrap(name, raw, **hooks))

    def install(self):
        """Wrap every layer boundary of the wbwaves package."""
        import wbwaves.cli as cli
        import wbwaves.config as config
        import wbwaves.dynamics as dynamics
        import wbwaves.experiments as experiments
        import wbwaves.functionals as functionals
        import wbwaves.spectral as spectral
        import wbwaves.state as state

        def fft_bytes(args, result):
            self.add("spectral.fft_bytes_computed", getattr(args[0], "nbytes", 0) + result.nbytes)

        for fname in FFT_FUNCTIONS:
            self.patch(np.fft, fname, "spectral.fft", on_exit=fft_bytes)
        self.patch(spectral.Field, "from_coeffs", "spectral.from_coeffs")

        for step in ("_lawson_rk4_step", "_reference_rk4_step"):
            self.patch(dynamics, step, "dynamics.step")
        self.patch(dynamics._Ops, "nonlinear", "dynamics.nonlinear", on_enter=self._arm_sweep)
        self.patch(dynamics._Ops, "propagator", "dynamics.propagator_lookup")
        self.patch(dynamics._Propagator, "__init__", "dynamics.propagator_build")
        self.patch(dynamics._Propagator, "apply", "dynamics.propagator_apply")
        self.patch(dynamics._Ops, "__init__", "dynamics.ops_build")
        for module in (dynamics, cli, experiments):
            self.patch(module, "evolve", "dynamics.evolve")
        self.patch(
            dynamics, "picard_solve", "dynamics.picard",
            on_enter=self._start_picard, on_exit=self._end_picard,
        )

        self.patch(functionals.EnergyReport, "measure", "functionals.report")
        for module in (state, functionals, experiments, dynamics):
            self.patch(module, "weighted_pair_norm", "state.weighted_norm")
        # The Picard defect norm calls the squared norm directly.
        self.patch(dynamics, "_weighted_sq_coeffs", "state.weighted_norm")

        for study in (
            "kappa_limit_study", "mu_limit_study", "invariant_region_test",
            "dissipation_test", "stability_test", "conservation_check",
        ):
            self.patch(cli, study, "experiments.study")

        self.patch(cli, "load_config", "config.load")
        self.patch(config, "build_preset", "presets.initial_state")
        self.patch(experiments, "random_bandlimited", "presets.initial_state")

        def written(args, result):
            self.add("cli.bytes_written", os.path.getsize(args[0]))

        for writer in ("_write_csv", "_write_json"):
            self.patch(cli, writer, "cli.write", on_exit=written)

    def _start_picard(self, start):
        self._sweep_start = None

    def _arm_sweep(self, start):
        if self._sweep_start is None:
            self._sweep_start = start

    def _end_picard(self, args, result):
        if self._sweep_start:
            self.add("dynamics.picard_sweep_s", time.perf_counter() - self._sweep_start)
        self._sweep_start = 0.0
        self.add("dynamics.picard_iterations", result.iterations)

    def snapshot(self):
        """Aggregated spans and counts, plus operator-cache occupancy now."""
        import wbwaves.dynamics as dynamics

        cached = sum(len(ops._props) for ops in dynamics._OPS_CACHE.values())
        return {
            "spans": {k: v for k, v in self.spans.items() if v[0]},
            "counts": dict(self.counts, **{"dynamics.cached_propagators": cached}),
        }
