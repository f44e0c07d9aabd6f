"""Per-layer tracing for one benchmark repetition, from outside the program.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` wraps a
few public entry points and constructors at class level, in this
process only:

* spans (name, start, end, parent) around ``lower_study``, each cell's
  simulate call and every ``Environment.run`` / ``run_until_event``,
  kept in memory and written out by :meth:`Tracer.finish`;
* a profile hook (:mod:`cProfile`) whose per-function self time is
  summed by the layer its module belongs to, and whose call counts give
  the chunk-relay advances and router submissions;
* counters read off instances captured from their constructors: the
  kernel sequence counter of every ``Environment``, the transfer count
  of every ``BandwidthChannel``, the fetch counters of every
  ``WeightResidency``, and every ``set_active_*`` gateway write with
  whether it changed anything;
* the result fields of each cell (resilience, telemetry, fidelity).
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.cluster.router import ClusterRouter
from repro.experiments import fidelity
from repro.interposer.photonic.fabric import (
    PhotonicInterposerFabric,
    _ChunkRelay,
)
from repro.mapping.residency import WeightResidency
from repro.sim.core import Environment
from repro.sim.resources import BandwidthChannel

from capture import capture

LAYERS = ("sim", "interposer", "core", "mapping", "serving", "cluster",
          "fidelity", "obs", "studies", "runner", "other")
"""Every layer self time is attributed to; ``other`` is everything
outside the named modules (the standard library, numpy, the DNN and
device models, the benchmark itself)."""

LAYER_FILES = {
    "experiments/fidelity.py": "fidelity",
    "core/analytic.py": "fidelity",
    "experiments/runner.py": "runner",
}
LAYER_PACKAGES = {"sim", "interposer", "core", "mapping", "serving",
                  "cluster", "obs", "studies"}

PACKAGE_ROOT = str(Path(repro.__file__).parent) + os.sep


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if not filename.startswith(PACKAGE_ROOT):
        return "other"
    relative = filename[len(PACKAGE_ROOT):].replace(os.sep, "/")
    if relative in LAYER_FILES:
        return LAYER_FILES[relative]
    package = relative.split("/", 1)[0]
    return package if package in LAYER_PACKAGES else "other"


def profile_key(function) -> tuple[str, int, str]:
    """The :mod:`pstats` key of a Python function."""
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Spans, profile and counters of one traced repetition."""

    def __init__(self, start: float):
        self.start = start
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.profile = cProfile.Profile()
        # Instances built during the current cell, read and dropped at
        # its end so no simulation outlives its cell.
        self.envs: list = []
        self.channels: list = []
        self.residencies: list = []
        self.gateway_writes = 0
        self.gateway_unchanged = 0
        self.totals = dict.fromkeys((
            "cells", "completed", "events", "transfers", "weight_hits",
            "weight_fetches", "kv_refusals", "requests", "attempts",
            "wasted", "telemetry_spans", "fidelity_cells", "fluid_cells",
            "warm_forks", "calibration_events",
        ), 0)

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            [name, time.perf_counter() - self.start, None, parent]
        )
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self.start
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _span_seconds(self, prefix: str) -> float:
        return sum(end - begin for name, begin, end, _ in self.spans
                   if name.startswith(prefix))

    # -- instrumentation -----------------------------------------------------

    def _spanned(self, cls, method: str, name: str) -> None:
        original = getattr(cls, method)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(cls, method, wrapper)

    def _count_gateway_writes(self) -> None:
        fabric = PhotonicInterposerFabric
        set_memory = fabric.set_active_memory_gateways
        set_chiplet = fabric.set_active_chiplet_gateways
        tracer = self

        def memory(self, count):
            tracer.gateway_writes += 1
            if count == int(self.active_memory_gateways.value):
                tracer.gateway_unchanged += 1
            return set_memory(self, count)

        def chiplet(self, chiplet_id, n_write, n_read):
            tracer.gateway_writes += 1
            if (n_write == int(self.active_write_gateways[chiplet_id].value)
                    and n_read
                    == int(self.active_read_gateways[chiplet_id].value)):
                tracer.gateway_unchanged += 1
            return set_chiplet(self, chiplet_id, n_write, n_read)

        fabric.set_active_memory_gateways = memory
        fabric.set_active_chiplet_gateways = chiplet

    def install(self) -> None:
        """Wrap the entry points and constructors, then start profiling."""
        capture(Environment, self.envs)
        capture(BandwidthChannel, self.channels)
        capture(WeightResidency, self.residencies)
        self._spanned(Environment, "run", "env.run")
        self._spanned(Environment, "run_until_event", "env.run_until_event")
        self._count_gateway_writes()
        # Resolved up front: a renamed function fails here, loudly,
        # instead of reading as zero calls.
        self.keys = {
            "chunk_advances": profile_key(_ChunkRelay._advance),
            "route_calls": profile_key(ClusterRouter.submit),
            "calibration": profile_key(fidelity._calibrate),
            "fluid_eval": profile_key(fidelity._evaluate_fluid),
        }
        self.profile.enable()

    @contextmanager
    def paused(self):
        """Profile nothing inside the block."""
        self.profile.disable()
        try:
            yield
        finally:
            self.profile.enable()

    # -- cells ---------------------------------------------------------------

    def begin_cell(self, name: str) -> None:
        self._open(name)

    def end_cell(self, result) -> None:
        """Close the cell's span and fold its counters into the totals."""
        self._close(self.stack[-1])
        totals = self.totals
        events = [env._sequence for env in self.envs]
        totals["cells"] += 1
        totals["events"] += sum(events)
        totals["transfers"] += sum(ch.transfer_count for ch in self.channels)
        totals["weight_hits"] += sum(r.fetch_hits for r in self.residencies)
        totals["weight_fetches"] += sum(
            r.fetches_issued for r in self.residencies
        )
        self.envs.clear()
        self.channels.clear()
        self.residencies.clear()
        if result is None:
            return
        totals["completed"] += result.requests_completed
        totals["kv_refusals"] += getattr(result, "kv_refusals", 0)
        if result.resilience is not None:
            totals["requests"] += result.resilience.requests
            totals["attempts"] += result.resilience.attempts
            totals["wasted"] += result.wasted_attempts
        else:
            totals["requests"] += result.requests_injected
            totals["attempts"] += result.requests_injected
        if result.telemetry is not None:
            totals["telemetry_spans"] += result.telemetry.span_count
        report = result.fidelity
        if report is not None:
            totals["fidelity_cells"] += 1
            totals["fluid_cells"] += report.mode_used == "fluid"
            totals["warm_forks"] += report.warm_forked
            # A fallback's full run builds the cell's last environment;
            # every earlier one is calibration.
            if report.mode_used == "des-fallback":
                events = events[:-1]
            totals["calibration_events"] += sum(events)

    # -- results -------------------------------------------------------------

    def finish(self, spans_path: str) -> dict:
        """Stop profiling, write the spans, return the per-layer figures."""
        self.profile.disable()
        stats = pstats.Stats(self.profile).stats
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (filename, _, _), (_, _, own, _, _) in stats.items():
            self_s[layer_of(filename)] += own

        def calls(name: str) -> int:
            entry = stats.get(self.keys[name])
            return entry[1] if entry else 0

        def cumulative(name: str) -> float:
            entry = stats.get(self.keys[name])
            return entry[3] if entry else 0.0

        path = Path(spans_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [
            {"name": name, "start_s": begin, "end_s": end, "parent": parent}
            for name, begin, end, parent in self.spans
        ]}))

        t = self.totals
        completed = t["completed"]
        figures = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        figures.update({
            "sim.events": t["events"],
            "sim.events_per_request": ratio(t["events"], completed),
            "interposer.chunk_advances_per_request":
                ratio(calls("chunk_advances"), completed),
            "interposer.channel_transfers_per_request":
                ratio(t["transfers"], completed),
            "interposer.gateway_writes_per_request":
                ratio(self.gateway_writes, completed),
            "interposer.gateway_writes_unchanged_share":
                ratio(self.gateway_unchanged, self.gateway_writes),
            "mapping.weight_hit_share": ratio(
                t["weight_hits"], t["weight_hits"] + t["weight_fetches"]
            ),
            "mapping.kv_refusals": t["kv_refusals"],
            "serving.attempts_per_request":
                ratio(t["attempts"], t["requests"]),
            "serving.wasted_attempt_share": ratio(t["wasted"], t["attempts"]),
            "cluster.route_calls_per_request":
                ratio(calls("route_calls"), completed),
            "obs.spans_recorded": t["telemetry_spans"],
            "fidelity.calibration_s": cumulative("calibration"),
            "fidelity.fluid_eval_s": cumulative("fluid_eval"),
            "fidelity.fluid_cell_share": ratio(t["fluid_cells"], t["cells"]),
            "fidelity.warm_fork_share":
                ratio(t["warm_forks"], t["fidelity_cells"]),
            "fidelity.calibration_events": t["calibration_events"],
            "studies.lower_s": self._span_seconds("lower_study"),
        })
        return figures
