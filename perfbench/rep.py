"""One repetition of a benchmark workload, in a fresh interpreter.

Run by ``perfbench/run.py`` as a child process, so every repetition
starts with cold imports, no result cache and an empty fidelity warm
store, like a user's first ``repro study``.  It loads the workload's
study spec, lowers it and simulates every cell through the public
per-cell entry point, and prints one JSON object as its last line of
standard output: set-up time, peak memory and, per cell, its host
seconds, completed requests, p99 latency and TTFT p99, and a SHA-256
digest of the per-request records of every discrete-event run (``None``
for a fluid cell, whose result is judged against the full-DES reference
instead).

Around set-up and around every cell it times :func:`calibrate`, a fixed
piece of interpreter work that touches nothing of the program.  The
hosts this runs on change speed by up to a third over seconds to
minutes, and the calibration slows with them.  Each host time comes
with a ``host_scale`` = :data:`CALIBRATION_REFERENCE_S` / the mean of
the two calibrations around it, which turns it into seconds on a host
of fixed speed.

Usage::

    python3 perfbench/rep.py perfbench/specs/photonic_mix.json --seed 3
        [--scale 0.05] [--des-reference] [--trace-out PATH]

``--scale`` shrinks every simulated duration and fault time (the
self-test's tiny pass), ``--des-reference`` strips the fidelity section
so every point runs full DES (the accuracy reference), and
``--trace-out`` arms the per-layer tracer and writes its spans there.
"""

from __future__ import annotations

import heapq
import time

CALIBRATION_STEPS = 20_000
CALIBRATION_REFERENCE_S = 0.025
"""Host seconds :func:`calibrate` takes on the reference host: a 2-vCPU
Xeon VM, about its median there."""


class _Step:
    __slots__ = ("key", "index")

    def __init__(self, key: int, index: int):
        self.key = key
        self.index = index


def calibrate() -> float:
    """Host seconds of a fixed piece of interpreter work.

    Heap, dict and small-object traffic like an event loop's, built from
    the standard library only, so a change to the program leaves it
    alone while a slower host slows it about as much as the study.
    """
    began = time.perf_counter()
    heap: list = []
    counts: dict = {}
    x = 12345
    for index in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, index, _Step(x, index)))
        counts[index & 1023] = counts.get(index & 1023, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - began


def host_scale(before: float, after: float) -> float:
    """Reference-host seconds per host second, from two calibrations."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)


BEFORE_SETUP = calibrate()
START = time.perf_counter()

import argparse  # noqa: E402  (set-up time includes every import below)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

from repro.experiments.serving_study import (  # noqa: E402
    simulate_any_serving_cell,
)
from repro.serving.scheduler import RequestScheduler  # noqa: E402
from repro.studies import StudySpec, lower_study  # noqa: E402

from capture import capture  # noqa: E402

SCALED_KEYS = ("duration_s", "at_s")
"""Spec fields holding simulated time, scaled together by ``--scale``."""


def scaled(data, factor: float):
    """A copy of a spec's JSON with every simulated time times ``factor``."""
    if isinstance(data, dict):
        return {
            key: (value * factor
                  if key in SCALED_KEYS and isinstance(value, (int, float))
                  else scaled(value, factor))
            for key, value in data.items()
        }
    if isinstance(data, list):
        return [scaled(value, factor) for value in data]
    return data


def load(spec_path: str, seed: int, scale: float,
         des_reference: bool) -> StudySpec:
    """The workload's study spec at ``seed``, as the benchmark runs it."""
    data = json.loads(Path(spec_path).read_text())
    data["workload"]["seed"] = seed
    for axis in data.get("sweep", {}).get("axes", []):
        if axis["field"] == "workload.seed":
            # A seed axis lists offsets, so each benchmark seed owns a
            # disjoint set of spec seeds.
            axis["values"] = [seed * len(axis["values"]) + offset
                              for offset in axis["values"]]
    if des_reference:
        data.pop("fidelity", None)
    if scale != 1.0:
        data = scaled(data, scale)
    return StudySpec.from_dict(data)


def record_digest(records) -> str:
    """SHA-256 over the exact ``repr`` of every request record, in order.

    ``repr`` of a float round-trips exactly, so two digests agree only
    when every timestamp, token gap and flag of every record agrees.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def des_records(result, schedulers: list) -> list | None:
    """Every per-request record of the cell's final discrete-event run.

    ``None`` for a fluid cell.  A fidelity cell that fell back to DES
    ran its calibration first, so only the schedulers sharing the last
    environment belong to the run whose result was reported.
    """
    report = getattr(result, "fidelity", None)
    if report is not None:
        if report.mode_used != "des-fallback":
            return None
        final_env = schedulers[-1].env
        schedulers = [s for s in schedulers if s.env is final_env]
    return [record for s in schedulers for record in s.records]


def summarize(result, seconds: float, schedulers: list) -> dict:
    """The figures the orchestrator checks and aggregates for one cell."""
    report = getattr(result, "fidelity", None)
    ttft = getattr(result, "ttft", None)
    records = des_records(result, schedulers)
    return {
        "seconds": seconds,
        "completed": result.requests_completed,
        "p99_s": result.latency.p99_s,
        # A single-step request's first output is its only one.
        "ttft_p99_s": (ttft or result.latency).p99_s,
        "mode": "des" if report is None else report.mode_used,
        "digest": None if records is None else record_digest(records),
        "error": None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--des-reference", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    built: list = []
    capture(RequestScheduler, built)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer(start=START)
        tracer.install()
    spec = load(args.spec, args.seed, args.scale, args.des_reference)
    with tracer.span("lower_study") if tracer else contextlib.nullcontext():
        _, cells_per_point = lower_study(spec)
    cells = [cell for group in cells_per_point for cell in group]
    setup_s = time.perf_counter() - START

    # Calibrations run outside the profile and outside every cell:
    # calibrations[i] and [i + 1] are the ones around cell i.
    unprofiled = tracer.paused if tracer else contextlib.nullcontext
    with unprofiled():
        calibrations = [calibrate()]
    summaries = []
    for index, cell in enumerate(cells):
        if tracer is not None:
            tracer.begin_cell(f"cell[{index}]")
        began = time.perf_counter()
        try:
            result = simulate_any_serving_cell(cell)
        except Exception as error:  # a failed cell is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            summary = {"seconds": time.perf_counter() - began,
                       "error": repr(error)}
            if tracer is not None:
                tracer.end_cell(None)
        else:
            seconds = time.perf_counter() - began
            if tracer is not None:
                tracer.end_cell(result)
            summary = summarize(result, seconds, list(built))
        built.clear()
        with unprofiled():
            calibrations.append(calibrate())
        summary["host_scale"] = host_scale(*calibrations[-2:])
        summaries.append(summary)

    out = {
        "setup_s": setup_s,
        "setup_host_scale": host_scale(BEFORE_SETUP, calibrations[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cells": summaries,
    }
    if tracer is not None:
        out["layers"] = tracer.finish(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
