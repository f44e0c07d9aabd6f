"""The simulator benchmark: one workload, one seed, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload photonic_mix --seed 3 \\
        --seconds 30 --trace 0

It repeats the workload's study, each repetition in a fresh interpreter
(``perfbench/rep.py``), until ``--seconds`` have passed and at least
:data:`MIN_REPS` repetitions ran, checks every cell against the recorded
reference (``perfbench/reference.json``), prints one line per metric
of ``BENCHMARK.json`` and, as the last line of standard output, one
JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``perfbench/tracer.py``) and
the tracing overhead; the spans of the last traced repetition are
written to ``.perfbench/spans-<workload>-<seed>.json``.

Host times are medians over the repetitions, each reading put on a
reference host of fixed speed by its ``host_scale`` (see
``perfbench/rep.py``): the hosts this runs on drift in speed by up to a
third over minutes, which would otherwise decide the comparison of two
runs made minutes apart.

``--seed`` selects one of :data:`SLOTS` input sets: ``seed % SLOTS``
becomes the study's seed (a ``workload.seed`` sweep axis in a spec
lists offsets from it), and each set has recorded reference results.
Rebuild the reference with ``python3 perfbench/run.py
--regenerate-reference`` (see :data:`REFERENCE_ABOUT` for when).

The workload specs are in ``perfbench/specs/``, and which end-to-end
metric each per-layer metric should move is in
``perfbench/predictions.json``.  ``python3 perfbench/selftest.py``
checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path("perfbench")
BENCHMARK = Path("BENCHMARK.json")
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = Path(".perfbench")

SLOTS = 16
MIN_REPS = 3
REP_TIMEOUT_S = 120.0
"""A repetition still running after this many host seconds is hung (one
takes 1 to 6 s)."""

REFERENCE_ABOUT = (
    "Full-DES reference of every benchmark workload, per seed slot: the "
    "SHA-256 digest of each cell's per-request records, its p99 latency "
    "and its TTFT p99. fluid_sweep points are run with the fidelity "
    "section removed. Regenerate with `python3 perfbench/run.py "
    "--regenerate-reference` only when a change alters discrete-event "
    "results on purpose (a model fix, a new spec) and say so in its "
    "CHANGES.md entry; a change meant to keep results bit-identical "
    "must pass against the existing file."
)


class RepFailed(RuntimeError):
    """A repetition's interpreter failed or returned no result."""


def spec_path(workload: str) -> Path:
    return BENCH_DIR / "specs" / f"{workload}.json"


def run_rep(workload: str, seed: int, scale: float = 1.0,
            des_reference: bool = False, trace_out: Path | None = None,
            timeout_s: float = REP_TIMEOUT_S) -> dict:
    """One repetition in a fresh interpreter; its JSON result."""
    command = [sys.executable, str(BENCH_DIR / "rep.py"),
               str(spec_path(workload)), "--seed", str(seed),
               "--scale", repr(scale)]
    if des_reference:
        command.append("--des-reference")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload}: repetition exceeded {timeout_s:.0f} s")
    if done.returncode != 0 or not done.stdout.strip():
        raise RepFailed(
            f"{workload}: repetition exited {done.returncode}\n{done.stderr}"
        )
    if done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def rel_err(value: float, truth: float) -> float:
    return abs(value - truth) / truth


def check(rep: dict, expected: list[dict]) -> tuple[int, list, list]:
    """(failed cells, p99 errors, TTFT errors) of one repetition.

    A cell fails when it raised, or when it ran discrete-event
    simulation and its record digest differs from the reference.
    Fluid cells carry no digest; their p99 and TTFT errors against the
    full-DES reference are the accuracy metrics.
    """
    cells = rep["cells"]
    if len(cells) != len(expected):
        return max(len(cells), len(expected)), [], []
    failed = 0
    p99_errs, ttft_errs = [], []
    for cell, truth in zip(cells, expected):
        if cell["error"] is not None or (
            cell["digest"] is not None and cell["digest"] != truth["digest"]
        ):
            failed += 1
            continue
        p99_errs.append(rel_err(cell["p99_s"], truth["p99_s"]))
        ttft_errs.append(rel_err(cell["ttft_p99_s"], truth["ttft_p99_s"]))
    return failed, p99_errs, ttft_errs


def mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def cell_medians(reps: list[dict]) -> list[float]:
    """Per cell, the median over ``reps`` of its reference-host seconds.

    Each reading is scaled by the calibrations timed just before and
    after it, so a slow phase of the host slows both and cancels.
    """
    return [
        statistics.median(c["seconds"] * c["host_scale"] for c in runs)
        for runs in zip(*(rep["cells"] for rep in reps))
    ]


def end_to_end(reps: list[dict], attempted: int, failed: int,
               p99_errs: list, ttft_errs: list) -> dict:
    """Medians over the repetitions; host times on the reference host."""
    cell_s = cell_medians(reps)
    wall_s = sum(cell_s)
    return {
        "wall_s": wall_s,
        "slowest_cell_s": max(cell_s),
        "sim_requests_per_s": sum(
            c.get("completed", 0) for c in reps[0]["cells"]
        ) / wall_s,
        "setup_s": statistics.median(
            rep["setup_s"] * rep["setup_host_scale"] for rep in reps
        ),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "cell_pass_share": 1.0 - failed / attempted,
        # 1 + the mean relative error over all points: never 0, 1.0 is
        # exact.  The largest error is reported beside it.
        "p99_vs_des": 1.0 + mean(p99_errs),
        "ttft_vs_des": 1.0 + mean(ttft_errs),
    }


def per_layer(names: list[str], traced: list[dict], untraced_wall_s: float,
              p99_errs: list, ttft_errs: list) -> dict:
    """Medians over the traced repetitions.

    Every figure in seconds (a name ending in ``_s``) is put on the
    reference host by the median host scale of its repetition's cells.
    """
    layers = []
    for rep in traced:
        factor = statistics.median(c["host_scale"] for c in rep["cells"])
        layers.append({
            name: value * factor if name.endswith("_s") else value
            for name, value in rep["layers"].items()
        })
    figures = {
        name: statistics.median(layer[name] for layer in layers)
        for name in names if name in layers[0]
    }
    events = statistics.median(layer["sim.events"] for layer in layers)
    figures["sim.host_us_per_event"] = (
        untraced_wall_s / events * 1e6 if events else 0.0
    )
    figures["trace.overhead"] = sum(cell_medians(traced)) / untraced_wall_s
    figures["fidelity.max_p99_err"] = max(p99_errs, default=0.0)
    figures["fidelity.max_ttft_err"] = max(ttft_errs, default=0.0)
    return figures


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict, declared: dict, scale: float = 1.0) -> dict:
    """Run, check and summarise one workload; the result object.

    ``declared`` is ``BENCHMARK.json``: the result carries its
    ``end_to_end`` metrics, or with ``trace`` its ``per_layer`` ones.
    """
    slot = seed % SLOTS
    expected = reference["workloads"][workload][str(slot)]
    began = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        enough = len(untraced) >= MIN_REPS and (
            not trace or len(traced) >= MIN_REPS
        )
        if enough and time.perf_counter() - began >= seconds:
            break
        trace_out = None
        if trace and len(traced) < len(untraced):
            trace_out = OUT_DIR / f"spans-{workload}-{seed}.json"
        rep = run_rep(workload, slot, scale, trace_out=trace_out)
        (traced if trace_out is not None else untraced).append(rep)

    attempted = failed = 0
    p99_errs: list = []
    ttft_errs: list = []
    for rep in untraced + traced:
        rep_failed, p99, ttft = check(rep, expected)
        attempted += max(len(rep["cells"]), len(expected))
        failed += rep_failed
        p99_errs += p99
        ttft_errs += ttft
    metrics = end_to_end(untraced, attempted, failed, p99_errs, ttft_errs)
    host_wall_s = statistics.median(
        sum(cell["seconds"] for cell in rep["cells"]) for rep in untraced
    )
    print(f"{workload}: seed {seed} (slot {slot}), "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
          f"{failed} of {attempted} cells failed "
          f"(failed_cell_share {failed / attempted:.4g}); median study "
          f"time before scaling to the reference host {host_wall_s:.4g} s")
    modes = [c.get("mode") for c in untraced[0]["cells"]]
    if "fluid" in modes or "des-fallback" in modes:
        print(f"  {modes.count('fluid')} of {len(modes)} cells fluid, "
              f"{modes.count('des-fallback')} fell back to DES; largest "
              f"error against full DES: fluid_p99_err "
              f"{max(p99_errs, default=0.0):.4g}, fluid_ttft_err "
              f"{max(ttft_errs, default=0.0):.4g}")
    if trace:
        names = declared["per_layer"]
        metrics = per_layer([entry["name"] for entry in names], traced,
                            metrics["wall_s"], p99_errs, ttft_errs)
    else:
        names = declared["end_to_end"]
    for entry in names:
        print(f"  {entry['name']} = {metrics[entry['name']]:.6g} "
              f"{entry['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]}
            for entry in names
        },
    }


def regenerate_reference(workloads: list[str], scale: float = 1.0,
                         slots: int = SLOTS) -> dict:
    """Full-DES reference results of every workload and slot."""
    reference: dict = {"about": REFERENCE_ABOUT, "slots": slots,
                       "workloads": {}}
    for workload in workloads:
        per_slot = reference["workloads"][workload] = {}
        for slot in range(slots):
            rep = run_rep(workload, slot, scale, des_reference=True,
                          timeout_s=3600.0)
            errors = [c["error"] for c in rep["cells"] if c["error"]]
            if errors:
                raise RepFailed(f"{workload} slot {slot}: {errors[0]}")
            per_slot[str(slot)] = [
                {key: cell[key] for key in ("digest", "p99_s", "ttft_p99_s")}
                for cell in rep["cells"]
            ]
            print(f"{workload} slot {slot}: {len(rep['cells'])} cells",
                  file=sys.stderr)
    return reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator benchmark (see perfbench/run.py)."
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (Path("src") / "repro").is_dir() or not BENCH_DIR.is_dir():
        print("perfbench: run from the root of a checkout holding "
              "src/repro and perfbench/", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    workloads = [entry["name"] for entry in declared["workloads"]]
    try:
        if args.regenerate_reference:
            REFERENCE.write_text(
                json.dumps(regenerate_reference(workloads), indent=1) + "\n"
            )
            return 0
        if args.workload not in workloads:
            parser.error(f"--workload must be one of {workloads}")
        reference = json.loads(REFERENCE.read_text())
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), reference, declared)
    except RepFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
