"""Self-test of the benchmark, at a tiny size.

Run from the root of a checkout (takes about a minute and a half)::

    python3 perfbench/selftest.py

It checks that

* a tiny pass of every workload, untraced and traced, passes its
  correctness check and gives every metric of ``BENCHMARK.json`` a
  finite value, above zero for the end-to-end ones;
* changing one discrete-event request record fails the correctness
  check;
* a fluid cell that falls back to discrete-event simulation gives the
  same records as the full-DES reference;
* every per-layer metric has a recorded prediction
  (``perfbench/predictions.json``) naming real metrics and workloads;
* the benchmark exits non-zero, printing no result, in a directory
  holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = 0.05
"""Scale of every simulated duration in the tiny pass."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_emitted(result: dict, positive: bool, label: str) -> None:
    expect(result["correct"], f"{label}: correctness check failed")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        expect(math.isfinite(value) and (value > 0 or not positive),
               f"{label}: {name} = {value}")


def run_rep_in_process(spec: Path, reference: dict, workload: str) -> tuple:
    """(repetition result, failed cells) of a tiny repetition of ``spec``."""
    import rep

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rep.main([str(spec), "--seed", "0", "--scale", repr(TINY)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    failed, _, _ = run.check(result, reference["workloads"][workload]["0"])
    return result, failed


def check_tampered_record(reference: dict) -> None:
    """One changed record must fail its cell."""
    import rep

    original = rep.record_digest
    tampered = []

    def digest_one_changed(records):
        if records and not tampered:
            tampered.append(True)
            first = records[0]
            records = [dataclasses.replace(
                first, finish_s=first.finish_s + 1e-12
            )] + records[1:]
        return original(records)

    rep.record_digest = digest_one_changed
    try:
        _, failed = run_rep_in_process(run.spec_path("photonic_mix"),
                                       reference, "photonic_mix")
    finally:
        rep.record_digest = original
    expect(bool(tampered), "no DES record reached the digest")
    expect(failed == 1, f"a changed record failed {failed} cells, not 1")


def check_fallback_records(reference: dict) -> None:
    """fluid_sweep under a budget no fluid cell meets: every cell falls
    back, and its records must equal the full-DES reference's."""
    data = json.loads(run.spec_path("fluid_sweep").read_text())
    data["fidelity"]["error_budget"] = 1e-9
    spec = run.OUT_DIR / "fluid_sweep_fallback.json"
    spec.parent.mkdir(parents=True, exist_ok=True)
    spec.write_text(json.dumps(data))
    result, failed = run_rep_in_process(spec, reference, "fluid_sweep")
    modes = {cell["mode"] for cell in result["cells"]}
    expect(modes == {"des-fallback"}, f"fallback pass ran modes {modes}")
    expect(failed == 0, f"{failed} fallback cells differ from full DES")


def check_predictions(bench: dict) -> None:
    predictions = json.loads(
        (run.BENCH_DIR / "predictions.json").read_text()
    )["metrics"]
    layer_names = {entry["name"] for entry in bench["per_layer"]}
    expect(set(predictions) == layer_names,
           "predictions.json and BENCHMARK.json per_layer differ: "
           f"{sorted(set(predictions) ^ layer_names)}")
    e2e_names = {entry["name"] for entry in bench["end_to_end"]}
    workloads = {entry["name"] for entry in bench["workloads"]}
    for name, prediction in predictions.items():
        expect(set(prediction["moves"]) <= e2e_names,
               f"{name}: unknown end-to-end metric")
        expect(set(prediction["on"]) | set(prediction["unchanged_on"])
               <= workloads, f"{name}: unknown workload")


def check_bare_directory(bench_path: Path) -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_path, bare / bench_path.name)
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         "photonic_mix", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(done.returncode != 0, "bare directory run exited 0")
    expect('"correct"' not in done.stdout, "bare directory printed a result")


def main() -> int:
    bench = json.loads(run.BENCHMARK.read_text())
    workloads = [entry["name"] for entry in bench["workloads"]]
    check_predictions(bench)
    reference = run.regenerate_reference(workloads, scale=TINY, slots=1)
    for workload in workloads:
        for trace in (False, True):
            result = run.measure(workload, 0, 0.0, trace, reference, bench,
                                 scale=TINY)
            check_emitted(result, not trace, f"{workload} trace={int(trace)}")
    check_tampered_record(reference)
    check_fallback_records(reference)
    check_bare_directory(run.BENCHMARK)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
