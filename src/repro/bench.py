"""Simulator microbenchmarks and the perf-regression smoke check.

The canonical definition of the kernel/fabric microbenchmark bodies
lives here; ``benchmarks/bench_sim_microbenchmarks.py`` wraps the same
bodies in pytest-benchmark fixtures, and ``python -m repro bench``
times them inline with :func:`time.perf_counter` — no test framework
needed.  ``python -m repro bench --check`` compares the inline medians
against the committed ``BENCH_sim.json`` baseline and fails when a
benchmark has regressed more than :data:`REGRESSION_FACTOR`, so the
perf trajectory of the DES kernel is guarded across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

BASELINE_FILENAME = "BENCH_sim.json"
"""Committed baseline written by ``benchmarks/run_all.py``."""

BASELINE_SCHEMA_VERSION = 1

REGRESSION_FACTOR = 2.0
"""A benchmark slower than ``factor x baseline`` fails ``--check``."""

KERNEL_BENCHMARK = "test_bench_kernel_event_throughput"
"""The headline kernel benchmark the acceptance criteria track."""


# ---------------------------------------------------------------------------
# Benchmark bodies.  Each factory does the one-time setup and returns the
# callable that gets timed — mirroring how pytest-benchmark separates
# fixture setup from the benchmarked function.
# ---------------------------------------------------------------------------


def make_kernel_event_throughput() -> Callable[[], float]:
    """Schedule and fire 10k timeout events."""
    from .sim.core import Environment

    def run() -> float:
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield env.timeout(1e-9)

        env.process(ticker())
        env.run()
        return env.now

    return run


def make_channel_contention() -> Callable[[], int]:
    """1000 contended transfers through one channel."""
    from .sim.core import Environment
    from .sim.resources import BandwidthChannel

    def run() -> int:
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1e9)

        def sender():
            yield env.process(channel.transfer(1e3))

        for _ in range(1000):
            env.process(sender())
        env.run()
        return channel.transfer_count

    return run


def make_photonic_fabric_reads() -> Callable[[], float]:
    """100 reads across the full interposer pipeline."""
    from .config import DEFAULT_PLATFORM
    from .interposer.photonic.fabric import PhotonicInterposerFabric
    from .interposer.topology import build_floorplan
    from .sim.core import Environment

    floorplan = build_floorplan(DEFAULT_PLATFORM)

    def run() -> float:
        env = Environment()
        fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
        for site in floorplan.compute_sites:
            for _ in range(12):
                fabric.read(site.chiplet_id, 1e6)
        env.run()
        return fabric.bits_read

    return run


def make_functional_mac_matvec() -> Callable[[], object]:
    """Analog matvec through the device transfer functions."""
    import numpy as np

    from .core.mac_unit import MacUnitSpec, PhotonicMacUnit

    unit = PhotonicMacUnit(MacUnitSpec(vector_length=9))
    rng = np.random.default_rng(11)
    matrix = rng.uniform(-1, 1, (8, 27))
    vector = rng.uniform(-1, 1, 27)

    def run():
        return unit.matvec(matrix, vector)

    return run


def make_serving_request_throughput() -> Callable[[], int]:
    """Steady-state request stream through the serving scheduler.

    A 1 ms Poisson window at 100k requests/s of LeNet5 on the
    monolithic platform — ~100 requests batched through the max-batch
    dispatcher over one shared fabric.  Tracks the serving layer's
    requests/sec of wall time.
    """
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .serving.scheduler import BatchPolicy, RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = BatchPolicy.max_batch_with_timeout(
        max_batch=8, batch_timeout_s=20e-6
    )

    def run() -> int:
        env = Environment()
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(workload), "LeNet5", policy=policy,
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        scheduler.serve(PoissonArrivals(rate_rps=100e3, seed=7), 1e-3)
        return scheduler.requests_completed

    return run


def make_telemetry_null_recorder() -> Callable[[], int]:
    """The serving benchmark under a metrics-only telemetry session.

    The same 1 ms LeNet5 window as ``serving_request_throughput``, but
    with a :class:`~repro.obs.session.TelemetrySession` attached whose
    trace recorder is null (``trace: false``): every span site reduces
    to one attribute comparison while the gauge sampler ticks in the
    background.  The gap to ``serving_request_throughput`` is the cost
    of the null-recorder guards — the acceptance budget keeps it under
    a few percent.
    """
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .obs.policy import TelemetryPolicy
    from .obs.session import TelemetrySession
    from .serving.scheduler import BatchPolicy, RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = BatchPolicy.max_batch_with_timeout(
        max_batch=8, batch_timeout_s=20e-6
    )
    telemetry = TelemetryPolicy(trace=False)

    def run() -> int:
        env = Environment()
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(workload), "LeNet5", policy=policy,
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        session = TelemetrySession(env, telemetry)
        scheduler.obs_metrics = session.metrics
        session.metrics.gauge(
            "queue_depth", lambda: float(scheduler.queue_length)
        )
        session.start(1e-3)
        scheduler.serve(PoissonArrivals(rate_rps=100e3, seed=7), 1e-3)
        return scheduler.requests_completed

    return run


def make_hazard_timeline_reads() -> Callable[[], float]:
    """Fabric reads while a hazard timeline mutates capacities.

    The same interposer read pattern as the plain fabric benchmark, but
    with a hazard engine cycling gateway failures, a ring-drift burst
    and repairs mid-run — tracks the overhead of the wrapped capacity
    hooks and the event process itself.
    """
    from .config import DEFAULT_PLATFORM
    from .interposer.photonic.fabric import PhotonicInterposerFabric
    from .interposer.photonic.faults import (
        GatewayFail,
        GatewayRepair,
        HazardEngine,
        HazardTimeline,
        RingDriftBurst,
    )
    from .interposer.topology import build_floorplan
    from .sim.core import Environment

    floorplan = build_floorplan(DEFAULT_PLATFORM)
    chiplets = sorted(
        site.chiplet_id for site in floorplan.compute_sites
    )[:4]
    timeline = HazardTimeline((
        GatewayFail(at_s=2e-7, memory_gateways=4),
        GatewayFail(
            at_s=4e-7,
            chiplet_gateways=tuple((cid, 2, 2) for cid in chiplets),
        ),
        RingDriftBurst(at_s=5e-7, duration_s=4e-7,
                       temperature_rise_k=8.0),
        GatewayRepair(at_s=8e-7, memory_gateways=4),
        GatewayRepair(
            at_s=1e-6,
            chiplet_gateways=tuple((cid, 2, 2) for cid in chiplets),
        ),
    ))

    def run() -> float:
        env = Environment()
        fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
        HazardEngine(fabric, timeline)
        for site in floorplan.compute_sites:
            for _ in range(12):
                fabric.read(site.chiplet_id, 1e6)
        env.run()
        return fabric.bits_read

    return run


def make_resipi_idle_epochs() -> Callable[[], float]:
    """ReSiPI epochs over a mostly idle fabric.

    One small read every 50 us for 5 ms, each to the next chiplet, with
    the ReSiPI controller ticking every 1 us epoch — about 5k epochs, of
    which all but a few per read close with no traffic.  Tracks the
    cost of a silent epoch: the tick, the monitor close and whatever
    decision work survives it.
    """
    from .config import DEFAULT_PLATFORM
    from .interposer.photonic.controllers import ReSiPIController
    from .interposer.photonic.fabric import PhotonicInterposerFabric
    from .interposer.topology import build_floorplan
    from .sim.core import Environment

    floorplan = build_floorplan(DEFAULT_PLATFORM)
    chiplets = [site.chiplet_id for site in floorplan.compute_sites]

    def run() -> float:
        env = Environment()
        fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
        ReSiPIController(env, fabric, DEFAULT_PLATFORM)

        def sparse_reads():
            for index in range(100):
                fabric.read(chiplets[index % len(chiplets)], 2e5)
                yield env.timeout(50e-6)

        env.process(sparse_reads())
        env.run(until=5e-3)
        return fabric.bits_read

    return run


def make_cluster_dispatch_throughput() -> Callable[[], int]:
    """Routed request stream across an 8-node fleet.

    A 0.5 ms Poisson window at 800k requests/s of LeNet5 dispatched by
    the least-outstanding router over 8 monolithic replicas sharing one
    environment — tracks the cluster layer's routing + fleet-drain
    overhead on top of the per-node schedulers.
    """
    from .cluster.router import ClusterNode, ClusterRouter
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .serving.scheduler import BatchPolicy, RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals
    from .studies.registry import ROUTERS

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = BatchPolicy.fifo(max_inflight=2)

    def run() -> int:
        env = Environment()
        nodes = []
        for index in range(8):
            sim = platform.build_simulation(env)
            scheduler = RequestScheduler(
                sim, sim.map_workload(workload), "LeNet5", policy=policy,
                residency=WeightResidency(env), trace=ExecutionTrace(),
            )
            nodes.append(ClusterNode(
                index=index, platform=platform, sim=sim,
                scheduler=scheduler,
                residency=scheduler.residency,
            ))
        router = ClusterRouter(
            nodes, ROUTERS.get("least-outstanding")(len(nodes), ())
        )
        router.serve(PoissonArrivals(rate_rps=800e3, seed=7), 0.5e-3)
        return router.requests_routed

    return run


def make_resilience_retry_hedge() -> Callable[[], int]:
    """Retry/hedge lifecycle over a 2-node fleet with tight timers.

    A 0.4 ms Poisson window at 500k requests/s of LeNet5 driven through
    the :class:`~repro.serving.lifecycle.LifecycleDriver` with a 40 us
    attempt timeout, two retries, and a 20 us hedge — every request
    races attempt completions against hedge and timeout timers, so this
    tracks the timer-race, duplicate-submit, and loser-cancellation
    overhead the resilience layer adds on top of routed dispatch.
    """
    from .cluster.router import ClusterNode, ClusterRouter
    from .core.accelerator import MonolithicCrossLight
    from .core.engine import ExecutionTrace
    from .dnn import zoo
    from .dnn.workload import extract_workload
    from .mapping.residency import WeightResidency
    from .serving.lifecycle import LifecycleDriver, ResiliencePolicy
    from .serving.scheduler import BatchPolicy, RequestScheduler
    from .sim.core import Environment
    from .sim.traffic import PoissonArrivals
    from .studies.registry import ROUTERS

    platform = MonolithicCrossLight()
    workload = extract_workload(zoo.build("LeNet5"))
    policy = BatchPolicy.fifo(max_inflight=2)
    resilience = ResiliencePolicy(
        timeout_s=40e-6, max_retries=2, hedge_delay_s=20e-6
    )

    def run() -> int:
        env = Environment()
        nodes = []
        for index in range(2):
            sim = platform.build_simulation(env)
            scheduler = RequestScheduler(
                sim, sim.map_workload(workload), "LeNet5", policy=policy,
                residency=WeightResidency(env), trace=ExecutionTrace(),
            )
            nodes.append(ClusterNode(
                index=index, platform=platform, sim=sim,
                scheduler=scheduler,
                residency=scheduler.residency,
            ))
        router = ClusterRouter(
            nodes, ROUTERS.get("least-outstanding")(len(nodes), ())
        )
        driver = LifecycleDriver(router, resilience, seed=11)
        driver.serve(PoissonArrivals(rate_rps=500e3, seed=11), 0.4e-3)
        return driver.requests_completed

    return run


def _fidelity_reference_cell(fidelity=None):
    """The representative serving cell the fidelity benchmarks share."""
    from .config import DEFAULT_PLATFORM
    from .experiments.serving_study import ScenarioCell
    from .serving.scheduler import BatchPolicy

    return ScenarioCell(
        platform="2.5D-CrossLight-SiPh",
        models=(("LeNet5", 1.0, None, 0),),
        controller="resipi", policy=BatchPolicy.fifo(),
        arrival_kind="poisson", rate_rps=100e3, duration_s=2e-3,
        seed=7, config=DEFAULT_PLATFORM, fidelity=fidelity,
    )


def make_fidelity_des_reference() -> Callable[[], int]:
    """Full-DES baseline of the hybrid-fidelity reference cell.

    The denominator of the fidelity speedup claim: one complete
    discrete-event simulation of the same serving point the fluid
    benchmarks predict (~200 requests of LeNet5 at 100k req/s).
    """
    from .experiments.serving_study import simulate_scenario_cell

    cell = _fidelity_reference_cell()

    def run() -> int:
        return simulate_scenario_cell(cell).requests_completed

    return run


def make_fidelity_fluid_path() -> Callable[[], int]:
    """Warm-forked fluid evaluation of the reference cell.

    Setup runs the calibration once (memoising the warm-state
    checkpoint); the timed body is the marginal cost of every further
    cell in a sweep — vectorized arrival cohort, quantile service
    draws, piecewise M/G/k waits.  Compare against
    ``fidelity_des_reference`` for the headline speedup.
    """
    from .experiments.fidelity import FidelityPolicy, simulate_fidelity_cell

    cell = _fidelity_reference_cell(
        FidelityPolicy(mode="fluid", error_budget=0.25)
    )
    simulate_fidelity_cell(cell)  # warm the checkpoint store

    def run() -> int:
        return simulate_fidelity_cell(cell).requests_completed

    return run


def make_warm_fork_sweep() -> Callable[[], int]:
    """A 6-variant hazard sweep forked from one cold calibration.

    The timed body clears the warm store, calibrates once, then
    evaluates six MAC-degrade scenario variants of the same serving
    point through the fluid path — the amortised shape of a real
    hybrid-fidelity study (one short DES warm-up per (platform,
    workload), forks for every scenario).
    """
    from dataclasses import replace

    from .config import DEFAULT_PLATFORM
    from .experiments.fidelity import (
        FidelityPolicy,
        clear_warm_store,
        simulate_fidelity_cell,
    )
    from .experiments.serving_study import ScenarioCell
    from .serving.scheduler import BatchPolicy
    from .studies.spec import FaultSpec

    base = ScenarioCell(
        platform="2.5D-CrossLight-SiPh",
        models=(("LeNet5", 1.0, None, 0),),
        controller="resipi", policy=BatchPolicy.fifo(),
        arrival_kind="poisson", rate_rps=100e3, duration_s=2e-3,
        seed=7, config=DEFAULT_PLATFORM,
        fidelity=FidelityPolicy(mode="fluid", error_budget=0.25),
    )
    variants = [
        replace(base, faults=FaultSpec.from_dict({"events": [{
            "kind": "chiplet-mac-degrade",
            "at_s": 0.2e-3 + 0.2e-3 * index,
            "mac_fraction": 0.5,
            "duration_s": 0.5e-3,
        }]}))
        for index in range(6)
    ]

    def run() -> int:
        clear_warm_store()
        return sum(
            simulate_fidelity_cell(cell).requests_completed
            for cell in variants
        )

    return run


def make_continuous_decode_throughput() -> Callable[[], int]:
    """Continuous-batching decode steps over a transformer mix.

    A 0.5 ms MMPP window of TransformerTiny sequences (16-token
    prompts, 8 decode steps each) through the continuous batcher — sequences
    join and leave the running decode pool at step boundaries, with
    KV-cache admission against the weight residency store.  Tracks the
    per-decode-step overhead of the sequence scheduler: pool
    management, width-aware remap lookups, and token bookkeeping.
    """
    from .config import DEFAULT_PLATFORM
    from .experiments.serving_study import ScenarioCell
    from .serving.scheduler import BatchPolicy

    cell = ScenarioCell(
        platform="2.5D-CrossLight-SiPh",
        models=(("TransformerTiny", 1.0, None, 0),),
        controller="resipi",
        policy=BatchPolicy.continuous(max_batch=4),
        arrival_kind="mmpp", rate_rps=60e3, duration_s=0.5e-3,
        seed=7, config=DEFAULT_PLATFORM,
        sequences=((16, 8),),
    )

    def run() -> int:
        from .experiments.serving_study import simulate_scenario_cell

        result = simulate_scenario_cell(cell)
        return result.tokens_generated

    return run


def make_sequence_fluid_path() -> Callable[[], int]:
    """Warm-forked fluid evaluation of the decode benchmark cell.

    The same transformer scenario as ``continuous_decode_throughput``
    with fluid fidelity armed: setup calibrates once, the timed body is
    the marginal per-cell cost of a sequence sweep — vectorized prefill
    quantile resampling plus the width-conditioned decode token loop.
    Compare against ``continuous_decode_throughput`` for the sequence
    speedup.
    """
    from .config import DEFAULT_PLATFORM
    from .experiments.fidelity import FidelityPolicy, simulate_fidelity_cell
    from .experiments.serving_study import ScenarioCell
    from .serving.scheduler import BatchPolicy

    cell = ScenarioCell(
        platform="2.5D-CrossLight-SiPh",
        models=(("TransformerTiny", 1.0, None, 0),),
        controller="resipi",
        policy=BatchPolicy.continuous(max_batch=4),
        arrival_kind="mmpp", rate_rps=60e3, duration_s=0.5e-3,
        seed=7, config=DEFAULT_PLATFORM,
        sequences=((16, 8),),
        fidelity=FidelityPolicy(mode="fluid", error_budget=0.25),
    )
    simulate_fidelity_cell(cell)  # warm the checkpoint store

    def run() -> int:
        return simulate_fidelity_cell(cell).tokens_generated

    return run


MICROBENCHMARKS: dict[str, Callable[[], Callable[[], object]]] = {
    KERNEL_BENCHMARK: make_kernel_event_throughput,
    "test_bench_channel_contention": make_channel_contention,
    "test_bench_photonic_fabric_reads": make_photonic_fabric_reads,
    "test_bench_functional_mac_matvec": make_functional_mac_matvec,
    "test_bench_serving_request_throughput": make_serving_request_throughput,
    "test_bench_telemetry_null_recorder": make_telemetry_null_recorder,
    "test_bench_hazard_timeline_reads": make_hazard_timeline_reads,
    "test_bench_resipi_idle_epochs": make_resipi_idle_epochs,
    "test_bench_cluster_dispatch_throughput": make_cluster_dispatch_throughput,
    "test_bench_resilience_retry_hedge": make_resilience_retry_hedge,
    "test_bench_fidelity_des_reference": make_fidelity_des_reference,
    "test_bench_fidelity_fluid_path": make_fidelity_fluid_path,
    "test_bench_warm_fork_sweep": make_warm_fork_sweep,
    "test_bench_continuous_decode_throughput":
        make_continuous_decode_throughput,
    "test_bench_sequence_fluid_path": make_sequence_fluid_path,
}
"""Benchmark name (matching the pytest test name) -> body factory."""


# ---------------------------------------------------------------------------
# Inline timing.
# ---------------------------------------------------------------------------


def measure_ns(run: Callable[[], object], repeats: int = 5,
               warmup: int = 1) -> float:
    """Median wall time of ``run()`` in nanoseconds."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        run()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2] * 1e9


def select_benchmarks(substring: str) -> tuple[str, ...]:
    """Benchmark names containing ``substring`` (the ``--only`` filter).

    Raises :class:`~repro.errors.UnknownNameError` — listing every
    registered benchmark — when nothing matches, so a typo'd filter
    fails with the same typed, did-you-mean-carrying error the spec
    registries produce instead of silently timing nothing.
    """
    names = tuple(
        name for name in MICROBENCHMARKS if substring in name
    )
    if not names:
        from .errors import UnknownNameError

        raise UnknownNameError(
            "benchmark", substring, tuple(MICROBENCHMARKS),
            registry="MICROBENCHMARKS",
        )
    return names


def run_suite(names: tuple[str, ...] | None = None,
              repeats: int = 5) -> dict[str, float]:
    """Time the microbenchmarks inline; returns name -> median ns/op."""
    selected = names or tuple(MICROBENCHMARKS)
    medians = {}
    for name in selected:
        medians[name] = measure_ns(MICROBENCHMARKS[name](), repeats=repeats)
    return medians


# ---------------------------------------------------------------------------
# Baseline file handling + the regression check.
# ---------------------------------------------------------------------------


def write_baseline(medians: dict[str, float], path: str | Path,
                   source: str = "repro.bench") -> None:
    """Write a BENCH_sim.json baseline."""
    payload = {
        "schema": BASELINE_SCHEMA_VERSION,
        "source": source,
        "unit": "ns/op (median)",
        "benchmarks": {
            name: {"median_ns": median}
            for name, median in sorted(medians.items())
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


def load_baseline(path: str | Path) -> dict[str, float]:
    """Read a baseline; returns name -> median ns/op."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        name: float(entry["median_ns"])
        for name, entry in payload.get("benchmarks", {}).items()
    }


def check_against_baseline(
    medians: dict[str, float],
    baseline: dict[str, float],
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Regression report lines for benchmarks slower than the budget.

    Only benchmarks present in both mappings are compared; an empty
    return value means the check passed.
    """
    failures = []
    for name, measured in medians.items():
        reference = baseline.get(name)
        if reference is None or reference <= 0:
            continue
        ratio = measured / reference
        if ratio > factor:
            failures.append(
                f"{name}: {measured / 1e6:.2f} ms vs baseline "
                f"{reference / 1e6:.2f} ms ({ratio:.2f}x > {factor:.1f}x)"
            )
    return failures


def render_suite(medians: dict[str, float],
                 baseline: dict[str, float] | None = None) -> str:
    """Text table of measured medians (and ratios when given a baseline)."""
    lines = [
        f"{'benchmark':<42}{'median':>12}"
        + ("{:>12}".format("vs base") if baseline else ""),
        "-" * (54 + (12 if baseline else 0)),
    ]
    for name, median in medians.items():
        row = f"{name:<42}{median / 1e6:>10.2f}ms"
        if baseline and baseline.get(name):
            row += f"{median / baseline[name]:>11.2f}x"
        lines.append(row)
    return "\n".join(lines)
