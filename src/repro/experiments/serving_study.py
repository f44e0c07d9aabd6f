"""Latency-under-load studies: serving simulations as cacheable cells.

Every single-node serving point is one :class:`ScenarioCell`: a
traffic mix (one tenant or several, with per-model SLOs/priorities and
quotas) under one dispatch policy (``fifo``/``max-batch``/``edf``/
``priority``/``continuous``, optional deadline shedding), an arrival
process with its knobs, an optional weight-residency budget, fabric and
compute hazard timelines, and the optional lifecycle, fidelity and
telemetry policies.  The declarative study layer
(:mod:`repro.studies`) lowers :class:`~repro.studies.spec.StudySpec`
points onto these (routed fleets onto
:class:`~repro.cluster.study.ClusterCell`), and
:func:`simulate_scenario_cell` is the one simulate-and-assemble path
for them.

Cells reuse the parallel fan-out and the persistent on-disk result
cache of the experiment runner, extending ``cell_key`` with the serving
parameters so serving points never collide with single-inference
results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..cluster.hazards import NODE_HAZARD_KINDS
from ..config import PlatformConfig
from ..core.engine import ExecutionTrace
from ..errors import ConfigurationError
from ..dnn.workload import extract_workload
from ..interposer.photonic.faults import (
    COMPUTE_HAZARD_KINDS,
    ChipletMacDegrade,
    HazardRecord,
    HazardTimeline,
)
from ..mapping.residency import WeightResidency
from ..serving.lifecycle import LifecycleDriver, ResiliencePolicy
from ..serving.metrics import (
    ServingResult,
    aggregate,
    per_model_stats,
    sequence_stats,
    windowed_stats,
)
from ..serving.scheduler import BatchPolicy, RequestScheduler
from ..sim.core import Environment
from ..studies.registry import ARRIVALS, HAZARDS, MODELS
from ..studies.spec import FaultSpec
from .runner import build_platform, cell_key, run_cached

SERVING_STUDY_VERSION = 3
"""Bump (with ``CACHE_SCHEMA_VERSION`` semantics) when the serving
simulation changes meaning, so cached curves are never stale.

Version 2: ``BatchPolicy`` grew ``shed_expired`` (in ``asdict`` and
therefore in every serving key) — results are unchanged, but the
explicit bump records that serving keys moved.

Version 3: ``ServingResult`` grew the hazard fields
(``windows``/``hazard_events``/``time_degraded_s``) and scenario cells
a ``faults`` timeline — fault-free results are unchanged, but the
record layout and key contents moved together."""

def start_telemetry(telemetry, env, scheduler, sim, duration_s: float,
                    driver=None):
    """Build, attach and start one cell's telemetry session.

    Returns ``None`` when the cell carries no policy — the
    untelemetered path.  When armed, the recorder (if tracing) hooks
    into the scheduler, its residency store and the optional lifecycle
    driver, the standard serving gauges are registered, and the sim-time
    sampler process starts.  The sampler only *reads* simulation state
    and its extra timeout events never reorder existing same-time
    events, so armed runs produce bit-identical request records.
    """
    if telemetry is None:
        return None
    # Deferred: the obs package is only needed on the armed path.
    from ..obs.session import TelemetrySession

    session = TelemetrySession(env, telemetry)
    recorder = session.recorder
    if recorder is not None:
        scheduler.obs_trace = recorder
        scheduler.residency.obs_trace = recorder
        if driver is not None:
            driver.obs_trace = recorder
    metrics = session.metrics
    scheduler.obs_metrics = metrics
    metrics.gauge("queue_depth", lambda: float(scheduler.queue_length))
    metrics.gauge("inflight", lambda: float(scheduler.outstanding))
    metrics.gauge(
        "decode_pool_width",
        lambda: float(sum(len(p) for p in scheduler._pools.values())),
    )
    metrics.gauge("weight_resident_bits",
                  lambda: scheduler.residency.resident_bits)
    metrics.gauge(
        "kv_reserved_bits",
        lambda: (
            scheduler.kv.reserved_bits
            if scheduler.kv is not None else 0.0
        ),
    )
    metrics.gauge("mac_utilization", scheduler.compute.mean_utilization)
    fabric = sim.fabric
    metrics.gauge("fabric_inflight",
                  lambda: float(fabric.inflight_requests.value))
    metrics.gauge(
        "channel_utilization",
        lambda: (
            sum(c.utilization() for c in fabric.iter_channels())
            / max(1, sum(1 for _ in fabric.iter_channels()))
        ),
    )
    session.start(duration_s)
    return session


def finish_telemetry(session, scheduler, injected: int, completed: int,
                     shed: int):
    """Fold the scheduler's final counters in and freeze the session.

    Returns the picklable summary (``None`` passes through), so worker
    bodies can attach it to the result unconditionally.
    """
    if session is None:
        return None
    metrics = session.metrics
    metrics.inc("requests_injected", injected)
    metrics.inc("requests_completed", completed)
    metrics.inc("requests_shed", shed)
    metrics.inc("batches_dispatched", scheduler.batches_dispatched)
    metrics.inc("starvation_promotions", scheduler.starvation_promotions)
    metrics.inc("decode_remaps", scheduler.decode_remaps)
    residency = scheduler.residency
    metrics.inc("weight_fetches", residency.fetches_issued)
    metrics.inc("weight_fetch_hits", residency.fetch_hits)
    metrics.inc("weight_evictions", residency.evictions)
    if scheduler.kv is not None:
        metrics.inc("kv_refusals", scheduler.kv.refusals)
    return session.summary(total_requests=injected)


# ---------------------------------------------------------------------------
# Spec-driven scenario cells: traffic mixes, SLOs, deadline policies.
# ---------------------------------------------------------------------------


def platform_timelines(
    faults: "FaultSpec | None",
) -> tuple[HazardTimeline | None, tuple[ChipletMacDegrade, ...]]:
    """Lower a platform fault section onto its two hazard timelines.

    Resolves every event kind against the ``HAZARDS`` registry (typed
    did-you-mean errors) and runs the per-kind factory validation, so a
    malformed fault section fails at compile time — before any
    simulation.  Fabric events become a :class:`HazardTimeline` for the
    photonic hazard engine; compute events (``chiplet-mac-degrade``)
    are returned separately for the serving layer to drive through the
    schedulers' :class:`~repro.core.engine.ComputeOccupancy`.
    ``None``/empty lowers to ``(None, ())``.
    """
    if faults is None or not faults.events:
        return None, ()
    fabric = []
    compute = []
    for entry in faults.events:
        fields = entry.to_dict()
        kind = fields.pop("kind")
        if kind in NODE_HAZARD_KINDS:
            raise ConfigurationError(
                f"hazard kind {kind!r} applies to cluster nodes; put it "
                "in cluster.faults (platform.faults takes fabric-level "
                "kinds)"
            )
        event = HAZARDS.get(kind)(**fields)
        if kind in COMPUTE_HAZARD_KINDS:
            compute.append(event)
        else:
            fabric.append(event)
    timeline = HazardTimeline(tuple(fabric)) if fabric else None
    return timeline, tuple(compute)


def hazard_timeline(faults: "FaultSpec | None") -> HazardTimeline | None:
    """Lower a fault section for a study with no serving layer.

    Same validation as :func:`platform_timelines`, but compute-side
    kinds are rejected: without a serving layer nothing drives the
    chiplet occupancy they degrade, so accepting one would silently
    no-op (and still move the cache digest).
    """
    timeline, compute = platform_timelines(faults)
    if compute:
        raise ConfigurationError(
            f"hazard kind {compute[0].kind!r} applies to the serving "
            "compute path; it needs a serving study (nothing drives the "
            "chiplet MAC occupancy in a single-inference run)"
        )
    return timeline


def _drive_mac_degrade(env, compute, active: list[float],
                       event: ChipletMacDegrade):
    """Apply one compute hazard to one occupancy: degrade at ``at_s``,
    restore after ``duration_s`` (never, when open-ended).

    ``active`` holds the fractions of the occupancy's events currently
    in force, and the occupancy runs at their minimum — the rule the
    fluid model's capacity segments use — so one event ending never
    lifts a deeper degrade that is still in force.
    """
    if event.at_s > env.now:
        yield env.timeout(event.at_s - env.now)
    active.append(event.mac_fraction)
    compute.set_mac_fraction(min(active))
    if event.duration_s is not None:
        yield env.timeout(event.duration_s)
        active.remove(event.mac_fraction)
        compute.set_mac_fraction(min(active, default=1.0))


def start_compute_hazards(env, computes,
                          events: tuple[ChipletMacDegrade, ...]) -> None:
    """Launch the driver processes applying ``events`` to every
    occupancy in ``computes`` (one per node for fleets)."""
    for compute in computes:
        active: list[float] = []
        for event in events:
            env.process(_drive_mac_degrade(env, compute, active, event))


def compute_hazard_records(
    events: tuple[ChipletMacDegrade, ...], elapsed: float
) -> tuple[HazardRecord, ...]:
    """Synthesized engine-style records for applied compute hazards."""
    return tuple(
        HazardRecord(
            kind=event.kind,
            start_s=event.at_s,
            end_s=(
                event.at_s + event.duration_s
                if event.duration_s is not None else None
            ),
        )
        for event in events
        if event.at_s <= elapsed
    )


def _compute_degraded_s(events: tuple[ChipletMacDegrade, ...],
                        elapsed: float) -> float:
    """Wall-clock with MAC throughput below nominal (interval union)."""
    intervals = sorted(
        (
            event.at_s,
            min(
                elapsed,
                event.at_s + event.duration_s
                if event.duration_s is not None else elapsed,
            ),
        )
        for event in events
        if event.at_s < elapsed
    )
    total = 0.0
    cursor = 0.0
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
        cursor = max(cursor, end)
    return total


def _merge_window(window: "tuple[float, float] | None",
                  events: tuple[ChipletMacDegrade, ...],
                  elapsed: float) -> "tuple[float, float] | None":
    """Fold compute-hazard spans into the engine's fault window."""
    spans = [
        (
            event.at_s,
            min(
                elapsed,
                event.at_s + event.duration_s
                if event.duration_s is not None else elapsed,
            ),
        )
        for event in events
        if event.at_s < elapsed
    ]
    if window is not None:
        spans.append(window)
    if not spans:
        return None
    return min(s for s, _ in spans), max(e for _, e in spans)


@dataclass(frozen=True)
class ScenarioCell:
    """One spec-driven serving point: a traffic mix under one policy.

    ``models`` is the mix as ``(name, fraction, slo_s, priority)``
    tuples; the first entry is the scheduler's primary model.
    ``digest`` is the resolved study-spec digest — it already covers
    every field, so it (plus the platform config, belt-and-braces) is
    the cache identity.

    ``sequences`` marks an autoregressive scenario: one
    ``(prompt_tokens, output_tokens)`` pair per mix entry, ``(0, 0)``
    for single-step (CNN) tenants, with ``length_distribution`` naming
    the per-request sampler.  ``quotas`` caps each tenant's outstanding
    requests (``None`` per entry = uncapped) and ``starvation_age_s``
    arms the priority policy's aging guard.  All of these enter the
    cache key only when set, so pre-transformer cells keep their keys
    byte for byte.
    """

    platform: str
    models: tuple[tuple[str, float, float | None, int], ...]
    controller: str
    policy: BatchPolicy
    arrival_kind: str
    rate_rps: float
    duration_s: float
    seed: int
    config: PlatformConfig
    burstiness: float = 4.0
    dwell_s: float = 20e-6
    think_time_s: float = 10e-6
    residency_capacity_bits: float | None = None
    faults: FaultSpec | None = None
    digest: str = ""
    resilience: ResiliencePolicy | None = None
    fidelity: "object | None" = None
    sequences: tuple[tuple[int, int], ...] = ()
    length_distribution: str = "fixed"
    quotas: tuple[int | None, ...] = ()
    starvation_age_s: float | None = None
    telemetry: "object | None" = None

    @property
    def mix_label(self) -> str:
        """Readable mix name: ``70%LeNet5+30%ResNet50`` (or the model)."""
        if len(self.models) == 1:
            return self.models[0][0]
        return "+".join(
            f"{fraction * 100:.0f}%{name}"
            for name, fraction, _, _ in self.models
        )

    def key(self) -> str:
        """Disk-cache key: every behavioral field plus the spec digest.

        The digest alone would suffice for compiler-built cells, but it
        is defaultable — directly constructed cells must still never
        collide, so the full cell identity goes into the hash.
        ``resilience`` and ``fidelity`` enter the extras only when set,
        so cells without them keep their legacy keys byte for byte.
        """
        extra = {
            "study": "scenario",
            "version": SERVING_STUDY_VERSION,
            "models": list(self.models),
            "policy": asdict(self.policy),
            "arrival_kind": self.arrival_kind,
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "burstiness": self.burstiness,
            "dwell_s": self.dwell_s,
            "think_time_s": self.think_time_s,
            "residency_capacity_bits": self.residency_capacity_bits,
            "faults": (
                self.faults.to_dict() if self.faults else None
            ),
            "spec": self.digest,
        }
        if self.resilience is not None:
            extra["resilience"] = asdict(self.resilience)
        if self.fidelity is not None:
            extra["fidelity"] = asdict(self.fidelity)
        if self.sequences:
            extra["sequences"] = [list(pair) for pair in self.sequences]
            extra["length_distribution"] = self.length_distribution
        if self.quotas:
            extra["quotas"] = list(self.quotas)
        if self.starvation_age_s is not None:
            extra["starvation_age_s"] = self.starvation_age_s
        if self.telemetry is not None:
            extra["telemetry"] = asdict(self.telemetry)
        return cell_key(
            self.platform, self.mix_label, self.controller, self.config,
            extra=extra,
        )


def _mix_stream(models: tuple[tuple[str, float, float | None, int], ...],
                seed: int) -> Iterator[str] | None:
    """Seeded infinite stream assigning each arrival to a tenant.

    Single-tenant mixes skip the RNG entirely: every arrival targets
    the scheduler's primary model.
    """
    if len(models) == 1:
        return None
    names = [name for name, _, _, _ in models]
    fractions = np.cumsum([fraction for _, fraction, _, _ in models])
    rng = np.random.default_rng((seed, 211))

    def stream() -> Iterator[str]:
        while True:
            draw = rng.random()
            index = int(np.searchsorted(fractions, draw, side="right"))
            yield names[min(index, len(names) - 1)]

    return stream()


def _sequence_stream(
    models: tuple[tuple[str, float, float | None, int], ...],
    sequences: tuple[tuple[int, int], ...],
    distribution: str,
    seed: int,
) -> Iterator[tuple[str, int, int]]:
    """Seeded infinite stream of (tenant, prompt, output) submissions.

    The tenant draw replays :func:`_mix_stream`'s RNG exactly
    (``(seed, 211)``); lengths come from an independent stream
    (``(seed, 311)``) so the sampler never perturbs tenant assignment.
    ``fixed`` uses the configured means verbatim; ``geometric`` draws
    each length with that mean (minimum one token).  Single-step
    tenants (``(0, 0)``) consume no length draws.
    """
    names = [name for name, _, _, _ in models]
    fractions = np.cumsum([fraction for _, fraction, _, _ in models])
    mix_rng = np.random.default_rng((seed, 211))
    length_rng = np.random.default_rng((seed, 311))

    def draw(mean: int) -> int:
        if mean <= 0:
            return 0
        if distribution == "fixed":
            return mean
        return int(length_rng.geometric(1.0 / mean))

    def stream() -> Iterator[tuple[str, int, int]]:
        while True:
            if len(names) == 1:
                index = 0
            else:
                pick = mix_rng.random()
                index = min(
                    int(np.searchsorted(fractions, pick, side="right")),
                    len(names) - 1,
                )
            prompt_mean, output_mean = sequences[index]
            yield names[index], draw(prompt_mean), draw(output_mean)

    return stream()


def simulate_scenario_cell(cell: ScenarioCell,
                           record_sink: list | None = None) -> ServingResult:
    """Worker body: one full serving simulation of one cell.

    ``record_sink``, when given, receives every per-request record —
    the hybrid-fidelity calibration uses this to extract service-time
    quantiles that the aggregated result does not carry.
    """
    fabric_faults, compute_events = platform_timelines(cell.faults)
    platform = build_platform(
        cell.platform, cell.config, cell.controller,
        faults=fabric_faults,
    )
    env = Environment()
    sim = platform.build_simulation(env)
    trace = ExecutionTrace()
    residency = WeightResidency(
        env, capacity_bits=cell.residency_capacity_bits
    )

    quotas = cell.quotas or (None,) * len(cell.models)
    (primary, fraction, slo_s, priority), *tenants = cell.models
    scheduler = RequestScheduler(
        sim, sim.map_workload(extract_workload(MODELS.get(primary)())),
        primary, policy=cell.policy, residency=residency, trace=trace,
        slo_s=slo_s, priority=priority, quota=quotas[0],
        starvation_age_s=cell.starvation_age_s,
    )
    for index, (name, _, tenant_slo, tenant_priority) in enumerate(
        tenants, start=1
    ):
        scheduler.add_model(
            name, sim.map_workload(extract_workload(MODELS.get(name)())),
            slo_s=tenant_slo, priority=tenant_priority,
            quota=quotas[index],
        )
    if compute_events:
        start_compute_hazards(env, (scheduler.compute,), compute_events)

    arrivals = ARRIVALS.get(cell.arrival_kind)(
        cell.rate_rps, cell.seed, burstiness=cell.burstiness,
        dwell_s=cell.dwell_s, think_time_s=cell.think_time_s,
    )
    if cell.sequences:
        mix = _sequence_stream(cell.models, cell.sequences,
                               cell.length_distribution, cell.seed)
    else:
        mix = _mix_stream(cell.models, cell.seed)
    driver = None
    if cell.resilience is not None and cell.resilience:
        driver = LifecycleDriver(scheduler, cell.resilience,
                                 seed=cell.seed)
        session = start_telemetry(cell.telemetry, env, scheduler, sim,
                                  cell.duration_s, driver=driver)
        driver.serve(arrivals, cell.duration_s, models=mix)
        # Client-visible accounting: logical requests, with retries and
        # hedges folded into each one's latency.
        records = driver.records
        injected = driver.requests_injected
        completed = driver.requests_completed
        shed = driver.requests_gave_up
        resilience_stats = driver.stats()
    else:
        session = start_telemetry(cell.telemetry, env, scheduler, sim,
                                  cell.duration_s)
        scheduler.serve(arrivals, cell.duration_s, models=mix)
        records = scheduler.records
        injected = scheduler.requests_injected
        completed = scheduler.requests_completed
        shed = scheduler.requests_shed
        resilience_stats = None

    elapsed = env.now
    if record_sink is not None:
        record_sink.extend(records)
    latency, queue_delay, mean_batch = aggregate(records)
    network = sim.fabric.energy_report()
    trace.record_channel_stats(sim.fabric)
    windows = ()
    hazard_events: tuple = ()
    time_degraded_s = 0.0
    window = None
    if sim.hazards is not None:
        window = sim.hazards.fault_window(elapsed)
        hazard_events = tuple(sim.hazards.records)
        time_degraded_s = sim.hazards.time_degraded_s(elapsed)
    if compute_events:
        window = _merge_window(window, compute_events, elapsed)
        hazard_events = hazard_events + compute_hazard_records(
            compute_events, elapsed
        )
        time_degraded_s += _compute_degraded_s(compute_events, elapsed)
    if window is not None:
        windows = windowed_stats(records, window[0], window[1], elapsed)
    seq_ttft = seq_token = None
    tokens = 0
    tokens_per_s = 0.0
    if cell.sequences:
        seq_ttft, seq_token, tokens, tokens_per_s = sequence_stats(
            records, elapsed
        )
    return ServingResult(
        platform=platform.name,
        model=cell.mix_label,
        controller=cell.controller,
        policy=cell.policy.label,
        arrival_kind=cell.arrival_kind,
        offered_rps=cell.rate_rps,
        duration_s=cell.duration_s,
        elapsed_s=elapsed,
        requests_injected=injected,
        requests_completed=completed,
        latency=latency,
        queue_delay=queue_delay,
        mean_batch_size=mean_batch,
        mean_inflight=sim.fabric.mean_inflight_requests,
        mean_compute_utilization=scheduler.compute.mean_utilization(),
        reconfigurations=sim.reconfigurations,
        network_energy_j=network.total_energy_j,
        compute_energy_j=platform.trace_compute_energy_j(trace, elapsed),
        channel_stats=trace.channel_stats,
        requests_shed=shed,
        per_model=per_model_stats(records, elapsed, scheduler.slos(),
                                  quota_denied=scheduler.quota_denied),
        windows=windows,
        hazard_events=hazard_events,
        time_degraded_s=time_degraded_s,
        resilience=resilience_stats,
        ttft=seq_ttft,
        token_latency=seq_token,
        tokens_generated=tokens,
        tokens_per_s=tokens_per_s,
        kv_refusals=scheduler.kv.refusals if scheduler.kv else 0,
        kv_peak_bits=(
            scheduler.kv.peak_reserved_bits if scheduler.kv else 0.0
        ),
        decode_remaps=scheduler.decode_remaps,
        telemetry=finish_telemetry(session, scheduler, injected,
                                   completed, shed),
    )


def simulate_any_serving_cell(cell) -> ServingResult:
    """Dispatch worker shared by mixed scenario/cluster lists."""
    if cell.fidelity is not None:
        # Deferred: the fidelity engine orchestrates the cell workers
        # below, so importing it eagerly would cycle.
        from .fidelity import simulate_fidelity_cell

        return simulate_fidelity_cell(cell)
    if isinstance(cell, ScenarioCell):
        return simulate_scenario_cell(cell)
    # Deferred: the cluster study module resolves names against the
    # registries this module's importers construct.
    from ..cluster.study import simulate_cluster_cell

    return simulate_cluster_cell(cell)


def simulate_study_cells(cells: Sequence, jobs: int = 1,
                         cache_dir: str | Path | None = None,
                         stats=None) -> list[ServingResult]:
    """Run a mixed list of scenario and cluster serving cells."""
    return run_cached(
        list(cells), lambda cell: cell.key(), simulate_any_serving_cell,
        jobs=jobs, cache_dir=cache_dir, stats=stats,
    )


def latency_throughput_curve(
    results: Sequence[ServingResult],
) -> list[tuple[float, float, float]]:
    """(offered rps, goodput rps, p99 latency s) points, rate-sorted."""
    return sorted(
        (r.offered_rps, r.goodput_rps, r.latency.p99_s) for r in results
    )


def render_slo_summary(results: Sequence[ServingResult]) -> str:
    """Per-tenant SLO table: one row per (point, model).

    Empty string when no result carries per-model stats, so callers
    can append unconditionally.
    """
    rows = [
        (result, stats)
        for result in results
        for stats in result.per_model
    ]
    if not rows:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'model':<18}{'slo(us)':>9}"
        f"{'done':>7}{'shed':>6}{'viol':>6}{'attain':>9}{'p99(us)':>10}"
    )
    lines = [header, "-" * len(header)]
    for result, stats in rows:
        slo = "-" if stats.slo_s is None else f"{stats.slo_s * 1e6:.0f}"
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"{stats.model:<18}{slo:>9}"
            f"{stats.completed:>7}{stats.shed:>6}{stats.slo_violations:>6}"
            f"{stats.slo_attainment:>9.2%}"
            f"{stats.latency.p99_s * 1e6:>10.1f}"
        )
    return "\n".join(lines)


def render_sequence_summary(results: Sequence[ServingResult]) -> str:
    """Autoregressive serving table: one row per sequence-serving point.

    Empty string when no result carries token metrics (single-step
    runs), so callers can append unconditionally.
    """
    rows = [r for r in results if r.is_sequence_run]
    if not rows:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'mix':<26}"
        f"{'ttft p50(us)':>13}{'ttft p99(us)':>13}{'tok p99(us)':>12}"
        f"{'tokens':>9}{'tok/s':>11}{'kv-ref':>7}{'remaps':>7}"
    )
    lines = [header, "-" * len(header)]
    for result in rows:
        ttft = result.ttft
        token = result.token_latency
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"{result.model:<26}"
            f"{(ttft.p50_s * 1e6 if ttft else 0):>13.1f}"
            f"{(ttft.p99_s * 1e6 if ttft else 0):>13.1f}"
            f"{(token.p99_s * 1e6 if token else 0):>12.1f}"
            f"{result.tokens_generated:>9}"
            f"{result.tokens_per_s:>11.0f}"
            f"{result.kv_refusals:>7}"
            f"{result.decode_remaps:>7}"
        )
    return "\n".join(lines)


def render_fault_windows(results: Sequence[ServingResult]) -> str:
    """Windowed degradation table: one row per (point, window).

    Empty string when no result carries fault windows (fault-free
    runs), so callers can append unconditionally.
    """
    rows = [
        (result, window)
        for result in results
        for window in result.windows
    ]
    if not rows:
        return ""
    header = (
        f"{'policy':<16}{'offered/s':>12}  {'window':<8}{'span(us)':>16}"
        f"{'done':>7}{'shed':>6}{'goodput/s':>12}{'p99(us)':>10}"
        f"{'attain':>9}"
    )
    lines = [header, "-" * len(header)]
    for result, window in rows:
        span = (
            f"{window.start_s * 1e6:.0f}-{window.end_s * 1e6:.0f}"
        )
        lines.append(
            f"{result.policy:<16}{result.offered_rps:>12.0f}  "
            f"{window.label:<8}{span:>16}"
            f"{window.completed:>7}{window.shed:>6}"
            f"{window.goodput_rps:>12.0f}"
            f"{window.latency.p99_s * 1e6:>10.1f}"
            f"{window.slo_attainment:>9.2%}"
        )
    for result in results:
        if result.windows:
            lines.append(
                f"{result.policy:<16}{result.offered_rps:>12.0f}  "
                f"time degraded: {result.time_degraded_s * 1e6:.0f} us "
                f"({result.platform}, {result.controller})"
            )
    return "\n".join(lines)


def render_serving_study(results: Sequence[ServingResult]) -> str:
    """Text latency–throughput table, one row per simulated point."""
    header = (
        f"{'platform':<28}{'policy':<12}{'offered/s':>12}{'goodput/s':>12}"
        f"{'p50(us)':>11}{'p95(us)':>11}{'p99(us)':>11}{'util':>8}"
    )
    lines = [header, "-" * len(header)]
    ordered = sorted(
        results,
        key=lambda r: (r.platform, r.controller, r.policy, r.offered_rps),
    )
    for result in ordered:
        lines.append(result.summary_row())
    return "\n".join(lines)
