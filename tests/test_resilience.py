"""Resilience layer: lifecycle policy, health-checked routing, hazards,
spec validation, degenerate lowering, determinism and export."""

import json
import pickle
from dataclasses import fields, replace

import pytest

from repro.cluster.hazards import RackFail, RackRepair, event_nodes
from repro.cluster.router import ClusterNode, ClusterRouter, HealthPolicy
from repro.cluster.study import ClusterCell
from repro.core.accelerator import MonolithicCrossLight
from repro.core.engine import ComputeOccupancy, ExecutionTrace
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError, SpecError
from repro.experiments.export import (
    cluster_result_to_dict,
    cluster_results_to_csv,
    serving_result_to_dict,
    study_results_to_csv,
    study_results_to_json,
)
from repro.experiments.fidelity import _mac_segments
from repro.experiments.serving_study import (
    ScenarioCell,
    hazard_timeline,
    platform_timelines,
    start_compute_hazards,
)
from repro.mapping.residency import WeightResidency
from repro.serving.lifecycle import LifecycleDriver, ResiliencePolicy
from repro.serving.metrics import IncidentRecord, mean_time_to_repair
from repro.serving.scheduler import BatchPolicy, RequestScheduler
from repro.sim.core import Environment
from repro.sim.traffic import PoissonArrivals
from repro.studies import (
    HAZARDS,
    ClusterSpec,
    FaultEventSpec,
    FaultSpec,
    ModelTraffic,
    PlatformSpec,
    ResilienceSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
)
from repro.studies import spec_digest
from repro.studies.compile import (
    build_health,
    build_resilience,
    expand_points,
    lower_cluster_point,
    lower_serving_point,
    resolve_config,
    render_dry_run,
    run_study,
)

WORKLOAD = extract_workload(zoo.build("LeNet5"))

RACK_OUTAGE = (
    FaultEventSpec(kind="rack-fail", at_s=200e-6, nodes=(0, 1)),
    FaultEventSpec(kind="rack-repair", at_s=600e-6, nodes=(0, 1)),
)


def make_fleet(n=3, node_events=(), health=None, reroute_on_fail=True):
    """N monolithic replicas behind a least-outstanding router."""
    from repro.studies.registry import ROUTERS

    env = Environment()
    platform = MonolithicCrossLight()
    nodes = []
    for index in range(n):
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(WORKLOAD), "LeNet5",
            policy=BatchPolicy.fifo(max_inflight=2),
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        nodes.append(ClusterNode(
            index=index, platform=platform, sim=sim,
            scheduler=scheduler, residency=scheduler.residency,
        ))
    router = ClusterRouter(
        nodes, ROUTERS.get("least-outstanding")(n, ()),
        node_events=node_events, reroute_on_fail=reroute_on_fail,
        health=health,
    )
    return env, nodes, router


def resilient_spec(resilience, events=RACK_OUTAGE, replicas=3,
                   rate_rps=60e3, duration_s=0.8e-3, slo_s=300e-6,
                   **overrides) -> StudySpec:
    kwargs = dict(
        name="resilient",
        kind="serving",
        workload=WorkloadSpec(
            models=(ModelTraffic(model="LeNet5", slo_s=slo_s),),
            rate_rps=rate_rps, duration_s=duration_s, seed=7,
        ),
        platform=PlatformSpec(name="CrossLight"),
        scheduler=SchedulerSpec(policy="fifo", max_inflight=2),
        cluster=ClusterSpec(
            replicas=replicas, router="least-outstanding",
            reroute_on_fail=False,
            faults=FaultSpec(events=tuple(events)),
        ),
        resilience=resilience,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


# ---------------------------------------------------------------------------
# Runtime policy (serving layer).
# ---------------------------------------------------------------------------


class TestResiliencePolicy:
    def test_validation_is_typed_and_picklable(self):
        bad = [
            dict(timeout_s=-1e-6),
            dict(timeout_s=0.0),
            dict(max_retries=-1),
            dict(retry_backoff_s=-1e-6),
            dict(retry_jitter=1.5),
            dict(retry_budget=0.0),
            dict(hedge_delay_s=0.0),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigurationError) as err:
                ResiliencePolicy(**kwargs)
            clone = pickle.loads(pickle.dumps(err.value))
            assert str(clone) == str(err.value)

    def test_passthrough_policy_is_falsy(self):
        assert not ResiliencePolicy()
        assert ResiliencePolicy().label == "passthrough"
        assert ResiliencePolicy(timeout_s=100e-6)
        assert ResiliencePolicy(max_retries=2)
        assert ResiliencePolicy(hedge_delay_s=50e-6)

    def test_label_names_armed_knobs(self):
        policy = ResiliencePolicy(
            timeout_s=150e-6, max_retries=3, retry_budget=0.2,
            hedge_delay_s=60e-6,
        )
        assert policy.label == "timeout=150us+retries=3+budget=0.2+hedge=60us"


class TestHealthPolicy:
    def test_validation_is_typed(self):
        with pytest.raises(ConfigurationError):
            HealthPolicy(signal_staleness_s=-1e-6)
        with pytest.raises(ConfigurationError):
            HealthPolicy(probe_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            HealthPolicy(probe_interval_s=10e-6, probe_misses=0)

    def test_omniscient_default_is_falsy(self):
        assert not HealthPolicy()
        assert not HealthPolicy().probe_based
        assert HealthPolicy(signal_staleness_s=10e-6)
        assert HealthPolicy(probe_interval_s=10e-6).probe_based


# ---------------------------------------------------------------------------
# Spec-layer validation.
# ---------------------------------------------------------------------------


class TestResilienceSpecValidation:
    def test_malformed_json_is_typed(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            StudySpec.from_json('{"schema": 4, "resilience": {')

    def test_unknown_knob_fails_fast(self):
        with pytest.raises(SpecError, match="resilience spec"):
            ResilienceSpec.from_dict({"timeout_us": 100})

    def test_negative_timeout_rejected(self):
        with pytest.raises(SpecError, match="timeout must be positive"):
            ResilienceSpec(timeout_s=-100e-6)

    def test_zero_retry_budget_rejected(self):
        with pytest.raises(SpecError, match="retry budget must be positive"):
            ResilienceSpec(max_retries=2, retry_budget=0.0)

    def test_inert_retry_knobs_rejected(self):
        with pytest.raises(SpecError, match="max_retries >= 1"):
            ResilienceSpec(retry_jitter=0.5)
        with pytest.raises(SpecError, match="max_retries >= 1"):
            ResilienceSpec(retry_budget=0.1)
        with pytest.raises(SpecError, match="max_retries >= 1"):
            ResilienceSpec(retry_backoff_s=10e-6)

    def test_inert_probe_misses_rejected(self):
        with pytest.raises(SpecError, match="probe_interval_s"):
            ResilienceSpec(probe_misses=5)

    def test_hedging_needs_a_cluster(self):
        with pytest.raises(SpecError, match="second node"):
            resilient_spec(
                ResilienceSpec(hedge_delay_s=50e-6),
                cluster=None, events=(),
            )

    def test_health_checking_needs_a_cluster(self):
        with pytest.raises(SpecError, match="router"):
            resilient_spec(
                ResilienceSpec(probe_interval_s=20e-6),
                cluster=None, events=(),
            )

    def test_resilience_applies_only_to_serving(self):
        with pytest.raises(SpecError, match="serving"):
            StudySpec(
                name="inf", kind="inference",
                workload=WorkloadSpec(
                    models=(ModelTraffic(model="LeNet5"),),
                ),
                platform=PlatformSpec(name="CrossLight"),
                resilience=ResilienceSpec(timeout_s=100e-6),
            )

    def test_spec_errors_pickle_across_the_pool(self):
        with pytest.raises(SpecError) as err:
            ResilienceSpec(timeout_s=-1.0)
        clone = pickle.loads(pickle.dumps(err.value))
        assert "timeout" in str(clone)

    def test_round_trips_through_json(self):
        spec = resilient_spec(ResilienceSpec(
            timeout_s=150e-6, max_retries=2, retry_budget=0.25,
            hedge_delay_s=60e-6, signal_staleness_s=20e-6,
            probe_interval_s=25e-6, probe_misses=2,
        ))
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_resilience_is_sweepable(self):
        spec = resilient_spec(
            ResilienceSpec(timeout_s=150e-6),
            sweep=SweepSpec(axes=(
                SweepAxis(field="resilience.max_retries", values=(0, 2)),
            )),
        )
        points = expand_points(spec)
        assert [p.resilience.max_retries for p in points] == [0, 2]


# ---------------------------------------------------------------------------
# Degenerate lowering: default resilience == the pre-resilience cells.
# ---------------------------------------------------------------------------


class TestDegenerateLowering:
    def test_default_section_lowers_to_legacy_serving_cell(self):
        base = StudySpec(
            name="classic", kind="serving",
            workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),),
                rate_rps=100e3, duration_s=0.4e-3,
            ),
            platform=PlatformSpec(name="CrossLight"),
            scheduler=SchedulerSpec(policy="fifo"),
        )
        explicit = replace(base, resilience=ResilienceSpec())
        plain = lower_serving_point(base, resolve_config(base))
        lowered = lower_serving_point(explicit, resolve_config(explicit))
        assert isinstance(lowered, ScenarioCell)
        assert lowered.resilience is None
        assert lowered.key() == plain.key()

    def test_degenerate_cluster_keeps_legacy_cache_key(self):
        base = resilient_spec(ResilienceSpec(), events=())
        cell = lower_cluster_point(base, resolve_config(base))
        assert isinstance(cell, ClusterCell)
        assert cell.resilience is None
        assert cell.health is None

    def test_active_resilience_moves_the_cache_key(self):
        off_spec = resilient_spec(ResilienceSpec())
        off = lower_cluster_point(off_spec, resolve_config(off_spec))
        on_spec = resilient_spec(ResilienceSpec(timeout_s=150e-6))
        on = lower_cluster_point(on_spec, resolve_config(on_spec))
        assert off.key() != on.key()
        # A spec that never mentions resilience and one spelling out the
        # degenerate default are the same study: same digest, same key.
        omitted = resilient_spec(ResilienceSpec())
        implicit = StudySpec(**{
            f.name: getattr(omitted, f.name)
            for f in fields(StudySpec) if f.name != "resilience"
        })
        assert spec_digest(implicit) == spec_digest(omitted)
        assert lower_cluster_point(
            implicit, resolve_config(implicit)
        ).key() == off.key()

    def test_builders_return_none_for_degenerate_sections(self):
        spec = resilient_spec(ResilienceSpec())
        assert build_resilience(spec) is None
        assert build_health(spec) is None
        active = resilient_spec(ResilienceSpec(
            timeout_s=150e-6, probe_interval_s=25e-6,
        ))
        assert build_resilience(active) == ResiliencePolicy(timeout_s=150e-6)
        assert build_health(active) == HealthPolicy(probe_interval_s=25e-6)

    def test_degenerate_results_bit_identical_to_legacy(self):
        legacy = run_study(resilient_spec(ResilienceSpec(), events=()))
        degenerate = run_study(resilient_spec(ResilienceSpec(), events=()))
        assert legacy.flat_results() == degenerate.flat_results()
        result = legacy.flat_results()[0]
        assert result.resilience is None
        assert result.availability == 1.0


# ---------------------------------------------------------------------------
# Lifecycle runtime: timeouts, retries, hedging, budgets.
# ---------------------------------------------------------------------------


def run_one(resilience, **overrides):
    study = run_study(resilient_spec(resilience, **overrides))
    return study.flat_results()[0]


class TestLifecycle:
    def test_timeout_without_retries_gives_up(self):
        result = run_one(ResilienceSpec(
            timeout_s=120e-6, probe_interval_s=25e-6,
        ))
        stats = result.resilience
        assert stats is not None
        assert stats.timeouts > 0
        assert stats.gave_up == stats.timeouts
        assert result.requests_shed >= stats.gave_up
        assert result.requests_injected == (
            result.requests_completed + result.requests_shed
        )

    def test_retries_recover_timed_out_requests(self):
        result = run_one(ResilienceSpec(
            timeout_s=120e-6, max_retries=3, probe_interval_s=25e-6,
        ))
        stats = result.resilience
        assert stats.retries > 0
        assert dict(stats.retry_causes).get("timeout", 0) > 0
        assert stats.gave_up == 0
        assert stats.retry_amplification > 1.0

    def test_hedging_wins_and_cancels_losers(self):
        result = run_one(ResilienceSpec(
            timeout_s=150e-6, hedge_delay_s=60e-6,
            probe_interval_s=25e-6,
        ))
        stats = result.resilience
        assert stats.hedges > 0
        assert stats.hedge_wins > 0
        assert stats.cancelled > 0
        assert 0.0 < stats.hedge_win_rate <= 1.0
        assert stats.wasted_attempts >= stats.hedge_wins

    def test_resilience_improves_slo_attainment_under_outage(self):
        baseline = run_one(ResilienceSpec(probe_interval_s=25e-6))
        hardened = run_one(ResilienceSpec(
            timeout_s=120e-6, max_retries=3, hedge_delay_s=60e-6,
            probe_interval_s=25e-6,
        ))
        def attainment(result):
            (stats,) = result.per_model
            return stats.slo_attainment
        assert attainment(hardened) > attainment(baseline)

    def test_tight_retry_budget_denies_retry_storms(self):
        generous = run_one(ResilienceSpec(
            timeout_s=120e-6, max_retries=3, probe_interval_s=25e-6,
        ))
        starved = run_one(ResilienceSpec(
            timeout_s=120e-6, max_retries=3, retry_budget=0.01,
            probe_interval_s=25e-6,
        ))
        assert generous.resilience.budget_denied == 0
        assert starved.resilience.budget_denied > 0
        assert starved.resilience.retries < generous.resilience.retries

    def test_lifecycle_works_on_a_single_node(self):
        result = run_one(
            ResilienceSpec(timeout_s=5e-3, max_retries=1),
            cluster=None, events=(), rate_rps=100e3, duration_s=0.4e-3,
        )
        assert result.resilience is not None
        assert result.resilience.requests == result.requests_injected
        assert result.requests_completed > 0

    def test_driver_serve_is_single_shot(self):
        env, _, router = make_fleet()
        driver = LifecycleDriver(router, ResiliencePolicy(timeout_s=1e-3))
        driver.serve(PoissonArrivals(rate_rps=50e3, seed=1), 0.1e-3)
        with pytest.raises(Exception):
            driver.serve(PoissonArrivals(rate_rps=50e3, seed=1), 0.1e-3)


# ---------------------------------------------------------------------------
# Health-checked routing: stale signals and probe-based detection.
# ---------------------------------------------------------------------------


class TestHealthRouting:
    def test_probe_detection_lags_the_failure(self):
        health = HealthPolicy(probe_interval_s=25e-6, probe_misses=3)
        env, _, router = make_fleet(
            node_events=(RackFail(at_s=200e-6, nodes=(0, 1)),
                         RackRepair(at_s=500e-6, nodes=(0, 1))),
            health=health, reroute_on_fail=False,
        )
        router.serve(PoissonArrivals(rate_rps=60e3, seed=7), 0.8e-3)
        incidents = router.incidents()
        assert len(incidents) == 2
        for incident in incidents:
            assert incident.resolved
            assert incident.detection_lag_s is not None
            assert 0.0 < incident.detection_lag_s <= 3 * 25e-6 + 1e-9

    def test_omniscient_detection_has_zero_lag(self):
        env, _, router = make_fleet(
            node_events=(RackFail(at_s=200e-6, nodes=(0, 1)),
                         RackRepair(at_s=500e-6, nodes=(0, 1))),
        )
        router.serve(PoissonArrivals(rate_rps=60e3, seed=7), 0.8e-3)
        for incident in router.incidents():
            assert incident.detection_lag_s == 0.0

    def test_stale_signals_are_sampled_not_live(self):
        health = HealthPolicy(signal_staleness_s=20e-6)
        env, nodes, router = make_fleet(health=health)
        router.serve(PoissonArrivals(rate_rps=60e3, seed=7), 0.3e-3)
        assert all(n.sampled_outstanding is not None for n in nodes)

    def test_total_outage_requires_probe_based_health(self):
        events = (RackFail(at_s=100e-6, nodes=(0, 1, 2)),
                  RackRepair(at_s=200e-6, nodes=(0, 1, 2)))
        with pytest.raises(ConfigurationError, match="at least one must stay"):
            make_fleet(node_events=events)
        env, _, router = make_fleet(
            node_events=events,
            health=HealthPolicy(probe_interval_s=20e-6, probe_misses=2),
        )
        router.serve(PoissonArrivals(rate_rps=40e3, seed=3), 0.4e-3)
        assert router.availability(0.4e-3) < 1.0

    def test_availability_and_mttr_in_results(self):
        result = run_one(ResilienceSpec(
            timeout_s=150e-6, max_retries=2, probe_interval_s=25e-6,
        ))
        assert result.availability == 1.0  # node 2 never fails
        assert result.mttr_s == pytest.approx(400e-6)
        assert len(result.incidents) == 2
        assert {i.node for i in result.incidents} == {0, 1}
        labels = [w.label for w in result.windows]
        assert labels == ["before", "during", "after"]


# ---------------------------------------------------------------------------
# Correlated and compute-side hazards.
# ---------------------------------------------------------------------------


class TestCorrelatedHazards:
    def test_rack_kinds_registered_with_validation(self):
        event = HAZARDS.get("rack-fail")(at_s=1e-6, nodes=(0, 2))
        assert isinstance(event, RackFail)
        assert event_nodes(event) == (0, 2)
        with pytest.raises(ConfigurationError, match="nodes"):
            HAZARDS.get("rack-fail")(at_s=1e-6)
        with pytest.raises(ConfigurationError):
            HAZARDS.get("rack-repair")(at_s=1e-6, nodes=(0,),
                                       memory_gateways=2)

    def test_unknown_kind_suggests_neighbours(self):
        with pytest.raises(Exception, match="rack-fail"):
            HAZARDS.get("rack-fial")

    def test_rack_members_fail_and_repair_together(self):
        result = run_one(ResilienceSpec(probe_interval_s=25e-6))
        starts = {i.start_s for i in result.incidents}
        ends = {i.end_s for i in result.incidents}
        assert starts == {200e-6}
        assert ends == {600e-6}


class TestMacDegradeHazard:
    def test_registered_with_inert_knob_rejection(self):
        event = HAZARDS.get("chiplet-mac-degrade")(
            at_s=10e-6, mac_fraction=0.5, duration_s=100e-6,
        )
        assert event.mac_fraction == 0.5
        with pytest.raises(ConfigurationError, match="mac_fraction"):
            HAZARDS.get("chiplet-mac-degrade")(at_s=10e-6, mac_fraction=1.0)
        with pytest.raises(ConfigurationError):
            HAZARDS.get("chiplet-mac-degrade")(
                at_s=10e-6, mac_fraction=0.5, memory_gateways=2,
            )

    def test_rejected_on_the_inference_path(self):
        faults = FaultSpec(events=(FaultEventSpec(
            kind="chiplet-mac-degrade", at_s=10e-6, mac_fraction=0.5,
            duration_s=100e-6,
        ),))
        with pytest.raises(ConfigurationError, match="serving"):
            hazard_timeline(faults)

    def test_split_from_fabric_timeline(self):
        faults = FaultSpec(events=(
            FaultEventSpec(kind="chiplet-mac-degrade", at_s=10e-6,
                           mac_fraction=0.5, duration_s=100e-6),
        ))
        timeline, compute_events = platform_timelines(faults)
        assert timeline is None
        assert len(compute_events) == 1

    def test_degrade_slows_serving(self):
        def serve(events):
            spec = StudySpec(
                name="mac", kind="serving",
                workload=WorkloadSpec(
                    models=(ModelTraffic(model="LeNet5"),),
                    rate_rps=100e3, duration_s=0.4e-3, seed=7,
                ),
                platform=PlatformSpec(
                    name="2.5D-CrossLight-SiPh", controller="resipi",
                    faults=FaultSpec(events=tuple(events)),
                ),
                scheduler=SchedulerSpec(policy="fifo"),
            )
            return run_study(spec).flat_results()[0]
        healthy = serve(())
        degraded = serve((FaultEventSpec(
            kind="chiplet-mac-degrade", at_s=50e-6, mac_fraction=0.25,
            duration_s=200e-6,
        ),))
        assert degraded.latency.mean_s > healthy.latency.mean_s
        assert degraded.time_degraded_s == pytest.approx(200e-6)

    @pytest.mark.parametrize("spans", [
        # Overlapping: the shallow degrade ends while the deep one holds.
        ((0.5e-3, 0.5, 0.5e-3), (0.7e-3, 0.25, 0.6e-3)),
        # Nested: a short deep degrade inside a long shallow one.
        ((0.2e-3, 0.5, 1.0e-3), (0.5e-3, 0.25, 0.2e-3)),
    ], ids=["overlapping", "nested"])
    def test_concurrent_degrades_match_fluid_segments(self, spans):
        """DES runs at the minimum fraction of the events in force,
        exactly like the fluid model's capacity segments."""
        events = tuple(
            HAZARDS.get("chiplet-mac-degrade")(
                at_s=at_s, mac_fraction=fraction, duration_s=duration_s,
            )
            for at_s, fraction, duration_s in spans
        )
        duration = 2e-3
        segments = _mac_segments(events, duration)
        assert min(fraction for _, _, fraction in segments) == 0.25
        env = Environment()
        compute = ComputeOccupancy(env)
        start_compute_hazards(env, (compute,), events)
        samples = [(index + 0.5) * 25e-6 for index in range(80)]
        observed = []

        def sampler():
            for at_s in samples:
                yield env.timeout(at_s - env.now)
                observed.append(compute.mac_fraction)

        env.process(sampler())
        env.run()
        expected = [
            next(f for start, end, f in segments if start <= at_s < end)
            for at_s in samples
        ]
        assert observed == expected


# ---------------------------------------------------------------------------
# Scheduler regression: backdated arrivals must clamp, not go negative.
# ---------------------------------------------------------------------------


class TestBackdatedArrivals:
    def make_scheduler(self):
        env = Environment()
        platform = MonolithicCrossLight()
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(WORKLOAD), "LeNet5",
            policy=BatchPolicy.fifo(), slo_s=100e-6,
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        return env, scheduler

    def test_remaining_time_clamps_at_zero(self):
        env, scheduler = self.make_scheduler()
        env.run(until=1e-3)
        handle = scheduler.submit(arrival_s=0.0)
        assert handle.deadline_s == pytest.approx(100e-6)
        assert handle.deadline_s < env.now
        assert handle.remaining_s(env.now) == 0.0

    def test_unbounded_request_never_expires(self):
        env, scheduler = self.make_scheduler()
        handle = scheduler.submit()
        handle.deadline_s = None
        assert handle.remaining_s(1.0) == float("inf")


# ---------------------------------------------------------------------------
# Determinism: serial == parallel == cold/warm cache.
# ---------------------------------------------------------------------------


class TestDeterminism:
    def spec(self):
        return resilient_spec(ResilienceSpec(
            timeout_s=120e-6, max_retries=2, retry_jitter=0.5,
            hedge_delay_s=60e-6, probe_interval_s=25e-6,
            signal_staleness_s=20e-6,
        ), duration_s=0.6e-3)

    def test_serial_matches_process_pool(self):
        serial = run_study(self.spec()).flat_results()
        parallel = run_study(self.spec(), jobs=4).flat_results()
        assert serial == parallel

    def test_cold_and_warm_cache_bit_identical(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_study(self.spec(), cache_dir=cache).flat_results()
        warm = run_study(self.spec(), cache_dir=cache).flat_results()
        assert cold == warm
        assert cold[0].resilience == warm[0].resilience
        assert cold[0].incidents == warm[0].incidents


# ---------------------------------------------------------------------------
# Dry run rendering.
# ---------------------------------------------------------------------------


class TestDryRun:
    def test_dry_run_renders_resilience_knobs(self):
        spec = resilient_spec(
            ResilienceSpec(timeout_s=150e-6, probe_interval_s=25e-6),
            sweep=SweepSpec(axes=(
                SweepAxis(field="resilience.max_retries", values=(0, 2)),
            )),
        )
        text = render_dry_run(spec)
        assert "resilience: lifecycle timeout=150us" in text
        assert "retries=2" in text
        assert "probe=25usx3" in text

    def test_degenerate_points_render_without_resilience(self):
        text = render_dry_run(resilient_spec(ResilienceSpec(), events=()))
        assert "resilience:" not in text


# ---------------------------------------------------------------------------
# Export: availability, MTTR, retry amplification in JSON and CSV.
# ---------------------------------------------------------------------------


class TestExport:
    def result(self):
        return run_one(ResilienceSpec(
            timeout_s=120e-6, max_retries=2, hedge_delay_s=60e-6,
            probe_interval_s=25e-6,
        ))

    def test_cluster_json_carries_resilience_block(self):
        data = cluster_result_to_dict(self.result())
        assert data["availability"] == 1.0
        assert data["mttr_s"] == pytest.approx(400e-6)
        stats = data["resilience"]
        assert stats["requests"] > 0
        assert set(stats) >= {
            "attempts", "retries", "hedges", "hedge_wins", "timeouts",
            "retry_amplification", "hedge_win_rate", "wasted_attempts",
            "retry_causes",
        }
        assert len(data["incidents"]) == 2
        assert data["incidents"][0]["detection_lag_s"] > 0
        json.dumps(data)  # must be serialisable as-is

    def test_cluster_csv_has_availability_columns(self):
        text = cluster_results_to_csv([self.result()])
        header, row = text.strip().splitlines()[:2]
        columns = header.split(",")
        for name in ("availability", "mttr_s", "retry_amplification",
                     "hedge_win_rate", "wasted_attempts"):
            assert name in columns
        values = dict(zip(columns, row.split(",")))
        assert float(values["availability"]) == 1.0
        assert float(values["retry_amplification"]) >= 1.0

    def test_legacy_results_export_empty_resilience(self):
        legacy = run_one(ResilienceSpec(), events=())
        data = cluster_result_to_dict(legacy)
        assert data["resilience"] is None
        assert data["incidents"] == []
        assert data["availability"] == 1.0
        assert data["mttr_s"] == 0.0
        text = cluster_results_to_csv([legacy])
        assert "availability" in text.splitlines()[0]

    def test_single_node_serving_result_exports(self):
        result = run_one(
            ResilienceSpec(timeout_s=5e-3, max_retries=1),
            cluster=None, events=(), rate_rps=100e3, duration_s=0.4e-3,
        )
        data = serving_result_to_dict(result)
        assert data["resilience"]["requests"] > 0
        assert data["availability"] == 1.0
        text = study_results_to_csv([result])
        assert "retry_amplification" in text.splitlines()[0]

    def test_mixed_study_export_handles_both_shapes(self):
        cluster = self.result()
        single = run_one(ResilienceSpec(), cluster=None, events=())
        text = study_results_to_json([cluster, single])
        payload = json.loads(text)
        assert payload[0]["resilience"] is not None
        assert payload[1]["resilience"] is None


class TestMeanTimeToRepair:
    def test_empty_and_unresolved_incidents(self):
        assert mean_time_to_repair(()) == 0.0
        open_incident = IncidentRecord(node=0, start_s=1e-3)
        assert not open_incident.resolved
        assert open_incident.repair_s is None
        assert mean_time_to_repair((open_incident,)) == 0.0

    def test_mean_over_resolved(self):
        incidents = (
            IncidentRecord(node=0, start_s=0.0, detected_s=1e-6,
                           end_s=100e-6),
            IncidentRecord(node=1, start_s=0.0, end_s=300e-6),
            IncidentRecord(node=2, start_s=50e-6),  # unresolved
        )
        assert mean_time_to_repair(incidents) == pytest.approx(200e-6)
