"""Hybrid-fidelity engine: fluid fast path, calibration, warm-state
fork, arrival cohorts, spec lowering, cache counters and export."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.cluster.study import ClusterCell
from repro.config import DEFAULT_PLATFORM
from repro.core.analytic import (
    FluidWindow,
    analytic_estimate,
    erlang_c,
    fluid_queue_delays,
    mgk_queue_delay,
)
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import ConfigurationError, SpecError
from repro.experiments.export import (
    cluster_results_to_csv,
    serving_result_to_dict,
    serving_results_to_csv,
)
from repro.experiments.fidelity import (
    FidelityPolicy,
    clear_warm_store,
    simulate_fidelity_cell,
    warm_store_size,
)
from repro.experiments.runner import CacheStats, ResultCache, run_cached
from repro.experiments.serving_study import (
    ScenarioCell,
    simulate_scenario_cell,
)
from repro.serving.scheduler import BatchPolicy
from repro.sim.traffic import PoissonArrivals
from repro.studies import (
    FaultEventSpec,
    FaultSpec,
    FidelitySpec,
    ModelTraffic,
    PlatformSpec,
    ResilienceSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
    build_fidelity,
    lower_study,
    render_dry_run,
    run_study,
    spec_digest,
)

WORKLOAD = extract_workload(zoo.build("LeNet5"))


@pytest.fixture(autouse=True)
def _fresh_warm_store():
    clear_warm_store()
    yield
    clear_warm_store()


def fluid_spec(mode="auto", error_budget=0.25, calibration_s=None,
               **overrides) -> StudySpec:
    if mode == "des":
        fidelity = FidelitySpec()  # degenerate: budget knobs are inert
    else:
        fidelity = FidelitySpec(
            mode=mode, error_budget=error_budget,
            calibration_s=calibration_s,
        )
    kwargs = dict(
        name="fidelity",
        kind="serving",
        workload=WorkloadSpec(
            models=(ModelTraffic(model="LeNet5"),),
            rate_rps=80e3, duration_s=1.5e-3, seed=7,
        ),
        platform=PlatformSpec(name="CrossLight"),
        scheduler=SchedulerSpec(policy="fifo"),
        fidelity=fidelity,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def lenet_cell(**overrides) -> ScenarioCell:
    """Single-tenant LeNet5 on SiPh/ReSiPI, no scenario features."""
    kwargs = dict(
        platform="2.5D-CrossLight-SiPh",
        models=(("LeNet5", 1.0, None, 0),),
        controller="resipi", policy=BatchPolicy.fifo(),
        arrival_kind="poisson", rate_rps=60e3, duration_s=1.5e-3,
        seed=7, config=DEFAULT_PLATFORM,
    )
    kwargs.update(overrides)
    return ScenarioCell(**kwargs)


# ---------------------------------------------------------------------------
# Spec layer: validation, inert knobs, degenerate lowering.
# ---------------------------------------------------------------------------


class TestFidelitySpec:
    def test_validation_is_typed(self):
        with pytest.raises(SpecError):
            FidelitySpec(mode="quantum")
        with pytest.raises(SpecError):
            FidelitySpec(mode="fluid", error_budget=0.0)
        with pytest.raises(SpecError):
            FidelitySpec(mode="fluid", error_budget=1.5)
        with pytest.raises(SpecError):
            FidelitySpec(mode="auto", calibration_s=-1e-3)

    def test_inert_knobs_on_des_mode_are_rejected(self):
        with pytest.raises(SpecError, match="error_budget"):
            FidelitySpec(mode="des", error_budget=0.5)
        with pytest.raises(SpecError, match="calibration_s"):
            FidelitySpec(mode="des", calibration_s=1e-3)

    def test_default_is_degenerate(self):
        assert not FidelitySpec()
        assert FidelitySpec(mode="fluid")
        assert build_fidelity(fluid_spec(mode="des")) is None
        policy = build_fidelity(fluid_spec(mode="auto", error_budget=0.2))
        assert policy == FidelityPolicy(mode="auto", error_budget=0.2)

    def test_round_trips_through_json(self):
        spec = fluid_spec(mode="fluid", error_budget=0.3,
                          calibration_s=0.2e-3)
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_incompatible_features_rejected_at_spec_level(self):
        with pytest.raises(SpecError, match="closed"):
            fluid_spec(workload=WorkloadSpec(
                models=(ModelTraffic(model="LeNet5"),),
                rate_rps=80e3, duration_s=1.5e-3, seed=7,
                arrival="closed",
            ))
        with pytest.raises(SpecError, match="resilience"):
            fluid_spec(resilience=ResilienceSpec(timeout_s=100e-6))
        with pytest.raises(SpecError, match="shed_expired"):
            fluid_spec(scheduler=SchedulerSpec(
                policy="fifo", shed_expired=True,
            ))
        with pytest.raises(SpecError, match="serving"):
            StudySpec(
                name="inf", kind="inference",
                workload=WorkloadSpec(
                    models=(ModelTraffic(model="LeNet5"),),
                ),
                platform=PlatformSpec(name="CrossLight"),
                fidelity=FidelitySpec(mode="fluid"),
            )

    def test_fabric_faults_rejected_at_compile_time(self):
        spec = fluid_spec(platform=PlatformSpec(
            name="2.5D-CrossLight-SiPh",
            faults=FaultSpec(events=(
                FaultEventSpec(kind="gateway-fail", at_s=0.2e-3,
                               memory_gateways=1),
            )),
        ))
        with pytest.raises(SpecError, match="fabric-level"):
            lower_study(spec)

    def test_degenerate_des_keeps_legacy_digest_and_cache_key(self):
        explicit = fluid_spec(mode="des")
        implicit = StudySpec(**{
            f.name: getattr(explicit, f.name)
            for f in fields(StudySpec) if f.name != "fidelity"
        })
        assert spec_digest(implicit) == spec_digest(explicit)
        explicit_cell = lower_study(explicit)[1][0][0]
        implicit_cell = lower_study(implicit)[1][0][0]
        assert explicit_cell.fidelity is None
        assert explicit_cell.key() == implicit_cell.key()

    def test_mode_sweep_forks_keys_only_when_armed(self):
        spec = fluid_spec(mode="des", sweep=SweepSpec(axes=(
            SweepAxis(field="fidelity.mode", values=("des", "fluid")),
        )))
        _, cells_per_point = lower_study(spec)
        des_cell = cells_per_point[0][0]
        fluid_cell = cells_per_point[1][0]
        assert des_cell.fidelity is None
        assert fluid_cell.fidelity is not None
        assert des_cell.key() != fluid_cell.key()
        # The policy and the spec digest (which covers the fidelity
        # section) are the only fields the armed mode moves.
        disarmed = replace(fluid_cell, fidelity=None,
                           digest=des_cell.digest)
        assert disarmed == des_cell
        assert disarmed.key() == des_cell.key()


# ---------------------------------------------------------------------------
# Analytic building blocks.
# ---------------------------------------------------------------------------


class TestQueueModel:
    def test_erlang_c_known_values(self):
        # M/M/1 at rho: C(1, rho) == rho.
        assert erlang_c(1, 0.5) == pytest.approx(0.5)
        # Saturated and idle edges.
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 0.0) == 0.0
        # Erlang-C for k=2, a=1: 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)
        with pytest.raises(ConfigurationError):
            erlang_c(0, 1.0)

    def test_mgk_matches_mm1_wait(self):
        # M/M/1: Wq = rho/(mu - lambda) = rho*s/(1-rho).
        prob, wait = mgk_queue_delay(
            rate_rps=5e4, servers=1, service_mean_s=10e-6,
        )
        rho = 5e4 * 10e-6
        assert prob == pytest.approx(rho)
        assert wait == pytest.approx(rho * 10e-6 / (1 - rho))
        # Allen-Cunneen scales by (ca^2+cs^2)/2: deterministic service
        # halves the M/M/1 wait.
        _, wait_det = mgk_queue_delay(
            rate_rps=5e4, servers=1, service_mean_s=10e-6,
            service_scv=0.0,
        )
        assert wait_det == pytest.approx(wait / 2)

    def test_mgk_saturation_and_idle(self):
        prob, wait = mgk_queue_delay(2e5, 1, 10e-6)
        assert prob == 1.0 and wait == float("inf")
        assert mgk_queue_delay(0.0, 4, 10e-6) == (0.0, 0.0)

    def test_fluid_window_validation(self):
        with pytest.raises(ConfigurationError):
            FluidWindow(start_s=1.0, end_s=0.5, servers=1,
                        service_mean_s=1e-6)
        with pytest.raises(ConfigurationError):
            FluidWindow(start_s=0.0, end_s=1.0, servers=0,
                        service_mean_s=1e-6)
        window = FluidWindow(start_s=0.0, end_s=1.0, servers=2,
                             service_mean_s=10e-6, mean_batch=2.0)
        assert window.capacity_rps == pytest.approx(4e5)

    def test_fluid_queue_delays_subsaturation_stays_stationary(self):
        rng = np.random.default_rng(3)
        arrivals = np.sort(rng.uniform(0.0, 1.0, size=2000))
        window = FluidWindow(start_s=0.0, end_s=1.0, servers=4,
                             service_mean_s=1e-3)
        waits = fluid_queue_delays(
            arrivals, [window], rng.random(2000)
        )
        assert waits.shape == (2000,)
        assert (waits >= 0).all()
        # Offered load 0.5: most arrivals do not wait (Erlang-C ~ 0.17).
        assert (waits == 0).mean() > 0.6

    def test_fluid_queue_delays_overload_backlog_grows(self):
        arrivals = np.linspace(0.0, 1.0, 4000, endpoint=False)
        window = FluidWindow(start_s=0.0, end_s=1.0, servers=1,
                             service_mean_s=1e-3)  # capacity 1k < 4k
        waits = fluid_queue_delays(
            arrivals, [window], np.full(4000, 0.5)
        )
        # Transient backlog: later arrivals wait longer, roughly the
        # fluid limit (lambda-mu)*t/mu at the end of the window.
        assert waits[-1] > waits[100]
        assert waits[-1] == pytest.approx(3.0, rel=0.05)

    def test_fluid_queue_delays_validates_shapes(self):
        window = FluidWindow(start_s=0.0, end_s=1.0, servers=1,
                             service_mean_s=1e-3)
        with pytest.raises(ConfigurationError):
            fluid_queue_delays(np.zeros(3), [window], np.zeros(2))
        with pytest.raises(ConfigurationError):
            fluid_queue_delays(np.zeros(3), [], np.zeros(3))


class TestAnalyticMacDegrade:
    @pytest.fixture(scope="class")
    def mapping(self):
        from repro.interposer.topology import build_floorplan
        from repro.mapping.mapper import KernelMatchMapper

        floorplan = build_floorplan(DEFAULT_PLATFORM)
        return KernelMatchMapper(
            DEFAULT_PLATFORM, floorplan
        ).map_workload(WORKLOAD)

    def test_mac_fraction_stretches_compute_bound_latency(self, mapping):
        nominal = analytic_estimate(mapping, DEFAULT_PLATFORM)
        degraded = analytic_estimate(
            mapping, DEFAULT_PLATFORM, mac_fraction=0.5
        )
        assert degraded.lower_bound_s > nominal.lower_bound_s
        # Fully compute-bound layers would double; the mix must stay
        # within [1x, 2x].
        ratio = degraded.lower_bound_s / nominal.lower_bound_s
        assert 1.0 < ratio <= 2.0

    def test_mac_fraction_validated(self, mapping):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                analytic_estimate(mapping, DEFAULT_PLATFORM,
                                  mac_fraction=bad)


# ---------------------------------------------------------------------------
# Arrival cohorts: the fluid path's batched times == the DES gap stream.
# ---------------------------------------------------------------------------


class TestVectorizedInjection:
    def test_arrival_times_match_gap_stream(self):
        arrivals = PoissonArrivals(rate_rps=80e3, seed=3)
        times = arrivals.arrival_times(1e-3)
        expected, now = [], 0.0
        for gap in arrivals.gaps():
            now += gap
            if now > 1e-3:
                break
            expected.append(now)
        assert times == pytest.approx(expected)


# ---------------------------------------------------------------------------
# The fluid fast path end to end.
# ---------------------------------------------------------------------------


class TestFluidPath:
    def test_fluid_agrees_with_des_within_budget(self):
        des = simulate_scenario_cell(lenet_cell())
        fluid = simulate_fidelity_cell(lenet_cell(
            fidelity=FidelityPolicy(mode="auto", error_budget=0.25),
        ))
        report = fluid.fidelity
        assert report is not None
        assert report.mode_used == "fluid"
        assert report.within_budget
        assert report.p99_rel_err <= 0.25
        assert report.goodput_rel_err <= 0.25
        # The fluid result itself stays close to the full DES truth.
        assert fluid.requests_completed == pytest.approx(
            des.requests_completed, rel=0.1
        )
        assert fluid.latency.p99_s == pytest.approx(
            des.latency.p99_s, rel=0.25
        )
        assert fluid.goodput_rps == pytest.approx(
            des.goodput_rps, rel=0.25
        )

    @pytest.mark.parametrize("rate_rps", [30e3, 60e3, 120e3])
    def test_error_budget_holds_across_rates(self, rate_rps):
        fluid = simulate_fidelity_cell(lenet_cell(
            rate_rps=rate_rps,
            fidelity=FidelityPolicy(mode="fluid", error_budget=0.25),
        ))
        assert fluid.fidelity.mode_used == "fluid"
        assert fluid.fidelity.within_budget

    def test_auto_mode_falls_back_beyond_budget(self):
        des = simulate_scenario_cell(lenet_cell())
        fluid = simulate_fidelity_cell(lenet_cell(
            fidelity=FidelityPolicy(mode="auto", error_budget=1e-9),
        ))
        report = fluid.fidelity
        assert report.mode_used == "des-fallback"
        # The fallback is the exact full-DES result, report attached.
        assert replace(fluid, fidelity=None) == des

    def test_fluid_mode_never_falls_back(self):
        fluid = simulate_fidelity_cell(lenet_cell(
            fidelity=FidelityPolicy(mode="fluid", error_budget=1e-9),
        ))
        assert fluid.fidelity.mode_used == "fluid"
        assert not fluid.fidelity.within_budget

    def test_warm_state_fork_shares_calibration(self):
        policy = FidelityPolicy(mode="fluid", error_budget=0.25)
        first = simulate_fidelity_cell(lenet_cell(fidelity=policy))
        assert not first.fidelity.warm_forked
        assert warm_store_size() == 1
        # A longer window of the same point forks from the checkpoint.
        second = simulate_fidelity_cell(lenet_cell(
            duration_s=3e-3, fidelity=policy,
        ))
        assert second.fidelity.warm_forked
        assert warm_store_size() == 1
        assert second.requests_injected > first.requests_injected

    def test_scenario_variants_fork_from_one_checkpoint(self):
        policy = FidelityPolicy(mode="fluid", error_budget=0.25)
        base = ScenarioCell(
            platform="2.5D-CrossLight-SiPh",
            models=(("LeNet5", 1.0, 200e-6, 0),),
            controller="resipi", policy=BatchPolicy.fifo(),
            arrival_kind="poisson", rate_rps=60e3, duration_s=1.5e-3,
            seed=7, config=DEFAULT_PLATFORM, fidelity=policy,
        )
        degrade = FaultSpec(events=(FaultEventSpec(
            kind="chiplet-mac-degrade", at_s=0.5e-3,
            mac_fraction=0.4, duration_s=0.5e-3,
        ),))
        nominal = simulate_fidelity_cell(base)
        faulted = simulate_fidelity_cell(replace(base, faults=degrade))
        assert not nominal.fidelity.warm_forked
        assert faulted.fidelity.warm_forked
        assert warm_store_size() == 1
        # The degraded window slows the MAC arrays: the hazard variant
        # must report the event and at least as much tail latency.
        assert faulted.time_degraded_s == pytest.approx(0.5e-3)
        assert len(faulted.hazard_events) == 1
        assert faulted.latency.p99_s >= nominal.latency.p99_s
        labels = [window.label for window in faulted.windows]
        assert labels == ["before", "during", "after"]

    def test_fluid_cluster_cell_with_node_outage(self):
        cell = ClusterCell(
            platform="CrossLight",
            models=(("LeNet5", 1.0, None, 0),),
            controller="resipi", policy=BatchPolicy.fifo(),
            arrival_kind="poisson", rate_rps=60e3, duration_s=1.5e-3,
            seed=7, config=DEFAULT_PLATFORM, replicas=3,
            router="least-outstanding",
            node_faults=FaultSpec(events=(
                FaultEventSpec(kind="node-fail", at_s=0.4e-3, node=1),
                FaultEventSpec(kind="node-repair", at_s=1.0e-3, node=1),
            )),
            fidelity=FidelityPolicy(mode="fluid", error_budget=0.3),
        )
        result = simulate_fidelity_cell(cell)
        assert result.fidelity.mode_used == "fluid"
        assert result.n_nodes == 3
        assert len(result.per_node) == 3
        assert result.per_node[1].state == "up"  # repaired by the end
        assert 0.0 < result.availability < 1.0
        assert len(result.incidents) == 1
        incident = result.incidents[0]
        assert incident.node == 1 and incident.resolved
        assert result.mttr_s == pytest.approx(0.6e-3)
        assert [event.kind for event in result.node_events] == [
            "node-fail", "node-repair",
        ]
        assert result.requests_completed == sum(
            stats.requests_completed for stats in result.per_node
        )
        # Fleet CSV rows carry the error-budget columns too.
        csv_text = cluster_results_to_csv([result])
        lines = csv_text.strip().splitlines()
        assert "fidelity_mode" in lines[0]
        assert any("fluid" in line for line in lines[1:])

    def test_multi_tenant_mix_assignment_matches_stream(self):
        policy = FidelityPolicy(mode="fluid", error_budget=0.3)
        cell = ScenarioCell(
            platform="CrossLight",
            models=(("LeNet5", 0.7, None, 0),
                    ("MobileNetV2", 0.3, None, 1)),
            controller="resipi", policy=BatchPolicy.fifo(),
            arrival_kind="poisson", rate_rps=40e3, duration_s=1.5e-3,
            seed=7, config=DEFAULT_PLATFORM, fidelity=policy,
        )
        result = simulate_fidelity_cell(cell)
        per_model = {stats.model: stats for stats in result.per_model}
        assert set(per_model) == {"LeNet5", "MobileNetV2"}
        total = sum(stats.completed for stats in result.per_model)
        assert total == result.requests_completed
        assert per_model["LeNet5"].completed > per_model[
            "MobileNetV2"
        ].completed


# ---------------------------------------------------------------------------
# Sequence-aware fluid path: autoregressive cells without full DES.
# ---------------------------------------------------------------------------


def sequence_cell(mode="fluid", error_budget=0.25, rate_rps=60e3,
                  duration_s=2e-3, length_distribution="fixed"
                  ) -> ScenarioCell:
    spec = StudySpec(
        name="seq-fluid",
        kind="serving",
        workload=WorkloadSpec(
            models=(ModelTraffic(model="TransformerTiny",
                                 prompt_tokens=16, output_tokens=8),),
            rate_rps=rate_rps, duration_s=duration_s, seed=7,
            length_distribution=length_distribution,
        ),
        scheduler=SchedulerSpec(policy="continuous", max_batch=4),
        fidelity=FidelitySpec(mode=mode, error_budget=error_budget),
    )
    (cell,) = lower_study(spec)[1][0]
    return cell


class TestSequenceFluidPath:
    def test_sequence_cell_agrees_with_des_within_budget(self):
        cell = sequence_cell()
        des = simulate_scenario_cell(replace(cell, fidelity=None))
        fluid = simulate_fidelity_cell(cell)
        report = fluid.fidelity
        assert report.mode_used == "fluid"
        assert report.within_budget
        # Sequence cells validate the token metrics, not just e2e p99.
        assert report.ttft_rel_err is not None
        assert report.ttft_rel_err <= 0.25
        assert report.token_p99_rel_err is not None
        assert report.token_p99_rel_err <= 0.25
        assert fluid.is_sequence_run and des.is_sequence_run
        assert fluid.tokens_per_s == pytest.approx(
            des.tokens_per_s, rel=0.25
        )
        assert fluid.ttft.p99_s == pytest.approx(des.ttft.p99_s, rel=0.25)
        assert fluid.token_latency.p99_s == pytest.approx(
            des.token_latency.p99_s, rel=0.25
        )

    @pytest.mark.parametrize("rate_rps", [30e3, 60e3, 100e3])
    def test_sequence_budget_holds_across_rates(self, rate_rps):
        fluid = simulate_fidelity_cell(sequence_cell(rate_rps=rate_rps))
        assert fluid.fidelity.mode_used == "fluid"
        assert fluid.fidelity.within_budget

    def test_single_step_cells_skip_sequence_errors(self):
        fluid = simulate_fidelity_cell(lenet_cell(
            fidelity=FidelityPolicy(mode="fluid", error_budget=0.25),
        ))
        assert fluid.fidelity.ttft_rel_err is None
        assert fluid.fidelity.token_p99_rel_err is None

    def test_sequence_auto_fallback_is_exact_des(self):
        cell = sequence_cell(mode="auto", error_budget=1e-9)
        des = simulate_scenario_cell(replace(cell, fidelity=None))
        fluid = simulate_fidelity_cell(cell)
        assert fluid.fidelity.mode_used == "des-fallback"
        assert replace(fluid, fidelity=None) == des

    def test_sequence_fault_variant_forks_warm(self):
        base = sequence_cell()
        degrade = FaultSpec(events=(FaultEventSpec(
            kind="chiplet-mac-degrade", at_s=0.5e-3,
            mac_fraction=0.4, duration_s=0.5e-3,
        ),))
        nominal = simulate_fidelity_cell(base)
        faulted = simulate_fidelity_cell(replace(base, faults=degrade))
        assert not nominal.fidelity.warm_forked
        assert faulted.fidelity.warm_forked
        assert warm_store_size() == 1
        assert faulted.fidelity.mode_used == "fluid"

    def test_geometric_lengths_stay_on_fluid_path(self):
        fluid = simulate_fidelity_cell(
            sequence_cell(length_distribution="geometric")
        )
        assert fluid.fidelity.mode_used == "fluid"
        assert fluid.tokens_generated > 0
        assert fluid.ttft is not None and fluid.token_latency is not None


# ---------------------------------------------------------------------------
# Study integration: spec in, fidelity block out.
# ---------------------------------------------------------------------------


class TestStudyIntegration:
    def test_run_study_records_fidelity_block(self):
        study = run_study(fluid_spec(mode="auto"))
        (result,) = study.flat_results()
        assert result.fidelity is not None
        assert result.fidelity.mode_requested == "auto"
        assert result.fidelity.error_budget == 0.25
        assert study.cache_stats is not None
        assert study.cache_stats.simulated == 1

    def test_exports_carry_the_error_budget_block(self):
        study = run_study(fluid_spec(mode="auto"))
        (result,) = study.flat_results()
        record = serving_result_to_dict(result)
        block = record["fidelity"]
        assert block["mode_requested"] == "auto"
        assert block["mode_used"] in ("fluid", "des-fallback")
        assert block["p99_rel_err"] <= 1.0
        assert isinstance(block["warm_forked"], bool)
        csv_text = serving_results_to_csv([result])
        header, row = csv_text.strip().splitlines()
        assert "fidelity_mode" in header
        assert "fidelity_p99_err" in header
        assert result.fidelity.mode_used in row
        # Full-DES results export blank fidelity columns.
        des = simulate_scenario_cell(lenet_cell())
        des_record = serving_result_to_dict(des)
        assert des_record["fidelity"] is None
        des_row = serving_results_to_csv([des]).strip().splitlines()[1]
        assert des_row.endswith(",,")

    def test_fidelity_json_round_trip_runs(self, tmp_path):
        spec = fluid_spec(mode="auto")
        path = tmp_path / "fidelity.json"
        path.write_text(spec.to_json())
        loaded = StudySpec.from_json(path.read_text())
        assert loaded == spec


# ---------------------------------------------------------------------------
# Cache counters and dry-run annotation.
# ---------------------------------------------------------------------------


class TestCacheCounters:
    def test_run_cached_tallies_hits_misses(self, tmp_path):
        cells = [lenet_cell(), lenet_cell(rate_rps=80e3)]
        cold = CacheStats()
        run_cached(cells, lambda c: c.key(), simulate_scenario_cell,
                   cache_dir=tmp_path, stats=cold)
        assert cold.hits == 0
        assert cold.misses == 2
        assert cold.simulated == 2
        warm = CacheStats()
        run_cached(cells, lambda c: c.key(), simulate_scenario_cell,
                   cache_dir=tmp_path, stats=warm)
        assert warm.hits == 2
        assert warm.misses == 0
        assert warm.simulated == 0
        assert "2 hits" in warm.summary()

    def test_corrupt_entries_count_as_evictions(self, tmp_path):
        cell = lenet_cell()
        cache = ResultCache(tmp_path)
        cache._path(cell.key()).write_bytes(b"garbage")
        stats = CacheStats()
        run_cached([cell], lambda c: c.key(), simulate_scenario_cell,
                   cache_dir=tmp_path, stats=stats)
        assert stats.evictions == 1
        assert stats.misses == 1
        assert stats.simulated == 1
        assert "corrupt" in stats.summary()

    def test_no_cache_dir_counts_simulated_only(self):
        stats = CacheStats()
        run_cached([lenet_cell()], lambda c: c.key(),
                   simulate_scenario_cell, stats=stats)
        assert stats.simulated == 1
        assert stats.hits == 0 and stats.misses == 0

    def test_dry_run_annotates_cached_cells(self, tmp_path):
        spec = fluid_spec(mode="des")
        text = render_dry_run(spec, cache_dir=tmp_path)
        assert "0 cached, 1 to simulate" in text
        assert "[cold]" in text
        run_study(spec, cache_dir=tmp_path)
        text = render_dry_run(spec, cache_dir=tmp_path)
        assert "1 cached, 0 to simulate" in text
        assert "[cached]" in text
        # Without a cache dir the dry run stays annotation-free.
        assert "[cold]" not in render_dry_run(spec)

    def test_dry_run_names_armed_fidelity(self):
        text = render_dry_run(fluid_spec(mode="auto"))
        assert "fidelity: auto" in text


# ---------------------------------------------------------------------------
# The worked example spec ships and runs.
# ---------------------------------------------------------------------------


class TestExampleSpec:
    def test_example_fidelity_spec_runs_within_budget(self):
        from repro.studies.compile import load_spec

        spec = load_spec("examples/fidelity_spec.json")
        assert spec.fidelity.mode == "auto"
        study = run_study(spec)
        results = study.flat_results()
        assert len(results) >= 2
        warm_forks = 0
        for result in results:
            report = result.fidelity
            assert report is not None
            if report.mode_used == "fluid":
                assert report.within_budget
            warm_forks += report.warm_forked
        assert warm_forks >= 1  # the sweep shares calibration state
