"""Cluster serving: router policies, node hazards, fleet studies, CLI."""

import pickle
from types import SimpleNamespace

import pytest

from repro.cluster.hazards import (
    NodeDrain,
    NodeFail,
    NodeRepair,
    node_hazard_timeline,
    validate_node_timeline,
)
from repro.cluster.router import ClusterNode, ClusterRouter
from repro.cluster.study import ClusterCell
from repro.core.accelerator import MonolithicCrossLight
from repro.core.engine import ExecutionTrace
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.errors import (
    ConfigurationError,
    SimulationError,
    SpecError,
    UnknownNameError,
)
from repro.experiments.export import (
    cluster_results_to_csv,
    cluster_results_to_json,
    study_results_to_json,
)
from repro.experiments.serving_study import ScenarioCell, hazard_timeline
from repro.mapping.residency import WeightResidency
from repro.serving.metrics import ClusterResult, LatencyProfile, NodeStats
from repro.serving.scheduler import BatchPolicy, RequestScheduler
from repro.sim.core import Environment
from repro.sim.traffic import PoissonArrivals
from repro.studies import (
    ROUTERS,
    ClusterSpec,
    FaultEventSpec,
    FaultSpec,
    ModelTraffic,
    NodeOverrideSpec,
    PlatformSpec,
    SchedulerSpec,
    StudySpec,
    SweepAxis,
    SweepSpec,
    WorkloadSpec,
)
from repro.studies.compile import (
    is_degenerate_cluster,
    lower_serving_point,
    render_dry_run,
    render_study,
    resolve_config,
    run_study,
)

WORKLOAD = extract_workload(zoo.build("LeNet5"))


def make_fleet(n=3, router="round-robin", weights=(), node_events=(),
               reroute_on_fail=True, max_inflight=2):
    """N monolithic replicas behind a router, all in one environment."""
    env = Environment()
    platform = MonolithicCrossLight()
    nodes = []
    for index in range(n):
        sim = platform.build_simulation(env)
        scheduler = RequestScheduler(
            sim, sim.map_workload(WORKLOAD), "LeNet5",
            policy=BatchPolicy.fifo(max_inflight=max_inflight),
            residency=WeightResidency(env), trace=ExecutionTrace(),
        )
        nodes.append(ClusterNode(
            index=index, platform=platform, sim=sim,
            scheduler=scheduler, residency=scheduler.residency,
        ))
    policy = ROUTERS.get(router)(n, weights)
    return env, nodes, ClusterRouter(
        nodes, policy, node_events=node_events,
        reroute_on_fail=reroute_on_fail,
    )


def cluster_spec(replicas=4, router="round-robin", rate_rps=8e6,
                 duration_s=0.3e-3, events=(), max_inflight=1,
                 **overrides) -> StudySpec:
    kwargs = dict(
        name="fleet",
        kind="serving",
        workload=WorkloadSpec(
            models=(ModelTraffic(model="LeNet5"),),
            rate_rps=rate_rps, duration_s=duration_s,
        ),
        platform=PlatformSpec(name="CrossLight"),
        scheduler=SchedulerSpec(policy="fifo", max_inflight=max_inflight),
        cluster=ClusterSpec(
            replicas=replicas, router=router,
            faults=FaultSpec(events=tuple(events)),
        ),
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


FAIL_REPAIR = (
    FaultEventSpec(kind="node-fail", at_s=100e-6, node=1),
    FaultEventSpec(kind="node-repair", at_s=250e-6, node=1),
)


# ---------------------------------------------------------------------------
# Node hazards.
# ---------------------------------------------------------------------------


class TestNodeHazards:
    def test_node_kinds_resolve_via_hazards_registry(self):
        from repro.studies import HAZARDS

        for kind in ("node-fail", "node-drain", "node-repair"):
            assert kind in HAZARDS

    def test_factories_require_node_and_reject_fabric_knobs(self):
        from repro.studies import HAZARDS

        with pytest.raises(ConfigurationError, match="'node' index"):
            HAZARDS.get("node-fail")(at_s=0.0)
        with pytest.raises(ConfigurationError, match="do\\(es\\) not apply"):
            HAZARDS.get("node-drain")(at_s=0.0, node=0, memory_gateways=2)
        with pytest.raises(ConfigurationError, match="do\\(es\\) not apply"):
            HAZARDS.get("node-repair")(at_s=0.0, node=0, duration_s=1e-6)
        event = HAZARDS.get("node-fail")(at_s=1e-6, node=2)
        assert event == NodeFail(at_s=1e-6, node=2)

    def test_fabric_factories_reject_node_knob(self):
        from repro.studies import HAZARDS

        with pytest.raises(ConfigurationError, match="node"):
            HAZARDS.get("gateway-fail")(
                at_s=0.0, memory_gateways=1, node=0
            )

    def test_layer_crossing_kinds_rejected_both_ways(self):
        node_section = FaultSpec(events=(
            FaultEventSpec(kind="gateway-fail", at_s=0.0,
                           memory_gateways=1),
        ))
        with pytest.raises(ConfigurationError, match="platform.faults"):
            node_hazard_timeline(node_section)
        fabric_section = FaultSpec(events=(
            FaultEventSpec(kind="node-fail", at_s=0.0, node=0),
        ))
        with pytest.raises(ConfigurationError, match="cluster.faults"):
            hazard_timeline(fabric_section)

    def test_timeline_validation(self):
        with pytest.raises(ConfigurationError, match="names node 5"):
            validate_node_timeline((NodeFail(at_s=0.0, node=5),), 2)
        with pytest.raises(ConfigurationError, match="already failed"):
            validate_node_timeline(
                (NodeFail(at_s=0.0, node=0), NodeFail(at_s=1e-6, node=0)),
                2,
            )
        with pytest.raises(ConfigurationError, match="already up"):
            validate_node_timeline((NodeRepair(at_s=0.0, node=0),), 2)
        with pytest.raises(ConfigurationError, match="only an up node"):
            validate_node_timeline(
                (NodeFail(at_s=0.0, node=0), NodeDrain(at_s=1e-6, node=0)),
                2,
            )
        with pytest.raises(ConfigurationError, match="chronologically"):
            validate_node_timeline(
                (NodeFail(at_s=2e-6, node=0),
                 NodeDrain(at_s=1e-6, node=1)),
                3,
            )

    def test_timeline_must_leave_one_node_up(self):
        with pytest.raises(ConfigurationError, match="leaves no node up"):
            validate_node_timeline(
                (NodeFail(at_s=0.0, node=0), NodeDrain(at_s=1e-6, node=1)),
                2,
            )
        # A repair re-opens capacity for a later failure.
        validate_node_timeline(
            (
                NodeFail(at_s=0.0, node=0),
                NodeRepair(at_s=1e-6, node=0),
                NodeFail(at_s=2e-6, node=1),
            ),
            2,
        )


# ---------------------------------------------------------------------------
# Routing policies (pure choose() behavior over stub nodes).
# ---------------------------------------------------------------------------


def stub_node(index, outstanding=0, queue_length=0, routed=0, weight=1.0,
              resident=()):
    return SimpleNamespace(
        index=index, outstanding=outstanding, queue_length=queue_length,
        routed=routed, weight=weight,
        holds_model=lambda model, resident=resident: model in resident,
    )


class TestRoutingPolicies:
    def test_registry_lists_all_routers(self):
        for name in ("round-robin", "least-outstanding", "weighted",
                     "join-shortest-queue", "model-affinity"):
            assert name in ROUTERS

    def test_round_robin_cycles(self):
        policy = ROUTERS.get("round-robin")(3, ())
        nodes = [stub_node(i) for i in range(3)]
        picks = [policy.choose(nodes, "m").index for _ in range(5)]
        assert picks == [0, 1, 2, 0, 1]

    def test_least_outstanding_picks_min_then_index(self):
        policy = ROUTERS.get("least-outstanding")(3, ())
        nodes = [stub_node(0, outstanding=2), stub_node(1, outstanding=1),
                 stub_node(2, outstanding=1)]
        assert policy.choose(nodes, "m").index == 1

    def test_jsq_ignores_inflight(self):
        policy = ROUTERS.get("join-shortest-queue")(2, ())
        nodes = [stub_node(0, outstanding=9, queue_length=0),
                 stub_node(1, outstanding=0, queue_length=3)]
        assert policy.choose(nodes, "m").index == 0

    def test_weighted_tracks_weight_share(self):
        policy = ROUTERS.get("weighted")(2, (3.0, 1.0))
        nodes = [stub_node(0, weight=3.0), stub_node(1, weight=1.0)]
        picks = []
        for _ in range(8):
            node = policy.choose(nodes, "m")
            node.routed += 1
            picks.append(node.index)
        assert picks.count(0) == 6 and picks.count(1) == 2

    def test_model_affinity_prefers_resident_nodes(self):
        policy = ROUTERS.get("model-affinity")(3, ())
        nodes = [stub_node(0, outstanding=0),
                 stub_node(1, outstanding=5, resident=("ResNet50",)),
                 stub_node(2, outstanding=7, resident=("ResNet50",))]
        assert policy.choose(nodes, "ResNet50").index == 1
        # No node holds the model yet: least-outstanding fallback.
        assert policy.choose(nodes, "LeNet5").index == 0

    def test_weighted_factory_validates_weights(self):
        with pytest.raises(ConfigurationError, match="one weight per"):
            ROUTERS.get("weighted")(3, (1.0,))
        with pytest.raises(ConfigurationError, match="positive"):
            ROUTERS.get("weighted")(2, (1.0, -1.0))

    def test_other_routers_reject_weights(self):
        with pytest.raises(ConfigurationError, match="ignores"):
            ROUTERS.get("round-robin")(2, (1.0, 2.0))

    def test_unknown_router_error_names_registry(self):
        with pytest.raises(UnknownNameError) as excinfo:
            ROUTERS.get("lest-outstanding")
        message = str(excinfo.value)
        assert "in ROUTERS registry" in message
        assert "'least-outstanding'" in message

    def test_registry_labelled_errors_survive_pickling(self):
        try:
            ROUTERS.get("nope")
        except UnknownNameError as error:
            clone = pickle.loads(pickle.dumps(error))
            assert str(clone) == str(error)
            assert clone.registry == "ROUTERS"


# ---------------------------------------------------------------------------
# The router against live schedulers.
# ---------------------------------------------------------------------------


class TestClusterRouter:
    def test_route_distributes_and_counts(self):
        env, nodes, router = make_fleet(n=3)
        for _ in range(6):
            router.route()
        assert [node.routed for node in nodes] == [2, 2, 2]
        assert router.requests_routed == 6

    def test_nodes_must_share_an_environment(self):
        env, nodes, _ = make_fleet(n=2)
        other_env, other_nodes, _ = make_fleet(n=1)
        with pytest.raises(ConfigurationError, match="Environment"):
            ClusterRouter(
                [nodes[0], other_nodes[0]],
                ROUTERS.get("round-robin")(2, ()),
            )

    def test_serve_is_single_shot(self):
        env, nodes, router = make_fleet(n=2)
        router.serve(PoissonArrivals(rate_rps=100e3, seed=1), 0.1e-3)
        with pytest.raises(SimulationError, match="single-shot"):
            router.serve(PoissonArrivals(rate_rps=100e3, seed=1), 0.1e-3)

    def test_fail_reroutes_queued_requests(self):
        events = (NodeFail(at_s=100e-6, node=1),
                  NodeRepair(at_s=250e-6, node=1))
        env, nodes, router = make_fleet(
            n=4, node_events=events, max_inflight=1,
        )
        router.serve(PoissonArrivals(rate_rps=8e6, seed=7), 0.3e-3)
        assert router.requests_rerouted > 0
        assert nodes[1].rerouted_away == router.requests_rerouted
        assert nodes[1].state == "up"  # repaired
        assert [record.kind for record in router.records] == [
            "node-fail", "node-repair",
        ]
        assert router.records[0].rerouted == router.requests_rerouted
        # Fleet conservation: every routed request closed exactly once.
        closed = sum(
            node.scheduler.requests_completed + node.scheduler.requests_shed
            for node in nodes
        )
        assert closed == router.requests_routed
        assert sum(
            node.scheduler.requests_injected for node in nodes
        ) == router.requests_routed

    def test_reroute_preserves_arrival_times(self):
        events = (NodeFail(at_s=100e-6, node=1),)
        env, nodes, router = make_fleet(
            n=2, node_events=events, max_inflight=1,
        )
        router.serve(PoissonArrivals(rate_rps=8e6, seed=7), 0.2e-3)
        assert router.requests_rerouted > 0
        survivor = nodes[0].scheduler
        # Requests rerouted at t=100us kept their original (earlier)
        # arrival stamps: some of the survivor's records must have
        # arrived before the failure yet dispatched after it.
        carried = [
            record for record in survivor.records
            if record.arrival_s < 100e-6 and record.dispatch_s > 100e-6
        ]
        assert carried

    def test_without_reroute_failed_node_drains_in_place(self):
        events = (NodeFail(at_s=100e-6, node=1),)
        env, nodes, router = make_fleet(
            n=2, node_events=events, reroute_on_fail=False,
            max_inflight=1,
        )
        router.serve(PoissonArrivals(rate_rps=8e6, seed=7), 0.2e-3)
        assert router.requests_rerouted == 0
        assert nodes[1].state == "failed"
        # The queue it had accepted still completes locally.
        assert (
            nodes[1].scheduler.requests_completed
            == nodes[1].scheduler.requests_injected
        )

    def test_drain_stops_new_routing_but_completes_queue(self):
        events = (NodeDrain(at_s=100e-6, node=0),)
        env, nodes, router = make_fleet(
            n=2, node_events=events, max_inflight=1,
        )
        router.serve(PoissonArrivals(rate_rps=8e6, seed=7), 0.3e-3)
        drained_node = nodes[0].scheduler
        assert nodes[0].state == "draining"
        assert router.requests_rerouted == 0
        assert drained_node.requests_completed == (
            drained_node.requests_injected
        )
        # Every arrival after the drain went to node 1.
        assert all(
            record.arrival_s <= 100e-6
            for record in drained_node.records
        )


# ---------------------------------------------------------------------------
# Spec validation and lowering.
# ---------------------------------------------------------------------------


class TestClusterSpec:
    def test_round_trip(self):
        spec = cluster_spec(events=FAIL_REPAIR)
        clone = StudySpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.digest == spec.digest

    def test_validation_errors(self):
        with pytest.raises(SpecError, match="replica count"):
            ClusterSpec(replicas=0)
        with pytest.raises(SpecError, match="one weight per replica"):
            ClusterSpec(replicas=2, weights=(1.0,))
        with pytest.raises(SpecError, match="positive"):
            ClusterSpec(replicas=2, weights=(1.0, 0.0))
        with pytest.raises(SpecError, match="duplicate node overrides"):
            ClusterSpec(replicas=2, nodes=(
                NodeOverrideSpec(node=0), NodeOverrideSpec(node=0),
            ))
        with pytest.raises(SpecError, match="has 2 replica"):
            ClusterSpec(replicas=2, nodes=(NodeOverrideSpec(node=5),))
        with pytest.raises(SpecError, match="needs a 'node' index"):
            ClusterSpec(replicas=2, faults=FaultSpec(events=(
                FaultEventSpec(kind="node-fail", at_s=0.0),
            )))
        with pytest.raises(SpecError, match="names node 7"):
            ClusterSpec(replicas=2, faults=FaultSpec(events=(
                FaultEventSpec(kind="node-fail", at_s=0.0, node=7),
            )))

    def test_cluster_applies_only_to_serving(self):
        with pytest.raises(SpecError, match="serving"):
            StudySpec(
                name="x", kind="inference",
                workload=WorkloadSpec(
                    models=(ModelTraffic(model="LeNet5"),),
                ),
                cluster=ClusterSpec(replicas=2),
            )

    def test_unknown_router_fails_fast_with_registry_name(self):
        spec = cluster_spec(router="lest-outstanding")
        with pytest.raises(UnknownNameError, match="in ROUTERS registry"):
            run_study(spec)

    def test_sweepable_cluster_axes(self):
        spec = cluster_spec(
            replicas=2, rate_rps=100e3,
            sweep=SweepSpec(axes=(
                SweepAxis(field="cluster.replicas", values=(2, 4)),
                SweepAxis(field="cluster.router",
                          values=("round-robin", "least-outstanding")),
            )),
        )
        points = spec.expand()
        assert [
            (p.cluster.replicas, p.cluster.router) for p in points
        ] == [
            (2, "round-robin"), (2, "least-outstanding"),
            (4, "round-robin"), (4, "least-outstanding"),
        ]

    def test_sweeping_missing_cluster_section_is_typed(self):
        spec = cluster_spec(cluster=None)
        with pytest.raises(SpecError, match="no cluster section"):
            spec.with_override("cluster.replicas", 2)

    def test_one_replica_cluster_is_degenerate(self):
        plain = cluster_spec(cluster=None, rate_rps=150e3)
        one = cluster_spec(
            cluster=ClusterSpec(replicas=1, router="least-outstanding"),
            rate_rps=150e3,
        )
        assert is_degenerate_cluster(one)
        assert not is_degenerate_cluster(cluster_spec(replicas=2))
        assert not is_degenerate_cluster(cluster_spec(
            replicas=1, events=(
                FaultEventSpec(kind="node-drain", at_s=0.0, node=0),
            ),
        ))
        cell_plain = lower_serving_point(plain, resolve_config(plain))
        cell_one = lower_serving_point(one, resolve_config(one))
        assert isinstance(cell_plain, ScenarioCell)
        assert isinstance(cell_one, ScenarioCell)
        assert cell_plain.key() == cell_one.key()

    def test_one_replica_cluster_matches_single_node_bit_identical(self):
        plain = cluster_spec(cluster=None, rate_rps=150e3,
                             duration_s=0.4e-3, max_inflight=4)
        one = cluster_spec(cluster=ClusterSpec(replicas=1),
                           rate_rps=150e3, duration_s=0.4e-3,
                           max_inflight=4)
        assert (
            run_study(plain).flat_results()
            == run_study(one).flat_results()
        )


# ---------------------------------------------------------------------------
# End-to-end fleet studies.
# ---------------------------------------------------------------------------


class TestClusterStudy:
    def test_fleet_with_fail_and_repair(self):
        study = run_study(cluster_spec(events=FAIL_REPAIR))
        (result,) = study.cluster_results()
        assert isinstance(result, ClusterResult)
        assert result.n_nodes == 4
        assert result.requests_rerouted > 0
        assert result.requests_completed + result.requests_shed == (
            result.requests_injected
        )
        assert [event.kind for event in result.node_events] == [
            "node-fail", "node-repair",
        ]
        assert {stats.state for stats in result.per_node} == {"up"}
        assert result.load_imbalance >= 1.0
        assert result.goodput_rps > 0
        assert result.latency.p99_s >= result.latency.p50_s > 0

    def test_fleet_is_deterministic_and_cacheable(self, tmp_path):
        spec = cluster_spec(replicas=2, rate_rps=1e6,
                            duration_s=0.2e-3, events=(
                                FaultEventSpec(kind="node-fail",
                                               at_s=80e-6, node=0),
                                FaultEventSpec(kind="node-repair",
                                               at_s=150e-6, node=0),
                            ))
        serial = run_study(spec)
        parallel = run_study(spec, jobs=2)
        cold = run_study(spec, cache_dir=tmp_path)
        warm = run_study(spec, cache_dir=tmp_path)
        assert serial.points == parallel.points
        assert serial.points == cold.points
        assert cold.points == warm.points

    def test_routers_differentiate_under_skew(self):
        # Heterogeneous weights steer traffic toward node 0.
        spec = cluster_spec(
            replicas=2, router="weighted", rate_rps=500e3,
            duration_s=0.3e-3,
            cluster=ClusterSpec(replicas=2, router="weighted",
                                weights=(3.0, 1.0)),
        )
        (result,) = run_study(spec).cluster_results()
        node0, node1 = result.per_node
        assert node0.requests_completed > 2 * node1.requests_completed

    def test_heterogeneous_node_overrides_run(self):
        spec = cluster_spec(
            replicas=2, rate_rps=50e3, duration_s=0.2e-3,
            platform=PlatformSpec(name="2.5D-CrossLight-SiPh"),
            cluster=ClusterSpec(
                replicas=2, router="round-robin",
                nodes=(NodeOverrideSpec(node=1, n_wavelengths=8,
                                        controller="static"),),
            ),
        )
        (result,) = run_study(spec).cluster_results()
        assert result.requests_completed == result.requests_injected > 0

    def test_fleet_per_model_stats_cover_mix(self):
        spec = cluster_spec(
            replicas=2, rate_rps=40e3, duration_s=0.5e-3,
            max_inflight=2,
            workload=WorkloadSpec(models=(
                ModelTraffic(model="LeNet5", fraction=0.7, slo_s=300e-6),
                ModelTraffic(model="MobileNetV2", fraction=0.3),
            ), rate_rps=40e3, duration_s=0.5e-3),
        )
        (result,) = run_study(spec).cluster_results()
        assert {stats.model for stats in result.per_model} == {
            "LeNet5", "MobileNetV2",
        }
        assert result.model == "70%LeNet5+30%MobileNetV2"

    def test_render_study_includes_fleet_tables(self):
        study = run_study(cluster_spec(events=FAIL_REPAIR))
        text = render_study(study)
        assert "router" in text and "imbal" in text
        assert "per-node breakdown" in text
        assert "node1" in text

    def test_dry_run_renders_cluster_grid_with_keys(self):
        spec = cluster_spec(
            replicas=2, rate_rps=100e3,
            sweep=SweepSpec(axes=(
                SweepAxis(field="cluster.router",
                          values=("round-robin", "least-outstanding")),
                SweepAxis(field="workload.rate_rps",
                          values=(50e3, 100e3)),
            )),
        )
        text = render_dry_run(spec)
        assert "grid: 4 point(s), 4 cell(s)" in text
        assert text.count("ClusterCell") == 4
        assert "2x[least-outstanding] LeNet5" in text
        assert "cluster.router=round-robin" in text
        assert text.count(" key ") == 4
        for point in spec.expand():
            cell = lower_serving_point(point, resolve_config(point))
            assert cell.key() in text

    def test_cluster_cells_key_on_every_fleet_field(self):
        base = lower_serving_point(
            cluster_spec(events=FAIL_REPAIR),
            resolve_config(cluster_spec()),
        )
        variants = [
            cluster_spec(replicas=3, events=FAIL_REPAIR),
            cluster_spec(router="least-outstanding", events=FAIL_REPAIR),
            cluster_spec(events=()),
            cluster_spec(events=FAIL_REPAIR,
                         cluster=ClusterSpec(replicas=4,
                                             reroute_on_fail=False)),
        ]
        keys = {base.key()}
        for spec in variants:
            keys.add(
                lower_serving_point(spec, resolve_config(spec)).key()
            )
        assert len(keys) == len(variants) + 1

    def test_cluster_cell_pickles(self):
        cell = lower_serving_point(
            cluster_spec(events=FAIL_REPAIR),
            resolve_config(cluster_spec()),
        )
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell and clone.key() == cell.key()


# ---------------------------------------------------------------------------
# Export and CLI.
# ---------------------------------------------------------------------------


def tiny_cluster_result() -> ClusterResult:
    profile = LatencyProfile.from_samples([1e-6, 2e-6])
    return ClusterResult(
        platform="CrossLight", model="LeNet5", controller="resipi",
        router="round-robin", policy="fifo", arrival_kind="poisson",
        n_nodes=2, offered_rps=1e5, duration_s=1e-3, elapsed_s=1e-3,
        requests_injected=2, requests_completed=2, latency=profile,
        queue_delay=profile,
        per_node=(
            NodeStats(node="node0", state="up", requests_completed=2,
                      requests_shed=0, rerouted_away=0, latency=profile,
                      goodput_rps=2e3, mean_compute_utilization=0.5),
            NodeStats(node="node1", state="failed", requests_completed=0,
                      requests_shed=0, rerouted_away=2,
                      latency=LatencyProfile.from_samples([]),
                      goodput_rps=0.0, mean_compute_utilization=0.0),
        ),
        requests_rerouted=2,
    )


class TestExport:
    def test_cluster_json_carries_fleet_fields(self):
        import json

        (record,) = json.loads(
            cluster_results_to_json([tiny_cluster_result()])
        )
        assert record["router"] == "round-robin"
        assert record["requests_rerouted"] == 2
        assert record["load_imbalance"] == 2.0
        assert [node["node"] for node in record["per_node"]] == [
            "node0", "node1",
        ]
        assert record["per_node"][1]["state"] == "failed"
        assert record["latency_s"]["p99"] == pytest.approx(2e-6)

    def test_cluster_csv_has_aggregate_and_node_rows(self):
        text = cluster_results_to_csv([tiny_cluster_result()])
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 1 + 2  # header + aggregate + 2 nodes
        assert "load_imbalance" in lines[0]
        assert "node1" in lines[3]

    def test_mixed_study_export_dispatches_by_type(self):
        import json

        study = run_study(cluster_spec(
            replicas=2, rate_rps=100e3, duration_s=0.2e-3,
        ))
        payload = json.loads(
            study_results_to_json(study.flat_results())
        )
        assert payload[0]["n_nodes"] == 2

    def test_imbalance_edge_cases(self):
        result = tiny_cluster_result()
        assert result.load_imbalance == 2.0
        idle = ClusterResult(
            **{**result.__dict__,
               "per_node": tuple(
                   NodeStats(**{**stats.__dict__,
                                "mean_compute_utilization": 0.0})
                   for stats in result.per_node
               )},
        )
        assert idle.load_imbalance == 0.0
        assert idle.slo_attainment == 1.0  # no per-model stats


class TestClusterCli:
    def test_example_cluster_spec_parses_and_dry_runs(self, capsys):
        from repro.cli import main

        assert main(["study", "examples/cluster_spec.json",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "ClusterCell" in out
        assert "cluster.router=" in out

    def test_study_verb_runs_cluster_spec_with_exports(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        spec = cluster_spec(replicas=2, rate_rps=200e3,
                            duration_s=0.2e-3, events=(
                                FaultEventSpec(kind="node-fail",
                                               at_s=80e-6, node=1),
                            ))
        path = tmp_path / "fleet.json"
        path.write_text(spec.to_json())
        json_out = tmp_path / "out.json"
        csv_out = tmp_path / "out.csv"
        assert main(["study", str(path), "--json", str(json_out),
                     "--csv", str(csv_out)]) == 0
        out = capsys.readouterr().out
        assert "per-node breakdown" in out
        assert json_out.exists() and csv_out.exists()
        assert "node_rerouted_away" in csv_out.read_text()
