"""DES inference engine semantics: overlap, streaming, tracing."""

import gc
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_PLATFORM
from repro.core import crosslight as crosslight_module
from repro.core.crosslight import MonolithicFabric, monolithic_mapping
from repro.core.engine import (
    ComputeOccupancy,
    ExecutionTrace,
    InferenceEngine,
    RequestExecution,
)
from repro.core.metrics import LayerTiming
from repro.dnn import zoo
from repro.dnn.workload import LayerWorkload, extract_workload
from repro.errors import SimulationError
from repro.experiments.serving_study import simulate_any_serving_cell
from repro.interposer import base as base_module
from repro.interposer.base import DEFAULT_CHUNK_BITS, ChunkStage
from repro.interposer.electrical.mesh import ElectricalMeshFabric
from repro.interposer.photonic import fabric as fabric_module
from repro.interposer.photonic.awgr import AWGRInterposerFabric
from repro.interposer.photonic.fabric import (
    PhotonicInterposerFabric,
    _ChunkRelay,
)
from repro.interposer.topology import build_floorplan
from repro.mapping.mapper import (
    Allocation,
    KernelMatchMapper,
    LayerMapping,
    ModelMapping,
)
from repro.mapping.residency import WeightResidency
from repro.mapping.tiling import TilingResult
from repro.obs.trace import TraceRecorder
from repro.serving import scheduler as scheduler_module
from repro.sim.core import Environment, Process
from repro.sim.resources import BandwidthChannel, Resource, Store
from repro.studies import StudySpec, lower_study


def synthetic_mapping(n_layers=3, vector_ops=1_000_000, weight_bits=1e6,
                      input_bits=1e6, output_bits=1e6):
    """A uniform synthetic workload mapped onto one pseudo-chiplet."""
    layers = []
    for index in range(n_layers):
        workload = LayerWorkload(
            index=index, name=f"l{index}", kind="Conv2D", kernel_size=3,
            dot_length=9, n_dots=vector_ops, macs=9 * vector_ops,
            weight_bits=int(weight_bits), input_bits=int(input_bits),
            output_bits=int(output_bits),
        )
        alloc = Allocation(
            chiplet_id="mono-0", kind="mono-vdp", n_macs=16,
            vector_length=64, vector_ops=vector_ops,
            weight_bits=int(weight_bits), output_bits=int(output_bits),
        )
        layers.append(LayerMapping(
            layer=workload, allocations=(alloc,),
            tiling=TilingResult(vector_ops, "spatial", 1.0),
        ))
    return ModelMapping(workload=None, layers=tuple(layers))


def run_mono(mapping, config=DEFAULT_PLATFORM):
    env = Environment()
    fabric = MonolithicFabric(env, config)
    engine = InferenceEngine(env, config, fabric,
                             mac_rate_hz=config.mono_mac_rate_hz)
    latency = engine.run(mapping)
    return latency, engine, fabric


class TestExecutionSemantics:
    def test_empty_mapping_completes_instantly(self):
        latency, _, _ = run_mono(ModelMapping(workload=None, layers=()))
        assert latency == 0.0

    def test_compute_bound_layer_time(self):
        # One layer, negligible traffic: latency ~ ops / (units * rate).
        mapping = synthetic_mapping(n_layers=1, vector_ops=16_000_000,
                                    weight_bits=8, input_bits=8,
                                    output_bits=8)
        latency, _, _ = run_mono(mapping)
        expected = 16_000_000 / (16 * DEFAULT_PLATFORM.mono_mac_rate_hz)
        assert latency == pytest.approx(expected, rel=0.01)

    def test_communication_bound_layer_time(self):
        # Negligible compute, 1 Gbit input: bounded by NoC bandwidth.
        mapping = synthetic_mapping(n_layers=1, vector_ops=1,
                                    weight_bits=8, input_bits=1e9,
                                    output_bits=8)
        latency, _, _ = run_mono(mapping)
        expected = 1e9 / DEFAULT_PLATFORM.mono_noc_bandwidth_bps
        assert latency == pytest.approx(expected, rel=0.05)

    def test_weight_prefetch_overlaps_compute(self):
        """Weights of layer N+1 stream during layer N's compute."""
        heavy_weights = 1e9  # 5 ms on the 0.2 Tb/s DRAM channel
        compute_ops = 16_000_000  # 1 ms of compute per layer
        mapping = synthetic_mapping(n_layers=2, vector_ops=compute_ops,
                                    weight_bits=heavy_weights,
                                    input_bits=8, output_bits=8)
        latency, _, _ = run_mono(mapping)
        weight_time = heavy_weights / DEFAULT_PLATFORM.mono_dram_bandwidth_bps
        compute_time = compute_ops / (16 * DEFAULT_PLATFORM.mono_mac_rate_hz)
        serial = 2 * (weight_time + compute_time)
        overlapped = weight_time + max(weight_time, compute_time) + (
            compute_time
        )
        assert latency == pytest.approx(overlapped, rel=0.05)
        assert latency < serial * 0.95

    def test_streaming_max_semantics(self):
        """Layer time = max(input stream, compute), not the sum."""
        input_bits = 1.28e9  # exactly 1 ms on the NoC
        compute_ops = 16_000_000  # exactly 1 ms of compute
        mapping = synthetic_mapping(n_layers=1, vector_ops=compute_ops,
                                    weight_bits=8, input_bits=input_bits,
                                    output_bits=8)
        latency, _, _ = run_mono(mapping)
        assert latency == pytest.approx(1e-3, rel=0.1)
        assert latency < 1.9e-3  # clearly not the 2 ms serial sum

    def test_trace_accumulates_ops(self):
        mapping = synthetic_mapping(n_layers=3, vector_ops=1000)
        _, engine, _ = run_mono(mapping)
        assert engine.trace.total_vector_ops == 3000
        assert engine.trace.lane_ops_by_kind["mono-vdp"] == 3000 * 64

    def test_time_limit_guard(self):
        mapping = synthetic_mapping(n_layers=1, vector_ops=int(1e15))
        env = Environment()
        fabric = MonolithicFabric(env, DEFAULT_PLATFORM)
        engine = InferenceEngine(env, DEFAULT_PLATFORM, fabric,
                                 mac_rate_hz=1e3)
        with pytest.raises(SimulationError):
            engine.run(mapping, time_limit_s=1e-3)


class TestAgainstRealWorkload:
    def test_lenet_on_photonic_fabric_layer_order(self):
        config = DEFAULT_PLATFORM
        workload = extract_workload(zoo.build("LeNet5"))
        env = Environment()
        floorplan = build_floorplan(config)
        fabric = PhotonicInterposerFabric(env, config, floorplan)
        mapping = KernelMatchMapper(config, floorplan).map_workload(workload)
        engine = InferenceEngine(env, config, fabric)
        latency = engine.run(mapping)
        names = [t.name for t in engine.trace.layer_timings]
        assert names == [layer.name for layer in workload]
        assert latency > 0
        # All traffic accounted: weights + inputs + outputs reached fabric.
        total_weights = sum(layer.weight_bits for layer in workload)
        assert fabric.bits_read >= total_weights


# ---------------------------------------------------------------------------
# Exactness of the callback chains against the process construction.
# ---------------------------------------------------------------------------

CHIPLETS = tuple(
    site.chiplet_id
    for site in build_floorplan(DEFAULT_PLATFORM).compute_sites
)
SLOT_S = 0.5e-6
"""Launch times are multiples of this, so many executions start together."""


class GeneratorExecution(RequestExecution):
    """The construction the callback chains replace: one generator
    process per execution and one per chiplet share of a layer."""

    def start(self):
        return self.env.process(self._run_proc())

    def _run_proc(self):
        layers = list(self.mapping)
        if not layers:
            return
        weights_ready = [None] * len(layers)
        weights_ready[0] = self._fetch_weights(layers[0])

        for index, layer_mapping in enumerate(layers):
            start = self.env.now
            if self.obs is not None:
                self.obs.begin(
                    self.obs_track,
                    f"weights:{layer_mapping.layer.name}",
                )
            yield weights_ready[index]
            if self.obs is not None:
                self.obs.end(self.obs_track)
            if index + 1 < len(layers):
                weights_ready[index + 1] = self._fetch_weights(
                    layers[index + 1]
                )
            input_done = self.fabric.read(
                layer_mapping.chiplet_ids[0],
                layer_mapping.layer.input_bits * self.batch_size,
                multicast=layer_mapping.chiplet_ids,
            )
            compute_done_holder = [0.0]
            chiplet_events = [
                self.env.process(
                    self._chiplet_proc(
                        alloc, input_done, compute_done_holder
                    )
                )
                for alloc in layer_mapping.allocations
            ]
            if self.obs is not None:
                self.obs.begin(
                    self.obs_track,
                    f"layer:{layer_mapping.layer.name}",
                    args={"chiplets": len(layer_mapping.allocations)},
                )
            yield self.env.all_of(chiplet_events)
            if self.obs is not None:
                self.obs.end(self.obs_track)
            if self.record_timings:
                self.trace.layer_timings.append(
                    LayerTiming(
                        name=layer_mapping.layer.name,
                        start_s=start,
                        compute_done_s=compute_done_holder[0],
                        end_s=self.env.now,
                        chiplets=layer_mapping.chiplet_ids,
                        vector_ops=layer_mapping.total_vector_ops,
                    )
                )

    def _chiplet_proc(self, alloc, input_done, compute_done_holder):
        compute_s = (
            alloc.vector_ops * self.batch_size
            / (alloc.n_macs * self.mac_rate_hz)
        )
        if self.compute is not None and self.compute.mac_fraction < 1.0:
            compute_s /= self.compute.mac_fraction
        if self.compute is not None:
            occupancy = self.compute.resource(alloc.chiplet_id)
            yield occupancy.request()
            yield self.env.timeout(compute_s)
            if not input_done.processed:
                yield input_done
            occupancy.release()
        else:
            yield self.env.timeout(compute_s)
            if not input_done.processed:
                yield input_done
        compute_done_holder[0] = max(compute_done_holder[0], self.env.now)
        kind = alloc.kind
        self.trace.lane_ops_by_kind[kind] = (
            self.trace.lane_ops_by_kind.get(kind, 0)
            + alloc.lane_ops * self.batch_size
        )
        self.trace.vector_ops_by_kind[kind] = (
            self.trace.vector_ops_by_kind.get(kind, 0)
            + alloc.vector_ops * self.batch_size
        )
        if alloc.output_bits > 0:
            yield self.fabric.write(
                alloc.chiplet_id, alloc.output_bits * self.batch_size
            )


def layered_mapping(layers):
    """A mapping over the photonic chiplets.

    ``layers`` lists, per layer, ``(input_bits, shares)``; each share is
    ``(chiplet index, vector_ops, weight_bits, output_bits)``.
    """
    mapped = []
    for index, (input_bits, shares) in enumerate(layers):
        allocations = tuple(
            Allocation(
                chiplet_id=CHIPLETS[chiplet], kind=f"k{chiplet % 3}",
                n_macs=16, vector_length=8, vector_ops=vector_ops,
                weight_bits=weight_bits, output_bits=output_bits,
            )
            for chiplet, vector_ops, weight_bits, output_bits in shares
        )
        workload = LayerWorkload(
            index=index, name=f"l{index}", kind="Conv2D", kernel_size=3,
            dot_length=9, n_dots=1, macs=9, input_bits=input_bits,
            weight_bits=sum(alloc.weight_bits for alloc in allocations),
            output_bits=sum(alloc.output_bits for alloc in allocations),
        )
        mapped.append(LayerMapping(
            layer=workload, allocations=allocations,
            tiling=TilingResult(1, "spatial", 1.0),
        ))
    return ModelMapping(workload=None, layers=tuple(mapped))


def play_executions(cls, models, launches, mac_changes, use_compute=True,
                    resident=True, armed=False):
    """Run ``launches`` of ``models`` with engine class ``cls``.

    ``launches`` are ``(slot, model, batch)``; ``mac_changes`` are
    ``(slot, hops, fraction)``: the MAC fraction changes ``hops``
    immediate-FIFO hops after the slot's launches.  Returns everything
    observable: the kernel log of channel requests and completions,
    occupancy requests and execution completions as
    ``(what, now, sequence)``, plus layer timings, operation counters,
    completion records and telemetry spans.
    """
    env = Environment()
    fabric = PhotonicInterposerFabric(
        env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM)
    )
    trace = ExecutionTrace()
    compute = ComputeOccupancy(env) if use_compute else None
    residency = WeightResidency(env) if resident else None
    obs = TraceRecorder(env) if armed else None
    log = []
    records = []

    def note(what):
        log.append((what, env._now, env._sequence))

    request_transfer = BandwidthChannel.request_transfer
    request = Resource.request

    def logged_transfer(channel, bits, fn):
        note(("transfer", channel.name, bits))

        def landed():
            note(("landed", channel.name, bits))
            fn()

        request_transfer(channel, bits, landed)

    def logged_request(resource):
        note("occupancy")
        return request(resource)

    def launch(number, model, batch):
        execution = cls(
            env, DEFAULT_PLATFORM, fabric, models[model], trace,
            batch_size=batch, residency=residency, compute=compute,
            model_name=f"m{model}", obs=obs, obs_track=f"r{number}",
        )

        def finished(_event):
            note(("done", number))
            records.append((number, env._now))

        execution.start()._add_callback(finished)

    def change_mac(hops, fraction):
        if hops:
            env.call_soon(lambda: change_mac(hops - 1, fraction))
        else:
            compute.set_mac_fraction(fraction)

    slots = sorted({slot for slot, _, _ in launches}
                   | {slot for slot, _, _ in mac_changes})

    def fire_slot(slot):
        def fire(_event):
            for number, (at, model, batch) in enumerate(launches):
                if at == slot:
                    launch(number, model, batch)
            for at, hops, fraction in mac_changes:
                if at == slot and compute is not None:
                    change_mac(hops, fraction)
        return fire

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BandwidthChannel, "request_transfer", logged_transfer)
        patch.setattr(Resource, "request", logged_request)
        for slot in slots:
            env.timeout(slot * SLOT_S).callbacks = fire_slot(slot)
        env.run()
    note("end")
    return {
        "log": log,
        "timings": trace.layer_timings,
        "lane_ops": list(trace.lane_ops_by_kind.items()),
        "vector_ops": list(trace.vector_ops_by_kind.items()),
        "records": records,
        "spans": obs.spans if obs is not None else None,
        "utilization": (
            [compute.utilization(chiplet) for chiplet in CHIPLETS]
            if compute is not None else None
        ),
    }


share_st = st.tuples(
    st.integers(0, len(CHIPLETS) - 1),
    st.sampled_from([0, 1, 4_000, 60_000]),
    st.sampled_from([0, 1e3, 200e3, 600e3]),
    st.sampled_from([0, 1e3, 100e3, 300e3]),
)
layer_st = st.tuples(
    st.sampled_from([0, 8e3, 100e3, 400e3]),
    st.lists(share_st, min_size=1, max_size=3,
             unique_by=lambda share: share[0]),
)
model_st = st.lists(layer_st, min_size=0, max_size=3)
launch_st = st.tuples(st.integers(0, 6), st.integers(0, 2),
                      st.integers(1, 3))
mac_change_st = st.tuples(st.integers(0, 6), st.integers(0, 4),
                          st.sampled_from([0.25, 0.5, 1.0]))

# Model 0: a layer with a share on chiplet 0 and a zero-output share on
# chiplet 1; model 1 contends for chiplet 0; model 2 is empty.  The
# first example launches them together (with armed spans), then model 0
# again on resident weights, with a MAC change two hops later: between
# share creation and share bootstrap.  The second runs without
# occupancy or residency.
CONTENDED = [[(8e3, [(0, 4_000, 1e3, 1e3), (1, 60_000, 0, 0)])],
             [(8e3, [(0, 4_000, 1e3, 1e3)]), (8e3, [(2, 1, 0, 1e3)])],
             []]


class TestCallbackChainExactness:
    """Every scheduling operation at the same time and sequence number
    as the generator processes, so records cannot drift."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(model_st, min_size=3, max_size=3),
        st.lists(launch_st, min_size=1, max_size=8),
        st.lists(mac_change_st, max_size=3),
        st.booleans(), st.booleans(), st.booleans(),
    )
    @example(CONTENDED, [(0, 0, 1), (0, 0, 2), (0, 1, 1), (4, 0, 1)],
             [(4, 2, 0.5)], True, True, True)
    @example(CONTENDED, [(0, 0, 1), (0, 2, 1), (1, 1, 2)], [],
             False, False, False)
    def test_matches_generator_processes(self, models, launches,
                                         mac_changes, use_compute,
                                         resident, armed):
        models = [layered_mapping(layers) for layers in models]
        args = (models, launches, mac_changes, use_compute, resident,
                armed)
        chains = play_executions(RequestExecution, *args)
        processes = play_executions(GeneratorExecution, *args)
        assert chains == processes

    def test_mac_change_between_creation_and_bootstrap(self):
        """A MAC change two hops after a launch on resident weights
        lands after the shares exist but before they bootstrap; the
        share reads the fraction at bootstrap, as the process did."""
        models = [layered_mapping([(0, [(0, 64_000, 1e3, 0)])])]
        launches = [(0, 0, 1), (20, 0, 1)]
        timings = {}
        for hops in (1, 2, 3):
            result = play_executions(RequestExecution, models, launches,
                                     [(20, hops, 0.5)])
            assert result == play_executions(
                GeneratorExecution, models, launches, [(20, hops, 0.5)]
            )
            timing = result["timings"][1]
            timings[hops] = timing.compute_done_s - timing.start_s
        nominal = 64_000 / (16 * DEFAULT_PLATFORM.mac_rate_hz)
        # One hop: changed before the shares exist.  Two: after their
        # creation, before their bootstrap.  Three: too late.
        assert timings[1] == pytest.approx(2 * nominal)
        assert timings[2] == pytest.approx(2 * nominal)
        assert timings[3] == pytest.approx(nominal)

    def test_no_process_per_execution_or_share(self, monkeypatch):
        created = []
        original = Process.__init__

        def init(self, env, generator):
            created.append(generator.__name__)
            original(self, env, generator)

        monkeypatch.setattr(Process, "__init__", init)
        models = [layered_mapping([(8e3, [(0, 4_000, 1e3, 1e3),
                                          (1, 4_000, 1e3, 1e3)])] * 3)]
        play_executions(RequestExecution, models, [(0, 0, 1), (0, 0, 2)], [])
        assert created == []


# ---------------------------------------------------------------------------
# Exactness of the baseline fabrics' chunk stages against the generator
# pipelines they replace.
# ---------------------------------------------------------------------------

CHUNK = DEFAULT_CHUNK_BITS
MESSAGE_SLOT_S = 1e-6
"""Issue times are multiples of this, so many messages start together."""


class GeneratorMonolithic(MonolithicFabric):
    """One process per message, one ``transfer`` process per chunk."""

    def _stream(self, channel, bits):
        return self.env.process(self._stream_proc(channel, bits))

    def _stream_proc(self, channel, bits):
        for chunk in self._chunks(bits):
            yield self.env.process(channel.transfer(chunk))


class GeneratorMesh(ElectricalMeshFabric):
    """One process per read, per route and per hop, the hops fed
    through ``Store``s."""

    def _route(self, src, dst, bits, through_hbm_first):
        return self.env.process(
            self._route_proc(src, dst, bits, through_hbm_first)
        )

    def _route_proc(self, src, dst, bits, through_hbm_first):
        chunks = self._chunks(bits)
        if not chunks:
            return
        route = self._xy_route(src, dst)
        if through_hbm_first:
            route = [self.hbm_channel] + route
        else:
            route = route + [self.hbm_channel]
        hops = len(route) - 2
        self.hop_bits += bits * max(1, hops)
        self.mm_bits += bits * self.floorplan.manhattan_distance_mm(src, dst)
        stores = [Store(self.env) for _ in range(len(route) - 1)]
        done = self.env.event()

        def stage(index, channel):
            source = stores[index - 1] if index > 0 else None
            sink = stores[index] if index < len(stores) else None
            for position in range(len(chunks)):
                if source is None:
                    chunk = chunks[position]
                else:
                    chunk = yield source.get()
                yield self.env.process(channel.transfer(chunk))
                if sink is not None:
                    sink.put(chunk)
            if index == len(route) - 1:
                done.succeed()

        for index, channel in enumerate(route):
            self.env.process(stage(index, channel))
        yield done
        yield self.env.timeout(
            self._per_hop_latency_s()
            * max(1, self.floorplan.manhattan_hops(src, dst))
        )

    def read(self, dst_chiplet, bits, multicast=None):
        destinations = multicast if multicast else (dst_chiplet,)
        return self.env.process(self._read_all(destinations, bits))

    def _read_all(self, destinations, bits):
        self.bits_read += bits * len(destinations)
        transfers = [
            self._route("mem-0", destination, bits, through_hbm_first=True)
            for destination in destinations
        ]
        yield self.env.all_of(transfers)


class GeneratorAWGR(AWGRInterposerFabric):
    """One process per transfer and per stage, the stages fed through
    a ``Store``."""

    def _piped(self, first, second, bits):
        return self.env.process(self._piped_proc(first, second, bits))

    def _piped_proc(self, first, second, bits):
        chunks = self._chunks(bits)
        if not chunks:
            return
        buffer = Store(self.env)
        done = self.env.event()

        def stage_one():
            for chunk in chunks:
                yield self.env.process(first.transfer(chunk))
                buffer.put(chunk)

        def stage_two():
            for _ in range(len(chunks)):
                chunk = yield buffer.get()
                yield self.env.process(second.transfer(chunk))
            done.succeed()

        self.env.process(stage_one())
        self.env.process(stage_two())
        yield done
        yield self.env.timeout(
            self.config.gateway_conversion_latency_s
            + self.config.gateway_protocol_overhead_s
        )


BASELINES = {
    "mono": (MonolithicFabric, GeneratorMonolithic),
    "mesh": (ElectricalMeshFabric, GeneratorMesh),
    "awgr": (AWGRInterposerFabric, GeneratorAWGR),
}


def play_messages(cls, messages):
    """Issue ``messages`` on a fresh fabric of class ``cls``.

    Each message is ``(slot, op, chiplet, fanout, bits)``: ``op`` is
    ``read`` (to ``fanout`` consecutive chiplets, as a multicast when
    more than one), ``write`` or ``weights``.  Returns the kernel log of
    channel requests and completions and of message completions as
    ``(what, now, sequence)``, the final clock and sequence, the
    fabric's bit counters and its channel statistics.
    """
    env = Environment()
    if issubclass(cls, MonolithicFabric):
        fabric = cls(env, DEFAULT_PLATFORM)
    else:
        fabric = cls(env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM))
    log = []

    def note(what):
        log.append((what, env._now, env._sequence))

    request_transfer = BandwidthChannel.request_transfer

    def logged_transfer(channel, bits, fn):
        note(("transfer", channel.name, bits))

        def landed():
            note(("landed", channel.name, bits))
            fn()

        request_transfer(channel, bits, landed)

    def issue(number, op, chiplet, fanout, bits):
        if op == "read":
            destinations = tuple(
                CHIPLETS[(chiplet + offset) % len(CHIPLETS)]
                for offset in range(fanout)
            )
            event = fabric.read(destinations[0], bits,
                                multicast=destinations if fanout > 1
                                else None)
        elif op == "write":
            event = fabric.write(CHIPLETS[chiplet], bits)
        else:
            event = fabric.read_weights(CHIPLETS[chiplet], bits)
        event._add_callback(lambda _event: note(("done", number)))

    def fire_slot(slot):
        def fire(_event):
            for number, (at, *message) in enumerate(messages):
                if at == slot:
                    issue(number, *message)
        return fire

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BandwidthChannel, "request_transfer", logged_transfer)
        for slot in sorted({message[0] for message in messages}):
            env.timeout(slot * MESSAGE_SLOT_S).callbacks = fire_slot(slot)
        env.run()
    note("end")
    counters = {
        name: getattr(fabric, name, None)
        for name in ("bits_read", "bits_written", "hop_bits", "mm_bits",
                     "weight_bits_moved")
    }
    return log, counters, fabric.channel_stats()


bits_st = st.builds(
    lambda full, remainder: full * CHUNK + remainder,
    st.integers(0, 3), st.sampled_from([0.0, 1.0, 1e3, 0.5 * CHUNK]),
)
message_st = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["read", "write", "weights"]),
    st.integers(0, len(CHIPLETS) - 1),
    st.integers(1, 4),
    bits_st,
)

# Three multi-chunk multicast reads to overlapping chiplet sets, a
# multi-chunk write and a weight fetch, all issued at once, then an
# empty message and one below a chunk behind them.
CROWDED = [
    (0, "read", 0, 4, 3 * CHUNK + 1e3),
    (0, "read", 2, 3, 2 * CHUNK),
    (0, "write", 1, 1, 2 * CHUNK + 0.5 * CHUNK),
    (0, "weights", 3, 1, CHUNK),
    (0, "read", 1, 2, 2 * CHUNK),
    (1, "write", 0, 1, 0.0),
    (1, "read", 0, 1, 1e3),
]


class TestChunkStageExactness:
    """The chunk stages of the monolithic, mesh and AWGR fabrics make
    every scheduling operation of the generator pipelines at the same
    time and sequence number, so no record can drift."""

    @pytest.mark.parametrize("fabric", sorted(BASELINES))
    @settings(max_examples=60, deadline=None)
    @given(st.lists(message_st, min_size=1, max_size=8))
    @example(CROWDED)
    def test_matches_generator_pipelines(self, fabric, messages):
        stages, generators = BASELINES[fabric]
        assert (play_messages(stages, messages)
                == play_messages(generators, messages))

    @pytest.mark.parametrize("fabric", sorted(BASELINES))
    def test_no_process_per_message(self, fabric, monkeypatch):
        created = []
        original = Process.__init__

        def init(self, env, generator):
            created.append(generator.__name__)
            original(self, env, generator)

        monkeypatch.setattr(Process, "__init__", init)
        play_messages(BASELINES[fabric][0], CROWDED)
        assert created == []

    @pytest.mark.parametrize("fabric", sorted(BASELINES))
    def test_finished_stages_are_freed_without_the_collector(
            self, fabric, monkeypatch):
        stages = []

        class TrackedStage(ChunkStage):
            __slots__ = ("__weakref__",)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stages.append(weakref.ref(self))

        monkeypatch.setattr(base_module, "ChunkStage", TrackedStage)
        monkeypatch.setattr(crosslight_module, "ChunkStage", TrackedStage)
        enabled = gc.isenabled()
        gc.disable()
        try:
            play_messages(BASELINES[fabric][0], CROWDED)
            assert stages
            assert [ref for ref in stages if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()


class TestServingRecordsUnchanged:
    """A whole serving study (armed telemetry, ReSiPI, continuous
    arrivals) gives the same records, spans and kernel sequence count
    with either construction."""

    def test_telemetry_example(self):
        examples = Path(__file__).resolve().parent.parent / "examples"
        data = json.loads((examples / "telemetry_spec.json").read_text())

        def run(cls):
            built = []
            envs = []
            scheduler_init = scheduler_module.RequestScheduler.__init__
            environment_init = Environment.__init__

            def init_scheduler(self, *args, **kwargs):
                scheduler_init(self, *args, **kwargs)
                built.append(self)

            def init_environment(self):
                environment_init(self)
                envs.append(self)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scheduler_module, "RequestExecution", cls)
                patch.setattr(scheduler_module.RequestScheduler, "__init__",
                              init_scheduler)
                patch.setattr(Environment, "__init__", init_environment)
                _, cells = lower_study(StudySpec.from_dict(data))
                spans = [
                    simulate_any_serving_cell(cell).telemetry.span_count
                    for group in cells for cell in group
                ]
            return ([repr(scheduler.records) for scheduler in built],
                    [env._sequence for env in envs], spans)

        chains = run(RequestExecution)
        assert chains == run(GeneratorExecution)
        assert chains[0] and all(chains[2])


class TestNoCyclicGarbage:
    """Finished kernel, engine and fabric objects hold no reference
    cycle, so reference counting frees them without the collector."""

    def test_freed_with_the_collector_off(self, monkeypatch):
        relays = []

        class TrackedRelay(_ChunkRelay):
            def __init__(self, *args):
                super().__init__(*args)
                relays.append(weakref.ref(self))

        class TrackedProcess(Process):
            pass

        class TrackedExecution(RequestExecution):
            pass

        def driver(execution):
            yield execution.start()

        monkeypatch.setattr(fabric_module, "_ChunkRelay", TrackedRelay)
        enabled = gc.isenabled()
        gc.disable()
        try:
            env = Environment()
            fabric = PhotonicInterposerFabric(
                env, DEFAULT_PLATFORM, build_floorplan(DEFAULT_PLATFORM)
            )
            # Multi-chunk weights, inputs and outputs: relays on every
            # stage of both transfer directions.
            mapping = layered_mapping(
                [(400e3, [(0, 4_000, 600e3, 300e3),
                          (1, 4_000, 600e3, 300e3)])] * 2
            )
            execution = TrackedExecution(
                env, DEFAULT_PLATFORM, fabric, mapping, ExecutionTrace(),
                compute=ComputeOccupancy(env),
            )
            process = TrackedProcess(env, driver(execution))
            refs = [weakref.ref(process), weakref.ref(execution)]
            env.run()
            assert process.processed
            assert relays
            del process, execution
            alive = [ref for ref in refs + relays if ref() is not None]
            assert alive == []
        finally:
            if enabled:
                gc.enable()
