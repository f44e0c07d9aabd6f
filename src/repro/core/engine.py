"""Discrete-event inference engine.

Executes mapped DNN workloads over an interposer fabric, layer by
layer, with the dataflow of Section V:

1. weights for the next layer prefetch while the current layer runs,
2. input activations are read from the memory chiplet (multicast to
   every chiplet hosting the layer),
3. each chiplet computes its work share, streaming: compute finishes no
   earlier than its inputs and no earlier than its pure compute time,
4. outputs are written back to memory; the next layer starts when all
   writes land and its weights are present.

Execution is **request-scoped**: a :class:`RequestExecution` drives one
(batched) inference as a chain of kernel callbacks, so any number of
requests can be in flight concurrently over one shared fabric — that is
what the serving layer (:mod:`repro.serving`) does.  The classic
single-inference :class:`InferenceEngine` is the trivial one-request
case and produces bit-identical results to the pre-serving engine.

No generator process runs per execution or per chiplet share, yet the
layer loop and each chiplet's share of a layer schedule exactly what a
process would, at the same float times and in the same order: every
bootstrap and every resume on an already-fired event is one
:meth:`~repro.sim.core.Environment.call_soon` hop (never a synchronous
call), every wait on a pending event is one callback on it, and the
completion event succeeds where a process would return.  Same-time
ties between concurrent requests are common, so this is what keeps the
kernel's sequence stream, and every record, exact.

Each execution records per-layer timings and the lane-operation counts
the energy model needs into an :class:`ExecutionTrace`; concurrent
requests may share one trace (operation counters simply accumulate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..config import PlatformConfig
from ..errors import SimulationError
from ..interposer.base import InterposerFabric
from ..mapping.mapper import LayerMapping, ModelMapping
from ..sim.core import AllOf, Environment, Event
from ..sim.resources import ChannelStat, Resource
from .metrics import LayerTiming

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..mapping.residency import WeightResidency


@dataclass
class ExecutionTrace:
    """Mutable accounting collected during a run.

    One trace may be shared by many concurrent request executions: the
    operation counters accumulate across requests (that is what the
    compute-energy model integrates), ``layer_timings`` interleaves in
    completion order, and ``request_records`` collects the per-request
    latency records the serving layer aggregates.
    """

    layer_timings: list[LayerTiming] = field(default_factory=list)
    lane_ops_by_kind: dict[str, int] = field(default_factory=dict)
    vector_ops_by_kind: dict[str, int] = field(default_factory=dict)
    channel_stats: tuple[ChannelStat, ...] = ()
    """End-of-run utilization snapshot of every fabric channel (filled
    by the platform once the simulation completes)."""
    request_records: list[Any] = field(default_factory=list)
    """Per-request completion records (see
    :class:`repro.serving.metrics.RequestRecord`); empty for classic
    single-inference runs."""

    @property
    def total_lane_ops(self) -> int:
        return sum(self.lane_ops_by_kind.values())

    @property
    def total_vector_ops(self) -> int:
        return sum(self.vector_ops_by_kind.values())

    def record_channel_stats(self, fabric: InterposerFabric) -> None:
        """Snapshot the fabric's channel utilization into the trace."""
        self.channel_stats = fabric.channel_stats()


class ComputeOccupancy:
    """Per-chiplet MAC-array occupancy shared by concurrent requests.

    A single inference owns every chiplet it maps to, so the one-shot
    path needs no compute arbitration — but overlapping requests must
    serialize on each chiplet's MAC array.  One unit-capacity
    :class:`Resource` per chiplet (created lazily) models that: a
    chiplet works on one request's layer share at a time, and compute
    queueing emerges alongside the fabric's bandwidth contention.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._resources: dict[str, Resource] = {}
        self.mac_fraction = 1.0

    def set_mac_fraction(self, fraction: float) -> None:
        """Scale every chiplet's sustainable MAC rate (compute hazard).

        ``fraction`` is the remaining throughput share in ``(0, 1]``;
        compute time for batches dispatched while it is below 1.0
        stretches by ``1/fraction``.  The serving layer drives this
        from ``chiplet-mac-degrade`` hazard events.
        """
        if not 0.0 < fraction <= 1.0:
            raise SimulationError(
                f"MAC fraction must be in (0, 1], got {fraction}"
            )
        self.mac_fraction = fraction

    def resource(self, chiplet_id: str) -> Resource:
        """The chiplet's occupancy semaphore (lazily created)."""
        resource = self._resources.get(chiplet_id)
        if resource is None:
            resource = Resource(self.env, capacity=1)
            self._resources[chiplet_id] = resource
        return resource

    def utilization(self, chiplet_id: str) -> float:
        """Busy fraction of one chiplet (0.0 if it never computed)."""
        resource = self._resources.get(chiplet_id)
        return resource.utilization() if resource is not None else 0.0

    def mean_utilization(self) -> float:
        """Average busy fraction across chiplets that ever computed."""
        if not self._resources:
            return 0.0
        return sum(
            resource.utilization() for resource in self._resources.values()
        ) / len(self._resources)


def _wait(event: Event, fn) -> None:
    """Run ``fn`` once ``event`` has fired, as a process would resume.

    A pending event takes ``fn`` as a callback; an event that has
    already fired costs one hop through the immediate FIFO, the hop
    :meth:`Process._step <repro.sim.core.Process._step>` makes, never a
    synchronous call.
    """
    if event._processed:
        event.env.call_soon(fn)
    else:
        event._add_callback(fn)


class RequestExecution:
    """One in-flight (batched) inference request over a shared fabric.

    Re-entrant by construction: every piece of per-inference state lives
    on the instance, so any number of executions can run concurrently in
    a single :class:`Environment` over one :class:`InterposerFabric` —
    contention between them emerges from the fabric's shared channels.

    ``residency`` (optional) makes weights **model-resident**: the first
    request for a model fetches each layer's weights once and every
    overlapping or later request waits on (or skips past) that same
    fetch instead of re-streaming them.  Without a residency store the
    execution fetches weights itself — the classic cold-fabric
    single-inference behaviour.

    The layer loop is a callback chain: :meth:`_begin` (the bootstrap
    hop) -> :meth:`_await_weights` -> :meth:`_weights_ready` (input
    read, one :class:`_ChipletShare` per allocation) ->
    :meth:`_layer_done` (once every share has finished) -> the next
    layer, or the completion event.  Only one layer is in flight at a
    time, so its state lives in the ``_``-prefixed slots.
    """

    __slots__ = (
        "env", "config", "fabric", "mapping", "trace", "mac_rate_hz",
        "batch_size", "residency", "compute", "model_name",
        "record_timings", "obs", "obs_track",
        "_done", "_layers", "_index", "_weights", "_start_s",
        "_compute_done_s", "_chiplet_ids",
    )

    def __init__(
        self,
        env: Environment,
        config: PlatformConfig,
        fabric: InterposerFabric,
        mapping: ModelMapping,
        trace: ExecutionTrace,
        mac_rate_hz: float | None = None,
        batch_size: int = 1,
        residency: "WeightResidency | None" = None,
        compute: ComputeOccupancy | None = None,
        model_name: str = "",
        record_timings: bool = True,
        obs: "object | None" = None,
        obs_track: str = "",
    ):
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.env = env
        self.config = config
        self.fabric = fabric
        self.mapping = mapping
        self.trace = trace
        self.mac_rate_hz = mac_rate_hz or config.mac_rate_hz
        self.batch_size = batch_size
        self.residency = residency
        self.compute = compute
        self.model_name = model_name
        self.record_timings = record_timings
        # Telemetry: per-layer spans land on ``obs_track`` of the span
        # recorder when one is attached (sampled request under an armed
        # telemetry policy); ``None`` costs one comparison per layer.
        self.obs = obs
        self.obs_track = obs_track

    def start(self) -> Event:
        """Launch the execution; the returned event fires on completion."""
        done = self._done = Event(self.env)
        self.env.call_soon(self._begin)
        return done

    # -- internals ------------------------------------------------------------------

    def _fetch_weights(self, layer_mapping: LayerMapping) -> Event:
        """Weight-transfer barrier for one layer.

        Resident mode delegates to the residency store (fetch once per
        model, share the barrier); otherwise unicast transfers for every
        allocation are issued directly.
        """
        if self.residency is not None:
            return self.residency.acquire(
                self.model_name, layer_mapping, self.fabric
            )
        transfers = [
            self.fabric.read_weights(alloc.chiplet_id, alloc.weight_bits)
            for alloc in layer_mapping.allocations
            if alloc.weight_bits > 0
        ]
        return self.env.all_of(transfers)

    def _begin(self) -> None:
        layers = self._layers = tuple(self.mapping)
        if not layers:
            self._done.succeed()
            return
        self._index = 0
        self._weights = self._fetch_weights(layers[0])
        self._await_weights()

    def _await_weights(self) -> None:
        """Start layer ``_index``: wait for its weight barrier."""
        self._start_s = self.env._now
        if self.obs is not None:
            self.obs.begin(
                self.obs_track,
                f"weights:{self._layers[self._index].layer.name}",
            )
        _wait(self._weights, self._weights_ready)

    def _weights_ready(self, _event: Event | None = None) -> None:
        """Prefetch the next weights, read the inputs, start the shares."""
        obs = self.obs
        if obs is not None:
            obs.end(self.obs_track)
        layers = self._layers
        index = self._index
        # Prefetch the next layer's weights concurrently.
        if index + 1 < len(layers):
            self._weights = self._fetch_weights(layers[index + 1])
        layer_mapping = layers[index]
        # Input activations: one multicast read to all host chiplets.
        # Layer-major batching: the whole batch's activations stream
        # while the layer's weights stay resident (fetched once).
        chiplet_ids = self._chiplet_ids = layer_mapping.chiplet_ids
        input_done = self.fabric.read(
            chiplet_ids[0],
            layer_mapping.layer.input_bits * self.batch_size,
            multicast=chiplet_ids,
        )
        self._compute_done_s = 0.0
        allocations = layer_mapping.allocations
        shares = [
            _ChipletShare(self, alloc, input_done) for alloc in allocations
        ]
        if obs is not None:
            obs.begin(
                self.obs_track,
                f"layer:{layer_mapping.layer.name}",
                args={"chiplets": len(allocations)},
            )
        # A fresh barrier: this is its only waiter.
        AllOf(self.env, shares).callbacks = self._layer_done

    def _layer_done(self, _event: Event) -> None:
        """Every share finished: record the layer, then go on."""
        if self.obs is not None:
            self.obs.end(self.obs_track)
        index = self._index
        if self.record_timings:
            layer_mapping = self._layers[index]
            self.trace.layer_timings.append(
                LayerTiming(
                    name=layer_mapping.layer.name,
                    start_s=self._start_s,
                    compute_done_s=self._compute_done_s,
                    end_s=self.env._now,
                    chiplets=self._chiplet_ids,
                    vector_ops=layer_mapping.total_vector_ops,
                )
            )
        index += 1
        if index < len(self._layers):
            self._index = index
            self._await_weights()
        else:
            self._done.succeed()


class _ChipletShare(Event):
    """One chiplet's share of a layer: wait for data, compute, write back.

    An event that succeeds when the share is done, so the layer's
    :class:`AllOf` barrier waits on the shares themselves.  Its chain:

    * created: a bootstrap hop through the immediate FIFO;
    * bootstrap: the compute time, from the MAC fraction in force *now*;
      with a :class:`ComputeOccupancy`, request the chiplet's MAC array
      and compute once granted; without one, compute straight away;
    * compute done: wait for the input stream unless it has already
      arrived (then carry on synchronously);
    * input ready: release the MAC array, note the layer's compute-done time,
      count the lane and vector operations, then write the outputs back
      and succeed once they land (at once for a zero-bit output).
    """

    __slots__ = ("execution", "alloc", "input_done", "compute_s",
                 "occupancy")

    def __init__(self, execution: RequestExecution, alloc,
                 input_done: Event):
        # Event's fields set inline, as Timeout does: no extra frame.
        env = self.env = execution.env
        self.callbacks = None
        self._triggered = False
        self._processed = False
        self._value = None
        self.execution = execution
        self.alloc = alloc
        self.input_done = input_done
        self.occupancy = None
        env.call_soon(self._bootstrap)

    def _bootstrap(self) -> None:
        execution = self.execution
        alloc = self.alloc
        compute_s = (
            alloc.vector_ops * execution.batch_size
            / (alloc.n_macs * execution.mac_rate_hz)
        )
        compute = execution.compute
        if compute is None:
            # Streaming: compute completes when both its own duration
            # has elapsed and the input stream has fully arrived.
            self.env.timeout(compute_s).callbacks = self._computed
            return
        if compute.mac_fraction < 1.0:
            # Compute-side hazard: the MAC arrays sustain only a
            # fraction of nominal throughput while degraded.
            compute_s /= compute.mac_fraction
        # Concurrent-request mode: the chiplet's MAC array works on one
        # request's layer share at a time.  The occupancy spans the
        # streaming window (max of input arrival and compute), the same
        # interval the one-request timeline attributes to the chiplet.
        self.compute_s = compute_s
        occupancy = self.occupancy = compute.resource(alloc.chiplet_id)
        occupancy.request().callbacks = self._granted

    def _granted(self, _event: Event) -> None:
        self.env.timeout(self.compute_s).callbacks = self._computed

    def _computed(self, _event: Event) -> None:
        input_done = self.input_done
        if input_done._processed:
            self._input_ready()
        else:
            input_done._add_callback(self._input_ready)

    def _input_ready(self, _event: Event | None = None) -> None:
        if self.occupancy is not None:
            self.occupancy.release()
        execution = self.execution
        now = self.env._now
        if now > execution._compute_done_s:
            execution._compute_done_s = now
        alloc = self.alloc
        batch_size = execution.batch_size
        kind = alloc.kind
        trace = execution.trace
        lane_ops = trace.lane_ops_by_kind
        lane_ops[kind] = lane_ops.get(kind, 0) + alloc.lane_ops * batch_size
        vector_ops = trace.vector_ops_by_kind
        vector_ops[kind] = (
            vector_ops.get(kind, 0) + alloc.vector_ops * batch_size
        )
        if alloc.output_bits > 0:
            _wait(
                execution.fabric.write(
                    alloc.chiplet_id, alloc.output_bits * batch_size
                ),
                self._written,
            )
        else:
            self.succeed()

    def _written(self, _event: Event | None = None) -> None:
        self.succeed()


class InferenceEngine:
    """Drives one inference through the fabric: the one-request case.

    Thin wrapper over :class:`RequestExecution` kept for the classic
    single-inference experiments; results are bit-identical to running
    the execution directly (it is the same callback chain).
    """

    def __init__(
        self,
        env: Environment,
        config: PlatformConfig,
        fabric: InterposerFabric,
        mac_rate_hz: float | None = None,
        batch_size: int = 1,
    ):
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.env = env
        self.config = config
        self.fabric = fabric
        self.mac_rate_hz = mac_rate_hz or config.mac_rate_hz
        self.batch_size = batch_size
        self.trace = ExecutionTrace()

    # -- public API --------------------------------------------------------------

    def run(self, mapping: ModelMapping, time_limit_s: float = 100.0) -> float:
        """Execute the mapped workload; returns the completion time (s).

        ``time_limit_s`` is a simulated-time hang guard (perpetual
        controller processes keep the event queue alive forever).
        """
        execution = RequestExecution(
            self.env, self.config, self.fabric, mapping, self.trace,
            mac_rate_hz=self.mac_rate_hz, batch_size=self.batch_size,
        )
        done = execution.start()
        self.env.run_until_event(done, limit=time_limit_s)
        return self.env.now
