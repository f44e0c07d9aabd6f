"""Abstract interposer fabric interface.

The inference engine drives any communication substrate through this
interface: unicast/multicast reads from the memory chiplet, writes back
to it, and weight fetches.  Implementations: the silicon-photonic
interposer (:mod:`repro.interposer.photonic.fabric`), the electrical mesh
(:mod:`repro.interposer.electrical.mesh`), the AWGR interposer
(:mod:`repro.interposer.photonic.awgr`), and the monolithic on-chip
network (:mod:`repro.core.crosslight`).

The baseline fabrics (monolithic, mesh, AWGR) move a message as a
chain of :class:`ChunkStage` callbacks, one stage per channel of its
route.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import SimulationError
from ..sim.core import Environment, Event
from ..sim.resources import BandwidthChannel, ChannelStat
from ..sim.stats import TimeWeightedValue

DEFAULT_CHUNK_BITS = 256 * 1024
"""Transfer chunking granularity: 32 KiB chunks keep reconfiguration
responsive while bounding event counts."""


def _noop() -> None:
    """A hop that only keeps its place in the kernel's event order."""


class ChunkStage:
    """One stage of a message's chunk pipeline: its chunks through one
    channel, one at a time, in order.

    The callback form of a generator process that loops over the
    chunks, gets each from a ``Store`` its upstream stage puts to (the
    first stage of a route reads them straight from the list) and runs
    each through ``BandwidthChannel.transfer`` in a process of its own.
    Every scheduling operation of that construction is kept, at the same
    time and in the same order, each resume as one
    :meth:`Environment.call_soon` hop:

    * take: a stage fed by an upstream stage gets its chunk as
      ``Store.get`` did: one hop when the upstream has already handed
      it over, else the upstream's hand-over makes the hop;
    * the transfer's bootstrap hop, then the channel request;
    * on completion, the hop of the transfer's ``done.succeed`` and the
      hop of the transfer process's own end;
    * then hand the chunk to the downstream stage and take the next.

    Once drained, a stage without ``tail_s`` is the whole message (the
    monolithic stream): it fires ``done``.  A stage of a route (see
    :func:`start_route`) ends with its process's completion hop, and
    the route's last stage first makes the hop of the route's ``done``,
    whose firing waits ``tail_s`` before ``done`` itself fires.

    A stage refers only to its downstream stage, and nothing keeps a
    bound method of it, so a finished pipeline holds no reference cycle.
    """

    __slots__ = ("env", "channel", "chunks", "downstream", "done", "tail_s",
                 "_position", "_fed", "_available", "_waiting")

    def __init__(self, env: Environment, channel: BandwidthChannel,
                 chunks: list[float], upstream: ChunkStage | None = None,
                 done: Event | None = None, tail_s: float | None = None):
        self.env = env
        self.channel = channel
        self.chunks = chunks
        self.downstream: ChunkStage | None = None
        self.done = done
        self.tail_s = tail_s
        self._position = 0
        self._fed = upstream is not None
        self._available = 0  # chunks handed over but not yet taken
        self._waiting = False
        if upstream is not None:
            upstream.downstream = self

    def start(self) -> None:
        """Take the next chunk; the stage's bootstrap takes the first."""
        if not self._fed:
            self.env.call_soon(self._request)
        elif self._available:
            self._available -= 1
            self.env.call_soon(self._got)
        else:
            self._waiting = True

    def _put(self) -> None:
        """The upstream stage hands over its next chunk."""
        if self._waiting:
            self._waiting = False
            self.env.call_soon(self._got)
        else:
            self._available += 1

    def _got(self) -> None:
        """The get has fired: bootstrap the chunk's transfer."""
        self.env.call_soon(self._request)

    def _request(self) -> None:
        """The transfer's bootstrap: queue the chunk on the channel."""
        self.channel.request_transfer(self.chunks[self._position],
                                      self._landed)

    def _landed(self) -> None:
        """The channel is done: the transfer's ``done.succeed``."""
        self.env.call_soon(self._transfer_done)

    def _transfer_done(self) -> None:
        """The transfer process ends."""
        self.env.call_soon(self._resume)

    def _resume(self) -> None:
        """Back in the stage: hand the chunk on, then take the next."""
        downstream = self.downstream
        if downstream is not None:
            downstream._put()
        self._position += 1
        if self._position < len(self.chunks):
            self.start()
        elif self.tail_s is None:
            self.done.succeed()
        else:
            if downstream is None:
                self.env.call_soon(self._drained)
            self.env.call_soon(_noop)

    def _drained(self) -> None:
        """The route's drain has fired: wait out its tail."""
        self.env.timeout(self.tail_s).callbacks = self._finish

    def _finish(self, _event: Event) -> None:
        self.done.succeed()


def start_route(env: Environment, channels, chunks: list[float],
                tail_s: float, done: Event) -> None:
    """The body of a route's bootstrap hop: chain one :class:`ChunkStage`
    per channel, each fed by the one before, then make one bootstrap hop
    per stage in route order.  ``done`` fires ``tail_s`` after the last
    stage drains."""
    stages = []
    stage = None
    for channel in channels:
        stage = ChunkStage(env, channel, chunks, upstream=stage,
                           tail_s=tail_s)
        stages.append(stage)
    stage.done = done
    for stage in stages:
        env.call_soon(stage.start)


@dataclass
class NetworkEnergyReport:
    """Energy consumed by a fabric over a finished simulation."""

    elapsed_s: float
    static_energy_j: float
    dynamic_energy_j: float
    breakdown_j: dict[str, float] = field(default_factory=dict)

    @property
    def total_energy_j(self) -> float:
        return self.static_energy_j + self.dynamic_energy_j

    @property
    def average_power_w(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.total_energy_j / self.elapsed_s


class InterposerFabric(abc.ABC):
    """A communication substrate between memory and compute chiplets."""

    def __init__(self, env: Environment):
        self.env = env
        self.bits_read = 0.0
        self.bits_written = 0.0
        self.inflight_requests = TimeWeightedValue(env, 0.0)
        """In-flight request count over time.  The serving layer brackets
        every request execution with :meth:`request_started` /
        :meth:`request_finished`; the time average is the fabric's
        offered concurrency — the load signal utilization-under-load
        metrics are reported against."""

    def _chunks(self, bits: float) -> list[float]:
        """Split a payload into ``self.chunk_bits`` chunks (the last one
        takes the remainder); none for an empty payload."""
        if bits <= 0:
            return []
        if bits <= self.chunk_bits:
            return [bits]  # what the split below gives, without it
        full, remainder = divmod(bits, self.chunk_bits)
        chunks = [self.chunk_bits] * int(full)
        if remainder > 0:
            chunks.append(remainder)
        return chunks

    # -- request-load bookkeeping (serving layer) -------------------------------

    def request_started(self) -> None:
        """Note one more request now executing over this fabric."""
        self.inflight_requests.add(1.0)

    def request_finished(self) -> None:
        """Note one request completed."""
        if self.inflight_requests.value < 1.0:
            raise SimulationError(
                "request_finished() without a matching request_started()"
            )
        self.inflight_requests.add(-1.0)

    @property
    def mean_inflight_requests(self) -> float:
        """Time-averaged concurrent request count over the fabric."""
        return self.inflight_requests.time_average()

    @abc.abstractmethod
    def read(self, dst_chiplet: str, bits: float,
             multicast: tuple[str, ...] | None = None) -> Event:
        """Move activation data memory -> chiplet(s).

        With ``multicast`` set, the same payload reaches every listed
        chiplet; fabrics with native broadcast charge the shared medium
        once, others replicate.  Returns an event firing on completion.
        """

    @abc.abstractmethod
    def write(self, src_chiplet: str, bits: float) -> Event:
        """Move result data chiplet -> memory."""

    def read_weights(self, dst_chiplet: str, bits: float) -> Event:
        """Move weights memory -> chiplet (defaults to the read path)."""
        return self.read(dst_chiplet, bits)

    @abc.abstractmethod
    def energy_report(self) -> NetworkEnergyReport:
        """Close the books: energy consumed up to ``env.now``."""

    def iter_channels(self) -> Iterable[BandwidthChannel]:
        """Every bandwidth channel of the fabric, in a stable order.

        Subclasses override; the default (no channels) keeps ad-hoc test
        fabrics working.
        """
        return ()

    def channel_stats(self) -> tuple[ChannelStat, ...]:
        """Utilization snapshot of every channel, for trace export."""
        return tuple(channel.stats() for channel in self.iter_channels())

    @property
    def total_bits_moved(self) -> float:
        """All payload bits that crossed the fabric."""
        return self.bits_read + self.bits_written
