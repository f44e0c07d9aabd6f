"""Silicon-photonic interposer fabric (Section V, Fig. 6).

Transfer paths are staged pipelines of bandwidth channels:

* **read** (memory -> compute): HBM internal port -> memory writer
  gateways (SWMR channels, aggregated elastically) -> destination
  chiplet's reader gateways.  Multicast charges the shared stages once.
* **write** (compute -> memory): source chiplet's writer gateways (SWSR
  channels) -> HBM internal port.

Gateway counts are *elastic*: a reconfiguration controller (ReSiPI,
PROWAVES, or a static policy) owns how many gateways/wavelengths are
active, and the fabric exposes ``set_*`` hooks that rescale the channel
bandwidths and the power-accounting signals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ...config import PlatformConfig
from ...errors import ConfigurationError
from ...photonics import constants as ph
from ...photonics.laser import LaserSource
from ...photonics.photodetector import Photodetector
from ...power import params as ep
from ...sim.core import Environment, Event
from ...sim.resources import BandwidthChannel
from ...sim.stats import EpochTrafficMonitor, TimeWeightedValue
from ..base import DEFAULT_CHUNK_BITS, InterposerFabric, NetworkEnergyReport
from ..topology import Floorplan
from .links import swmr_read_budget, worst_case_write_budget

PHOTONIC_DYNAMIC_J_PER_BIT = (
    2.0 * ph.SERDES_ENERGY_J_PER_BIT
    + ph.MODULATOR_DRIVER_ENERGY_J_PER_BIT
    + 2.0 * ep.MICROBUMP_ENERGY_J_PER_BIT
)
"""Per-bit dynamic energy of one interposer traversal: serialize +
modulate + receive + deserialize + two microbump crossings."""


@dataclass(frozen=True)
class GatewayInventory:
    """Gateway counts for one compute chiplet."""

    chiplet_id: str
    n_write_gateways: int
    n_read_gateways: int


class _ChunkRelay:
    """One pipeline stage: chunks through a channel, handed downstream.

    The callback replacement for the seed's pump/drain processes: each
    completed chunk is recorded against the epoch monitor, delivered to
    the next stage, and only then is the *next* queued chunk requested —
    one chunk in flight at a time, so the private queue here never
    occupies the channel and concurrent messages still interleave
    chunk-by-chunk in strict channel FIFO exactly as the process
    pipeline did.
    """

    __slots__ = ("channel", "monitor", "key", "deliver", "remaining",
                 "on_complete", "_queue", "_busy", "_current", "_advance_cb")

    def __init__(self, channel: BandwidthChannel, monitor, key, deliver,
                 remaining: int, on_complete):
        self.channel = channel
        self.monitor = monitor
        self.key = key
        self.deliver = deliver
        self.remaining = remaining
        self.on_complete = on_complete
        self._queue: deque = deque()
        self._busy = False
        self._current = 0.0
        self._advance_cb = self._advance  # bind once, reuse per chunk

    def feed(self, chunk: float) -> None:
        if self._busy:
            self._queue.append(chunk)
            return
        self._busy = True
        self._current = chunk
        self.channel.request_transfer(chunk, self._advance_cb)

    def _advance(self) -> None:
        chunk = self._current
        # Re-request before delivering: the channel has already granted
        # its next waiter, so this queues fairly behind other messages.
        if self._queue:
            nxt = self._queue.popleft()
            self._current = nxt
            self.channel.request_transfer(nxt, self._advance_cb)
        else:
            self._busy = False
        if self.key is not None:
            self.monitor.record(self.key, chunk)
        if self.deliver is not None:
            self.deliver(chunk)
        self.remaining -= 1
        if self.remaining == 0:
            # Drained: drop the bound method, the relay's only
            # reference back to itself.
            self._advance_cb = None
            if self.on_complete is not None:
                self.on_complete()


def _reader_done(monitor, key: str, bits: float, destination_done):
    """Reader-stage completion of a one-chunk read, recorded as ``key``."""

    def done():
        monitor.record(key, bits)
        destination_done()

    return done


class PhotonicInterposerFabric(InterposerFabric):
    """The reconfigurable photonic interposer network."""

    def __init__(
        self,
        env: Environment,
        config: PlatformConfig,
        floorplan: Floorplan,
        chunk_bits: float = DEFAULT_CHUNK_BITS,
    ):
        super().__init__(env)
        self.config = config
        self.floorplan = floorplan
        self.chunk_bits = chunk_bits
        self._gateway_bw = config.gateway_bandwidth_bps
        self._wavelength_fraction = 1.0

        # -- channels -----------------------------------------------------
        self.hbm_channel = BandwidthChannel(
            env, config.hbm_internal_bandwidth_bps, name="hbm"
        )
        self.memory_write_channel = BandwidthChannel(
            env,
            config.n_memory_write_gateways * self._gateway_bw,
            name="mem-write-gateways",
        )
        self.chiplet_read_channels: dict[str, BandwidthChannel] = {}
        self.chiplet_write_channels: dict[str, BandwidthChannel] = {}
        self.inventories: dict[str, GatewayInventory] = {}
        # Epoch-monitor keys per compute chiplet, built once: every
        # message and the controllers share these strings.
        self.read_keys: dict[str, str] = {}
        self.write_keys: dict[str, str] = {}
        for site in floorplan.compute_sites:
            group = config.group_by_kind(site.kind)
            inventory = GatewayInventory(
                chiplet_id=site.chiplet_id,
                n_write_gateways=group.gateways_per_chiplet,
                n_read_gateways=group.gateways_per_chiplet,
            )
            self.inventories[site.chiplet_id] = inventory
            self.read_keys[site.chiplet_id] = f"read:{site.chiplet_id}"
            self.write_keys[site.chiplet_id] = f"write:{site.chiplet_id}"
            self.chiplet_read_channels[site.chiplet_id] = BandwidthChannel(
                env,
                inventory.n_read_gateways * self._gateway_bw,
                name=f"{site.chiplet_id}-read",
            )
            self.chiplet_write_channels[site.chiplet_id] = BandwidthChannel(
                env,
                inventory.n_write_gateways * self._gateway_bw,
                name=f"{site.chiplet_id}-write",
            )

        # -- controller-visible state ------------------------------------------
        self.active_memory_gateways = TimeWeightedValue(
            env, float(config.n_memory_write_gateways)
        )
        self.active_write_gateways: dict[str, TimeWeightedValue] = {}
        self.active_read_gateways: dict[str, TimeWeightedValue] = {}
        for chiplet_id, inventory in self.inventories.items():
            self.active_write_gateways[chiplet_id] = TimeWeightedValue(
                env, float(inventory.n_write_gateways)
            )
            self.active_read_gateways[chiplet_id] = TimeWeightedValue(
                env, float(inventory.n_read_gateways)
            )
        self.monitor = EpochTrafficMonitor(env, config.resipi_epoch_s)
        self.pcmc_energy_j = 0.0
        self.reconfiguration_count = 0
        self._desired_bandwidth: dict[str, float] = {}

        # -- power-model ingredients ---------------------------------------------
        detector = Photodetector()
        laser = LaserSource.off_chip()
        read_budget = swmr_read_budget(config, floorplan)
        write_budget = worst_case_write_budget(config, floorplan)
        self._laser_w_per_mem_gateway = laser.electrical_power_w(
            read_budget.required_on_chip_power_w(detector)
            * config.n_wavelengths
        )
        self._laser_w_per_compute_gateway = laser.electrical_power_w(
            write_budget.required_on_chip_power_w(detector)
            * config.n_wavelengths
        )
        self._propagation_delay_s = (
            floorplan.broadcast_waveguide_length_m("mem-0")
            * ph.GROUP_INDEX_SOI
            / 299_792_458.0
        )
        self._transfer_tail_s = (
            self._propagation_delay_s
            + config.gateway_conversion_latency_s
            + config.gateway_protocol_overhead_s
        )

    # -- controller hooks ---------------------------------------------------------

    def _settled(self, channel: BandwidthChannel, target_bps: float) -> bool:
        """Whether ``channel`` runs at ``target_bps`` with no write pending.

        A PCMC-deferred increase that is still in flight leaves
        ``_desired_bandwidth`` ahead of the channel's current rate.
        """
        return (channel._bandwidth_bps == target_bps
                and self._desired_bandwidth.get(channel.name) == target_bps)

    def _apply_bandwidth(self, channel: BandwidthChannel, target_bps: float,
                         increase: bool) -> None:
        """Apply a channel bandwidth change, honouring PCMC write time.

        Capacity reductions are immediate (light simply stops being
        delivered); capacity increases only take effect once the PCM
        cells have been re-amorphised (~1 us), so a demand spike pays one
        epoch of lag — the ReSiPI behaviour.

        A deferred write is a two-step callback chain: a bootstrap hop
        through the immediate FIFO, whose firing pushes the switching
        timeout.  Nothing waits on its completion, so it signals none.
        """
        if self._settled(channel, target_bps):
            # Already at (and settled on) this rate: re-asserting it is
            # a no-op either way, and steady-state epochs do so for
            # every channel.
            return
        self._desired_bandwidth[channel.name] = target_bps
        if not increase:
            channel.set_bandwidth(target_bps)
            return

        env = self.env
        desired = self._desired_bandwidth

        def switched(_event):
            # A newer decision may have superseded this one.
            if desired.get(channel.name) == target_bps:
                channel.set_bandwidth(target_bps)

        def switch():
            env.timeout(ph.PCMC_SWITCHING_TIME_S).callbacks = switched

        env.call_soon(switch)

    def set_active_memory_gateways(self, count: int) -> None:
        """Rescale the memory-side SWMR write capacity."""
        maximum = self.config.n_memory_write_gateways
        if not 1 <= count <= maximum:
            raise ConfigurationError(
                f"memory gateways must be in [1, {maximum}], got {count}"
            )
        previous = int(self.active_memory_gateways.value)
        target = count * self._gateway_bw * self._wavelength_fraction
        if count == previous and self._settled(
            self.memory_write_channel, target
        ):
            # Re-asserting the current setting: nothing to switch,
            # integrate or reschedule.
            return
        if count != previous:
            self.reconfiguration_count += 1
            self.pcmc_energy_j += ph.PCMC_SWITCHING_ENERGY_J * abs(
                count - previous
            )
        self.active_memory_gateways.set(float(count))
        self._apply_bandwidth(
            self.memory_write_channel, target, increase=count > previous,
        )

    def set_active_chiplet_gateways(
        self, chiplet_id: str, n_write: int, n_read: int
    ) -> None:
        """Rescale one compute chiplet's gateway counts."""
        inventory = self.inventories[chiplet_id]
        if not 1 <= n_write <= inventory.n_write_gateways:
            raise ConfigurationError(
                f"{chiplet_id}: write gateways must be in "
                f"[1, {inventory.n_write_gateways}], got {n_write}"
            )
        if not 1 <= n_read <= inventory.n_read_gateways:
            raise ConfigurationError(
                f"{chiplet_id}: read gateways must be in "
                f"[1, {inventory.n_read_gateways}], got {n_read}"
            )
        previous_write = int(self.active_write_gateways[chiplet_id].value)
        previous_read = int(self.active_read_gateways[chiplet_id].value)
        write_channel = self.chiplet_write_channels[chiplet_id]
        read_channel = self.chiplet_read_channels[chiplet_id]
        scale = self._gateway_bw * self._wavelength_fraction
        if (n_write == previous_write and n_read == previous_read
                and self._settled(write_channel, n_write * scale)
                and self._settled(read_channel, n_read * scale)):
            return
        delta = abs(n_write - previous_write) + abs(n_read - previous_read)
        if delta:
            self.reconfiguration_count += 1
            self.pcmc_energy_j += ph.PCMC_SWITCHING_ENERGY_J * delta
        self.active_write_gateways[chiplet_id].set(float(n_write))
        self.active_read_gateways[chiplet_id].set(float(n_read))
        self._apply_bandwidth(
            write_channel, n_write * scale, increase=n_write > previous_write,
        )
        self._apply_bandwidth(
            read_channel, n_read * scale, increase=n_read > previous_read,
        )

    def set_wavelength_fraction(self, fraction: float) -> None:
        """Scale every channel's active wavelength share (PROWAVES)."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"wavelength fraction must be in (0, 1], got {fraction}"
            )
        self._wavelength_fraction = fraction
        # Through ``_apply_bandwidth`` like the chiplet channels below,
        # so a PCMC-deferred gateway increase still pending on this
        # channel cannot later overwrite the comb change.
        self._apply_bandwidth(
            self.memory_write_channel,
            self.active_memory_gateways.value * self._gateway_bw * fraction,
            increase=False,
        )
        for chiplet_id in self.inventories:
            self.set_active_chiplet_gateways(
                chiplet_id,
                int(self.active_write_gateways[chiplet_id].value),
                int(self.active_read_gateways[chiplet_id].value),
            )

    def iter_channels(self):
        """HBM port, SWMR writer stage, then per-chiplet reader/writers."""
        yield self.hbm_channel
        yield self.memory_write_channel
        yield from self.chiplet_read_channels.values()
        yield from self.chiplet_write_channels.values()

    # -- transfers -------------------------------------------------------------------

    def read(self, dst_chiplet: str, bits: float,
             multicast: tuple[str, ...] | None = None) -> Event:
        """Memory -> chiplet(s) transfer; multicast shares the SWMR stage.

        Built as a relay chain — HBM port -> SWMR writer stage (records
        ``mem_read``, fans out) -> per-destination reader gateways —
        then one propagation/conversion tail once every destination has
        drained.  Traffic is recorded per chunk as it is served, so the
        epoch monitor sees *sustained* load while a long message drains
        — the signal the reconfiguration controllers ramp on.

        A one-chunk message (nearly every message the serving workloads
        move) chains the stage callbacks directly instead: the same
        channel requests, monitor records and tail, in the same order,
        without the relays' per-chunk queues.
        """
        destinations = multicast if multicast else (dst_chiplet,)
        self.bits_read += bits  # shared-medium payload charged once
        env = self.env
        done = Event(env)
        if bits <= 0:
            done.succeed()
            return done
        pending = [len(destinations)]

        def finish(_event):
            done.succeed()

        def destination_done():
            pending[0] -= 1
            if pending[0] == 0:
                tail = env.timeout(self._transfer_tail_s)
                tail.callbacks = finish

        if bits <= self.chunk_bits:
            monitor = self.monitor
            read_channels = self.chiplet_read_channels
            read_keys = self.read_keys

            def written():
                monitor.record("mem_read", bits)
                for destination in destinations:
                    read_channels[destination].request_transfer(
                        bits, _reader_done(monitor, read_keys[destination],
                                           bits, destination_done),
                    )

            self.hbm_channel.request_transfer(
                bits,
                lambda: self.memory_write_channel.request_transfer(
                    bits, written
                ),
            )
            return done

        chunks = self._chunks(bits)
        n = len(chunks)
        readers = [
            _ChunkRelay(
                self.chiplet_read_channels[destination], self.monitor,
                self.read_keys[destination], None, n, destination_done,
            )
            for destination in destinations
        ]
        if len(readers) == 1:
            fanout = readers[0].feed
        else:
            def fanout(chunk):
                for relay in readers:
                    relay.feed(chunk)
        writer = _ChunkRelay(
            self.memory_write_channel, self.monitor, "mem_read", fanout,
            n, None,
        )
        hbm = _ChunkRelay(self.hbm_channel, None, None, writer.feed, n, None)
        for chunk in chunks:
            hbm.feed(chunk)
        return done

    def write(self, src_chiplet: str, bits: float) -> Event:
        """Chiplet -> memory transfer over the chiplet's SWSR channels.

        A one-chunk message chains writer channel -> HBM -> tail
        directly, like :meth:`read`.
        """
        self.bits_written += bits
        env = self.env
        done = Event(env)
        if bits <= 0:
            done.succeed()
            return done

        def finish(_event):
            done.succeed()

        def drained():
            tail = env.timeout(self._transfer_tail_s)
            tail.callbacks = finish

        key = self.write_keys[src_chiplet]
        if bits <= self.chunk_bits:
            def sent():
                self.monitor.record(key, bits)
                self.hbm_channel.request_transfer(bits, drained)

            self.chiplet_write_channels[src_chiplet].request_transfer(
                bits, sent
            )
            return done

        chunks = self._chunks(bits)
        hbm = _ChunkRelay(
            self.hbm_channel, None, None, None, len(chunks), drained
        )
        source = _ChunkRelay(
            self.chiplet_write_channels[src_chiplet], self.monitor,
            key, hbm.feed, len(chunks), None,
        )
        for chunk in chunks:
            source.feed(chunk)
        return done

    # -- energy ------------------------------------------------------------------------

    def energy_report(self) -> NetworkEnergyReport:
        """Integrate static power signals and dynamic per-bit energies."""
        elapsed = self.env.now
        n_lambda = self.config.n_wavelengths * self._wavelength_fraction

        # Laser: proportional to active writer gateways on each side.
        laser_j = (
            self.active_memory_gateways.integral()
            * self._laser_w_per_mem_gateway
        )
        compute_writer_integral = sum(
            signal.integral() for signal in self.active_write_gateways.values()
        )
        laser_j += compute_writer_integral * self._laser_w_per_compute_gateway

        # Per-active-gateway electronics (writer: modulators + buffers;
        # reader: TIAs + buffers), per wavelength where applicable.
        writer_static_w = (
            ph.MODULATOR_STATIC_POWER_W * n_lambda
            + ph.GATEWAY_BUFFER_STATIC_POWER_W
        )
        reader_static_w = (
            ph.PD_TIA_POWER_W * n_lambda + ph.GATEWAY_BUFFER_STATIC_POWER_W
        )
        writer_integral = (
            self.active_memory_gateways.integral() + compute_writer_integral
        )
        reader_integral = sum(
            signal.integral() for signal in self.active_read_gateways.values()
        )
        # Memory-side filter rows listen to compute writers: one row per
        # active compute writer gateway.
        reader_integral += compute_writer_integral
        electronics_j = (
            writer_integral * writer_static_w
            + reader_integral * reader_static_w
        )

        # Ring trimming on active gateway rows.  MRG rows are held on the
        # DWDM grid with thermo-optic trimming (ReSiPI's PCMs gate optical
        # power; they do not replace resonance trimming), which is why the
        # photonic interposer carries a notable power overhead (Table 3).
        trim_per_row_w = (
            n_lambda
            * ph.MR_TO_TUNING_POWER_W_PER_NM
            * ph.MR_THERMAL_TRIMMING_NM
        )
        trimming_j = (writer_integral + reader_integral) * trim_per_row_w

        controller_j = ep.RESIPI_CONTROLLER_POWER_W * elapsed

        dynamic_j = (
            self.total_bits_moved * PHOTONIC_DYNAMIC_J_PER_BIT
            + (self.bits_read + self.bits_written) * ep.HBM_ENERGY_J_PER_BIT
            + self.pcmc_energy_j
        )
        static_j = (
            laser_j
            + electronics_j
            + trimming_j
            + controller_j
            + ep.HBM_STATIC_POWER_W * elapsed
            + ep.MEMORY_CHIPLET_LOGIC_STATIC_POWER_W * elapsed
        )
        return NetworkEnergyReport(
            elapsed_s=elapsed,
            static_energy_j=static_j,
            dynamic_energy_j=dynamic_j,
            breakdown_j={
                "laser": laser_j,
                "gateway_electronics": electronics_j,
                "ring_trimming": trimming_j,
                "controller": controller_j,
                "hbm_static": ep.HBM_STATIC_POWER_W * elapsed,
                "hbm_dynamic": (self.bits_read + self.bits_written)
                * ep.HBM_ENERGY_J_PER_BIT,
                "serdes_modulate_receive": self.total_bits_moved
                * PHOTONIC_DYNAMIC_J_PER_BIT,
                "pcmc_switching": self.pcmc_energy_j,
            },
        )
