"""Photonic interposer fabric: transfers, multicast, reconfiguration."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_PLATFORM
from repro.errors import ConfigurationError
from repro.interposer.photonic.fabric import (
    PhotonicInterposerFabric,
    _ChunkRelay,
)
from repro.interposer.photonic.links import (
    swmr_read_budget,
    swsr_write_budget,
    worst_case_write_budget,
)
from repro.interposer.topology import build_floorplan
from repro.photonics.constants import PCMC_SWITCHING_TIME_S
from repro.sim.core import Environment
from repro.sim.resources import BandwidthChannel


CHUNK_BITS = 256 * 1024


def make_fabric(chunk_bits=CHUNK_BITS, cls=PhotonicInterposerFabric):
    env = Environment()
    floorplan = build_floorplan(DEFAULT_PLATFORM)
    fabric = cls(env, DEFAULT_PLATFORM, floorplan, chunk_bits=chunk_bits)
    return env, fabric


class TestTransfers:
    def test_read_completes(self):
        env, fabric = make_fabric()
        done = fabric.read("3x3 conv-0", 1e6)
        env.run()
        assert done.processed
        assert fabric.bits_read == 1e6

    def test_write_completes(self):
        env, fabric = make_fabric()
        done = fabric.write("3x3 conv-0", 1e6)
        env.run()
        assert done.processed
        assert fabric.bits_written == 1e6

    def test_zero_bit_transfer_is_instant(self):
        env, fabric = make_fabric()
        done = fabric.read("3x3 conv-0", 0.0)
        env.run()
        assert done.processed
        assert env.now == 0.0

    def test_read_latency_scales_with_size(self):
        env1, fabric1 = make_fabric()
        fabric1.read("3x3 conv-0", 1e6)
        t_small = env1.run()
        env2, fabric2 = make_fabric()
        fabric2.read("3x3 conv-0", 100e6)
        t_large = env2.run()
        assert t_large > t_small

    def test_multicast_charges_shared_stage_once(self):
        group = ("3x3 conv-0", "3x3 conv-1", "3x3 conv-2")
        env1, fabric1 = make_fabric()
        fabric1.read(group[0], 50e6, multicast=group)
        t_multicast = env1.run()
        mem_bits_multicast = fabric1.memory_write_channel.bits_transferred

        env2, fabric2 = make_fabric()
        for dst in group:
            fabric2.read(dst, 50e6)
        t_unicast = env2.run()
        mem_bits_unicast = fabric2.memory_write_channel.bits_transferred

        assert mem_bits_multicast == pytest.approx(50e6)
        assert mem_bits_unicast == pytest.approx(150e6)
        assert t_multicast < t_unicast

    def test_reads_contend_on_memory_gateways(self):
        env, fabric = make_fabric()
        # Saturate: every chiplet reads a large block simultaneously.
        for site in fabric.floorplan.compute_sites:
            fabric.read(site.chiplet_id, 200e6)
        total = env.run()
        # Aggregate memory-side bandwidth bounds completion time.
        min_time = (8 * 200e6) / fabric.memory_write_channel.bandwidth_bps
        assert total >= min_time

    def test_traffic_recorded_in_monitor(self):
        env, fabric = make_fabric()
        fabric.read("5x5 conv-0", 1e6)
        fabric.write("5x5 conv-0", 2e6)
        env.run()
        epoch = fabric.monitor.close_epoch()
        assert epoch["read:5x5 conv-0"] == 1e6
        assert epoch["write:5x5 conv-0"] == 2e6
        assert epoch["mem_read"] == 1e6


class RelayFabric(PhotonicInterposerFabric):
    """Every message through :class:`_ChunkRelay` stages, whatever its
    size: the construction the one-chunk pipeline must reproduce."""

    def read(self, dst_chiplet, bits, multicast=None):
        destinations = multicast if multicast else (dst_chiplet,)
        self.bits_read += bits
        done = self.env.event()
        chunks = self._chunks(bits)
        if not chunks:
            done.succeed()
            return done
        n = len(chunks)
        pending = [len(destinations)]

        def destination_done():
            pending[0] -= 1
            if pending[0] == 0:
                tail = self.env.timeout(self._transfer_tail_s)
                tail.callbacks = lambda _: done.succeed()

        readers = [
            _ChunkRelay(self.chiplet_read_channels[destination],
                        self.monitor, f"read:{destination}", None, n,
                        destination_done)
            for destination in destinations
        ]

        def fanout(chunk):
            for relay in readers:
                relay.feed(chunk)

        writer = _ChunkRelay(self.memory_write_channel, self.monitor,
                             "mem_read", fanout, n, None)
        hbm = _ChunkRelay(self.hbm_channel, None, None, writer.feed, n, None)
        for chunk in chunks:
            hbm.feed(chunk)
        return done

    def write(self, src_chiplet, bits):
        self.bits_written += bits
        done = self.env.event()
        chunks = self._chunks(bits)
        if not chunks:
            done.succeed()
            return done

        def drained():
            tail = self.env.timeout(self._transfer_tail_s)
            tail.callbacks = lambda _: done.succeed()

        hbm = _ChunkRelay(self.hbm_channel, None, None, None, len(chunks),
                          drained)
        source = _ChunkRelay(self.chiplet_write_channels[src_chiplet],
                             self.monitor, f"write:{src_chiplet}", hbm.feed,
                             len(chunks), None)
        for chunk in chunks:
            source.feed(chunk)
        return done


CHIPLETS = tuple(
    site.chiplet_id
    for site in build_floorplan(DEFAULT_PLATFORM).compute_sites
)
SLOT_S = 0.25e-6
"""Issue times are multiples of this, so many messages start together."""

messages = st.tuples(
    st.integers(0, 6),                           # issue slot
    st.sampled_from(("read", "multicast", "write")),
    st.integers(0, len(CHIPLETS) - 1),           # first chiplet
    st.sampled_from((CHUNK_BITS, CHUNK_BITS / 2, 3e3, 4.1e4, 0.0,
                     2.5 * CHUNK_BITS)),
    st.booleans(),                               # twin on another chiplet
)
bandwidth_changes = st.tuples(
    st.integers(0, 6),                           # slot
    st.integers(1, DEFAULT_PLATFORM.n_memory_write_gateways),
    st.integers(0, len(CHIPLETS) - 1),
    st.integers(1, 4),                           # write gateways
    st.integers(1, 4),                           # read gateways
)


def play(cls, script, changes):
    """Run one script; everything the one-chunk path could perturb."""
    env, fabric = make_fabric(cls=cls)
    fired = []
    history = []

    def epochs():
        while True:
            yield env.timeout(DEFAULT_PLATFORM.resipi_epoch_s)
            history.append(fabric.monitor.close_epoch())

    env.process(epochs())

    def change(slot, n_memory, index, n_write, n_read):
        chiplet = CHIPLETS[index]
        inventory = fabric.inventories[chiplet]

        def apply(_):
            fabric.set_active_memory_gateways(n_memory)
            fabric.set_active_chiplet_gateways(
                chiplet, min(n_write, inventory.n_write_gateways),
                min(n_read, inventory.n_read_gateways),
            )

        env.timeout(slot * SLOT_S).callbacks = apply

    for args in changes:
        change(*args)
    dones = []

    def issue(index, kind, chiplet, bits):
        def start(_):
            if kind == "write":
                done = fabric.write(CHIPLETS[chiplet], bits)
            else:
                group = None
                if kind == "multicast":
                    group = tuple(CHIPLETS[(chiplet + k) % len(CHIPLETS)]
                                  for k in range(3))
                done = fabric.read(CHIPLETS[chiplet], bits, group)
            done._add_callback(lambda _: fired.append((index, env.now)))
            dones.append(done)

        env.timeout(slot * SLOT_S).callbacks = start

    index = 0
    for slot, kind, chiplet, bits, twin in script:
        issue(index, kind, chiplet, bits)
        index += 1
        if twin:
            # Same size, same instant, another chiplet: equal floats
            # finishing together, the ties the pipeline must keep.
            issue(index, kind, (chiplet + 1) % len(CHIPLETS), bits)
            index += 1
    env.run(until=7 * SLOT_S)
    env.run_until_event(env.all_of(dones), limit=1.0)
    history.append(fabric.monitor.close_epoch())
    channels = [(channel.name, channel.bits_transferred,
                 channel.transfer_count, channel.busy_time())
                for channel in fabric.iter_channels()]
    return fired, history, channels, env.now


class TestOneChunkPipeline:
    """Messages of at most one chunk skip the relays: same times, same
    firing order, same epoch traffic as building them from relays."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(messages, min_size=1, max_size=16),
           st.lists(bandwidth_changes, max_size=3))
    # A multicast whose reader stages finish together while equal reads
    # wait behind them: fanning out in any other order than the
    # destinations' swaps those reads.
    @example([(0, "read", 0, CHUNK_BITS, False)] * 14
             + [(0, "multicast", 0, CHUNK_BITS, False),
                (0, "read", 1, CHUNK_BITS / 2, True)], [])
    def test_matches_relay_chains(self, script, changes):
        fast = play(PhotonicInterposerFabric, script, changes)
        reference = play(RelayFabric, script, changes)
        assert fast == reference
        assert len(fast[0]) == len(script) + sum(t[-1] for t in script)

    def test_twin_writes_finish_on_the_same_float(self, monkeypatch):
        """The ties the property above relies on do happen: equal
        writes on two chiplets leave their writer stages together."""
        env, fabric = make_fabric()
        records = []
        record = fabric.monitor.record
        monkeypatch.setattr(fabric.monitor, "record", lambda key, bits: (
            records.append((key, env.now)), record(key, bits)))
        fabric.write(CHIPLETS[0], CHUNK_BITS)
        fabric.write(CHIPLETS[2], CHUNK_BITS)
        env.run()
        (key0, t0), (key2, t2) = records
        assert (key0, key2) == (f"write:{CHIPLETS[0]}", f"write:{CHIPLETS[2]}")
        assert t0 == t2


class TestReconfiguration:
    def test_gateway_bounds_enforced(self):
        _, fabric = make_fabric()
        with pytest.raises(ConfigurationError):
            fabric.set_active_memory_gateways(0)
        with pytest.raises(ConfigurationError):
            fabric.set_active_memory_gateways(99)
        with pytest.raises(ConfigurationError):
            fabric.set_active_chiplet_gateways("3x3 conv-0", 0, 1)

    def test_deactivation_is_immediate(self):
        env, fabric = make_fabric()
        before = fabric.memory_write_channel.bandwidth_bps
        fabric.set_active_memory_gateways(1)
        assert fabric.memory_write_channel.bandwidth_bps == pytest.approx(
            before / DEFAULT_PLATFORM.n_memory_write_gateways
        )

    def test_activation_lags_by_pcmc_write_time(self):
        env, fabric = make_fabric()
        fabric.set_active_memory_gateways(1)
        fabric.set_active_memory_gateways(8)
        # Bandwidth not yet raised: PCM cells still switching.
        low = fabric.memory_write_channel.bandwidth_bps
        env.run(until=2e-6)  # > PCMC_SWITCHING_TIME_S
        high = fabric.memory_write_channel.bandwidth_bps
        assert high == pytest.approx(8 * low)

    def test_superseded_activation_is_dropped(self):
        env, fabric = make_fabric()
        fabric.set_active_memory_gateways(1)
        fabric.set_active_memory_gateways(8)   # deferred
        fabric.set_active_memory_gateways(2)   # overrides before it lands
        env.run(until=5e-6)
        expected = 2 * fabric.config.gateway_bandwidth_bps
        assert fabric.memory_write_channel.bandwidth_bps == pytest.approx(
            expected
        )

    def test_reconfiguration_charges_pcmc_energy(self):
        _, fabric = make_fabric()
        fabric.set_active_memory_gateways(4)
        assert fabric.pcmc_energy_j > 0
        assert fabric.reconfiguration_count == 1

    def test_same_setting_costs_nothing(self):
        _, fabric = make_fabric()
        count = DEFAULT_PLATFORM.n_memory_write_gateways
        fabric.set_active_memory_gateways(count)
        assert fabric.pcmc_energy_j == 0.0
        assert fabric.reconfiguration_count == 0

    def test_comb_cut_survives_a_pending_gateway_increase(self):
        """A PCMC-deferred increase must not overwrite a later comb cut."""
        env, fabric = make_fabric()
        fabric.set_active_memory_gateways(1)
        fabric.set_active_memory_gateways(3)  # lands after the PCMC write
        env.run(until=0.5e-6)
        fabric.set_wavelength_fraction(0.5)
        env.run(until=3e-6)  # well past the deferred write
        assert fabric.memory_write_channel.bandwidth_bps == (
            3 * fabric.config.gateway_bandwidth_bps * 0.5
        )

    def test_reasserting_a_settled_setting_touches_nothing(self,
                                                          monkeypatch):
        env, fabric = make_fabric()
        fabric.set_active_memory_gateways(2)
        fabric.set_active_chiplet_gateways("3x3 conv-0", 1, 2)
        env.run(until=1e-6)
        touched = []
        monkeypatch.setattr(fabric, "_apply_bandwidth",
                            lambda *args, **kwargs: touched.append(args))
        for signal in (fabric.active_memory_gateways,
                       fabric.active_write_gateways["3x3 conv-0"],
                       fabric.active_read_gateways["3x3 conv-0"]):
            monkeypatch.setattr(signal, "set", touched.append)
        fabric.set_active_memory_gateways(2)
        fabric.set_active_chiplet_gateways("3x3 conv-0", 1, 2)
        assert touched == []
        assert fabric.reconfiguration_count == 2

    def test_a_pending_increase_is_not_settled(self, monkeypatch):
        """Same count, but its PCMC write has not landed: not a no-op."""
        env, fabric = make_fabric()
        fabric.set_active_memory_gateways(1)
        fabric.set_active_memory_gateways(3)  # PCMC write still pending
        applied = []
        original = fabric._apply_bandwidth

        def apply(channel, target_bps, increase):
            applied.append(target_bps)
            original(channel, target_bps, increase)

        monkeypatch.setattr(fabric, "_apply_bandwidth", apply)
        fabric.set_active_memory_gateways(3)
        assert applied == [3 * fabric.config.gateway_bandwidth_bps]
        env.run(until=3e-6)
        assert fabric.memory_write_channel.bandwidth_bps == applied[0]

    def test_wavelength_fraction_scales_bandwidth(self):
        env, fabric = make_fabric()
        full = fabric.memory_write_channel.bandwidth_bps
        fabric.set_wavelength_fraction(0.5)
        assert fabric.memory_write_channel.bandwidth_bps == pytest.approx(
            full / 2
        )

    def test_invalid_wavelength_fraction(self):
        _, fabric = make_fabric()
        with pytest.raises(ConfigurationError):
            fabric.set_wavelength_fraction(0.0)
        with pytest.raises(ConfigurationError):
            fabric.set_wavelength_fraction(1.5)


class ProcessPcmcFabric(PhotonicInterposerFabric):
    """Defers gateway increases with the generator process that the
    fabric's two-step callback chain replaces."""

    def _apply_bandwidth(self, channel, target_bps, increase):
        if self._settled(channel, target_bps):
            return
        self._desired_bandwidth[channel.name] = target_bps
        if not increase:
            channel.set_bandwidth(target_bps)
            return

        def deferred():
            yield self.env.timeout(PCMC_SWITCHING_TIME_S)
            if self._desired_bandwidth.get(channel.name) == target_bps:
                channel.set_bandwidth(target_bps)

        self.env.process(deferred())


class TestPcmcWriteChain:
    """PCMC-deferred writes land at the same time and in the same order
    as the process did; only its unwaited completion event is gone."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(messages, max_size=8),
           st.lists(bandwidth_changes, min_size=1, max_size=4))
    def test_matches_the_deferred_process(self, script, changes):
        chain = play(PhotonicInterposerFabric, script, changes)
        assert chain == play(ProcessPcmcFabric, script, changes)

    def test_one_kernel_event_fewer_per_write(self, monkeypatch):
        def run(cls):
            env, fabric = make_fabric(cls=cls)
            log = []
            set_bandwidth = BandwidthChannel.set_bandwidth

            def logged(channel, bps):
                log.append((channel.name, bps, env.now))
                set_bandwidth(channel, bps)

            monkeypatch.setattr(BandwidthChannel, "set_bandwidth", logged)
            fabric.set_active_memory_gateways(1)
            fabric.set_active_chiplet_gateways(CHIPLETS[0], 1, 1)
            fabric.read(CHIPLETS[0], CHUNK_BITS)
            fabric.set_active_memory_gateways(4)   # deferred
            fabric.set_active_chiplet_gateways(CHIPLETS[0], 2, 2)  # two
            env.run(until=0.5 * PCMC_SWITCHING_TIME_S)
            fabric.set_active_memory_gateways(8)   # deferred, supersedes
            env.run()
            monkeypatch.undo()
            return log, env.now, env._sequence

        chain_log, chain_end, chain_events = run(PhotonicInterposerFabric)
        log, end, events = run(ProcessPcmcFabric)
        assert (chain_log, chain_end) == (log, end)
        assert events - chain_events == 4


class TestEnergy:
    def test_energy_report_after_traffic(self):
        env, fabric = make_fabric()
        fabric.read("3x3 conv-0", 10e6)
        env.run()
        report = fabric.energy_report()
        assert report.elapsed_s == env.now
        assert report.dynamic_energy_j > 0
        assert report.static_energy_j > 0
        assert report.average_power_w > 0

    def test_fewer_gateways_less_static_energy(self):
        env1, fabric1 = make_fabric()
        fabric1.read("3x3 conv-0", 1e6)
        env1.run()
        env1._now = 1e-3  # hold both fabrics at the same elapsed time
        full = fabric1.energy_report()

        env2, fabric2 = make_fabric()
        fabric2.set_active_memory_gateways(1)
        for chiplet_id in fabric2.inventories:
            fabric2.set_active_chiplet_gateways(chiplet_id, 1, 1)
        fabric2.read("3x3 conv-0", 1e6)
        env2.run()
        env2._now = 1e-3
        gated = fabric2.energy_report()
        assert gated.static_energy_j < full.static_energy_j

    def test_breakdown_keys(self):
        env, fabric = make_fabric()
        fabric.write("7x7 conv-0", 1e6)
        env.run()
        breakdown = fabric.energy_report().breakdown_j
        for key in ("laser", "gateway_electronics", "ring_trimming",
                    "hbm_dynamic", "serdes_modulate_receive"):
            assert key in breakdown


class TestLinkBudgets:
    def test_swmr_includes_broadcast_waveguide(self, floorplan):
        budget = swmr_read_budget(DEFAULT_PLATFORM, floorplan)
        assert budget.breakdown()["waveguide"] > 0
        assert 5.0 < budget.total_loss_db < 20.0

    def test_multicast_degree_adds_split_loss(self, floorplan):
        unicast = swmr_read_budget(DEFAULT_PLATFORM, floorplan, 1)
        multicast = swmr_read_budget(DEFAULT_PLATFORM, floorplan, 8)
        assert multicast.total_loss_db == pytest.approx(
            unicast.total_loss_db + 9.03, abs=0.1
        )

    def test_swsr_shorter_than_swmr(self, floorplan):
        write = swsr_write_budget(DEFAULT_PLATFORM, floorplan, "3x3 conv-0")
        read = swmr_read_budget(DEFAULT_PLATFORM, floorplan)
        assert write.total_loss_db < read.total_loss_db

    def test_worst_case_write_is_max(self, floorplan):
        worst = worst_case_write_budget(DEFAULT_PLATFORM, floorplan)
        for site in floorplan.compute_sites:
            budget = swsr_write_budget(
                DEFAULT_PLATFORM, floorplan, site.chiplet_id
            )
            assert budget.total_loss_db <= worst.total_loss_db + 1e-12
