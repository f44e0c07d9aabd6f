"""Interposer reconfiguration controllers (ReSiPI / PROWAVES / static)."""

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.interposer.photonic.controllers import (
    ProwavesController,
    ReSiPIController,
    StaticController,
)
from repro.interposer.photonic.fabric import PhotonicInterposerFabric
from repro.interposer.photonic.faults import (
    GatewayFail,
    GatewayRepair,
    HazardEngine,
    HazardTimeline,
    RingDriftBurst,
)
from repro.interposer.topology import build_floorplan
from repro.sim.core import Environment


def make_stack(controller_cls):
    env = Environment()
    floorplan = build_floorplan(DEFAULT_PLATFORM)
    fabric = PhotonicInterposerFabric(env, DEFAULT_PLATFORM, floorplan)
    controller = controller_cls(env, fabric, DEFAULT_PLATFORM)
    return env, fabric, controller


def drive_traffic(env, fabric, bits, chiplet="3x3 conv-0", repeat=3):
    """Generate several rounds of read traffic."""

    def workload():
        for _ in range(repeat):
            yield fabric.read(chiplet, bits)

    return env.process(workload())


class TestReSiPI:
    def test_starts_minimal(self):
        _, fabric, _ = make_stack(ReSiPIController)
        assert fabric.active_memory_gateways.value == 1.0
        for chiplet_id in fabric.inventories:
            assert fabric.active_write_gateways[chiplet_id].value == 1.0

    def test_high_demand_activates_gateways(self):
        env, fabric, controller = make_stack(ReSiPIController)
        # ~6 Tb/s offered read load, far above one gateway's 768 Gb/s.
        done = drive_traffic(env, fabric, bits=50e6, repeat=6)
        env.run_until_event(done, limit=1.0)
        peak_memory_gateways = max(
            decisions["mem"] for decisions in controller.decision_log
        )
        assert peak_memory_gateways > 1

    def test_idle_epochs_deactivate(self):
        env, fabric, controller = make_stack(ReSiPIController)
        done = drive_traffic(env, fabric, bits=50e6, repeat=3)
        env.run_until_event(done, limit=1.0)

        def idle():
            yield env.timeout(5e-6)  # five silent epochs

        idle_done = env.process(idle())
        env.run_until_event(idle_done, limit=1.0)
        assert controller.decision_log[-1]["mem"] == 1
        assert fabric.active_memory_gateways.value == 1.0

    def test_decision_log_records_changes_only(self):
        env, fabric, controller = make_stack(ReSiPIController)
        done = drive_traffic(env, fabric, bits=1e6)
        env.run_until_event(done, limit=1.0)
        env.run(until=env.now + 20e-6)  # a long silent tail
        log = controller.decision_log
        assert len(log) >= 2
        assert all(a != b for a, b in zip(log, log[1:]))
        assert log[-1]["mem"] == 1
        # Far fewer entries than epochs: the silent tail logs once.
        assert len(log) < env.now / DEFAULT_PLATFORM.resipi_epoch_s / 2

    def test_gateways_never_exceed_inventory(self):
        env, fabric, controller = make_stack(ReSiPIController)
        done = drive_traffic(env, fabric, bits=500e6, repeat=4)
        env.run_until_event(done, limit=1.0)
        maximum = DEFAULT_PLATFORM.n_memory_write_gateways
        for decisions in controller.decision_log:
            assert 1 <= decisions["mem"] <= maximum


class TestProwaves:
    def test_starts_with_one_wavelength(self):
        _, fabric, _ = make_stack(ProwavesController)
        one_lambda = (
            DEFAULT_PLATFORM.n_memory_write_gateways
            * DEFAULT_PLATFORM.wavelength_data_rate_bps
        )
        assert fabric.memory_write_channel.bandwidth_bps == pytest.approx(
            one_lambda
        )

    def test_demand_raises_wavelength_fraction(self):
        env, fabric, controller = make_stack(ProwavesController)
        done = drive_traffic(env, fabric, bits=100e6, repeat=4)
        env.run_until_event(done, limit=1.0)
        assert max(controller.decision_log) > 1.0 / DEFAULT_PLATFORM.n_wavelengths

    def test_fraction_bounded(self):
        env, fabric, controller = make_stack(ProwavesController)
        done = drive_traffic(env, fabric, bits=800e6, repeat=4)
        env.run_until_event(done, limit=1.0)
        for fraction in controller.decision_log:
            assert 0.0 < fraction <= 1.0

    def test_all_gateways_stay_active(self):
        env, fabric, _ = make_stack(ProwavesController)
        done = drive_traffic(env, fabric, bits=10e6)
        env.run_until_event(done, limit=1.0)
        assert fabric.active_memory_gateways.value == float(
            DEFAULT_PLATFORM.n_memory_write_gateways
        )


class TestStatic:
    def test_everything_stays_on(self):
        env, fabric, _ = make_stack(StaticController)
        done = drive_traffic(env, fabric, bits=10e6)
        env.run_until_event(done, limit=1.0)
        assert fabric.active_memory_gateways.value == float(
            DEFAULT_PLATFORM.n_memory_write_gateways
        )
        assert fabric.reconfiguration_count == 0

    def test_epochs_still_drained(self):
        env, fabric, _ = make_stack(StaticController)
        done = drive_traffic(env, fabric, bits=1e6)
        env.run_until_event(done, limit=1.0)

        def wait():
            yield env.timeout(4e-6)

        env.run_until_event(env.process(wait()), limit=1.0)
        assert len(fabric.monitor.history) >= 4


class TestPolicyComparison:
    def test_resipi_saves_static_energy_vs_static(self):
        """The core ReSiPI claim: gateway gating cuts network power."""
        results = {}
        for name, cls in (("resipi", ReSiPIController),
                          ("static", StaticController)):
            env, fabric, _ = make_stack(cls)
            done = drive_traffic(env, fabric, bits=1e6, repeat=2)
            env.run_until_event(done, limit=1.0)

            def tail():
                yield env.timeout(20e-6)

            env.run_until_event(env.process(tail()), limit=1.0)
            results[name] = fabric.energy_report().static_energy_j
        assert results["resipi"] < results["static"]


CONTROLLERS = (ReSiPIController, ProwavesController, StaticController)
HOOKS = ("set_active_memory_gateways", "set_active_chiplet_gateways",
         "set_wavelength_fraction")


def count_hook_calls(fabric) -> list:
    """Record every controller-visible hook call made from now on."""
    calls = []
    for name in HOOKS:
        original = getattr(fabric, name)

        def hook(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        setattr(fabric, name, hook)
    return calls


def every_epoch(controller_cls):
    """``controller_cls`` with the epoch loop deciding on every epoch."""

    def run(self, epoch_s):
        monitor = self.fabric.monitor
        while True:
            yield self.env.timeout(epoch_s)
            traffic = monitor.close_epoch()
            self.decide(monitor.demanded_bandwidth_bps(traffic))

    return type(f"EveryEpoch{controller_cls.__name__}", (controller_cls,),
                {"_run": run})


def bursts(env, fabric, starts_s, bits=5e5):
    """One read and one write at each start time, on two chiplets."""

    def workload():
        for start in starts_s:
            yield env.timeout(start - env.now)
            fabric.read("3x3 conv-0", bits)
            fabric.write("dense100-1", bits / 2)

    return env.process(workload())


def channel_trace(fabric) -> tuple:
    return tuple(channel.bandwidth_bps for channel in fabric.iter_channels())


class TestIdleEpochs:
    """Change-driven epochs: silence costs no decisions, and skipping
    them changes nothing a decision on every epoch would have done."""

    @pytest.mark.parametrize("controller_cls", CONTROLLERS)
    def test_silent_epochs_issue_no_writes(self, controller_cls):
        env, fabric, controller = make_stack(controller_cls)
        done = drive_traffic(env, fabric, bits=2e6, repeat=2)
        env.run_until_event(done, limit=1.0)
        epoch = DEFAULT_PLATFORM.resipi_epoch_s
        # The first silent epoch applies the floor decision ...
        env.run(until=env.now + 3 * epoch)
        log_length = len(controller.decision_log)
        calls = count_hook_calls(fabric)
        # ... and every later one is skipped.
        env.run(until=env.now + 50 * epoch)
        assert calls == []
        assert len(controller.decision_log) == log_length

        # Traffic resumes: the first boundary that sees it decides
        # again, and the demand lifts the decision off the floor.
        drive_traffic(env, fabric, bits=50e6, repeat=1)
        while not fabric.monitor.history[-1]:
            env.run(until=env.now + epoch)
        if controller_cls is StaticController:
            assert calls == []
            return
        assert calls
        env.run(until=env.now + 5 * epoch)
        assert len(controller.decision_log) > log_length

    @pytest.mark.parametrize("controller_cls", CONTROLLERS)
    def test_matches_a_decision_on_every_epoch(self, controller_cls):
        """Bursts separated by silences: same channel rates at every
        sampled instant, same switching costs and energy."""
        runs = []
        for cls in (controller_cls, every_epoch(controller_cls)):
            env, fabric, controller = make_stack(cls)
            bursts(env, fabric, (2e-6, 40e-6, 41e-6, 120e-6))
            samples = []
            for step in range(320):
                env.run(until=(step + 1) * 0.5e-6)
                samples.append(channel_trace(fabric))
            runs.append((samples, fabric.reconfiguration_count,
                         fabric.pcmc_energy_j,
                         fabric.energy_report().total_energy_j,
                         controller.decision_log))
        (samples, count, pcmc, energy, log), reference = runs
        assert samples == reference[0]
        assert (count, pcmc) == (reference[1], reference[2])
        assert energy == pytest.approx(reference[3], rel=1e-12, abs=0.0)
        assert log == reference[4]

    @pytest.mark.parametrize("controller_cls",
                             (ReSiPIController, ProwavesController))
    def test_hazards_in_an_idle_stretch_leave_the_floor(self, controller_cls):
        """Gateway failures, a ring-drift burst and repairs between
        bursts: every channel stays at its active gateways times the
        current comb fraction, with the floor decision in force, exactly
        as re-deciding on every epoch leaves it."""
        gateway_bw = DEFAULT_PLATFORM.gateway_bandwidth_bps
        floor_fraction = 1.0 / DEFAULT_PLATFORM.n_wavelengths
        chiplet = "3x3 conv-0"
        traces = []
        for cls in (controller_cls, every_epoch(controller_cls)):
            env, fabric, _ = make_stack(cls)
            done = drive_traffic(env, fabric, bits=20e6, chiplet=chiplet,
                                 repeat=1)
            env.run_until_event(done, limit=1.0)
            # The hazards land in silence, a few epochs after the burst.
            t0 = env.now + 5e-6
            engine = HazardEngine(fabric, HazardTimeline((
                GatewayFail(at_s=t0, memory_gateways=5,
                            chiplet_gateways=((chiplet, 2, 3),)),
                RingDriftBurst(at_s=t0 + 5e-6, duration_s=10e-6,
                               temperature_rise_k=10.0),
                GatewayRepair(at_s=t0 + 20e-6, memory_gateways=5,
                              chiplet_gateways=((chiplet, 2, 3),)),
            )))
            samples = []
            for offset in (2.5e-6, 7.5e-6, 17.5e-6, 25.5e-6):
                env.run(until=t0 + offset)
                assert not fabric.monitor.history[-1]
                fraction = fabric._wavelength_fraction
                assert fraction == engine._effective_fraction()
                pairs = [(fabric.memory_write_channel,
                          fabric.active_memory_gateways)]
                for cid in fabric.inventories:
                    pairs.append((fabric.chiplet_write_channels[cid],
                                  fabric.active_write_gateways[cid]))
                    pairs.append((fabric.chiplet_read_channels[cid],
                                  fabric.active_read_gateways[cid]))
                for channel, active in pairs:
                    if controller_cls is ReSiPIController:
                        assert active.value == 1
                    assert channel.bandwidth_bps == pytest.approx(
                        active.value * gateway_bw * fraction, rel=1e-12
                    )
                if controller_cls is ProwavesController:
                    assert engine._controller_fraction == floor_fraction
                samples.append(channel_trace(fabric))
            traces.append(samples)
        assert traces[0] == traces[1]
