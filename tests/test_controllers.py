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
from repro.photonics.constants import PCMC_SWITCHING_TIME_S
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


class UncollapsedReSiPI(ReSiPIController):
    """ReSiPI on the epoch loop without the idle-stretch collapse: one
    kernel tick per epoch, idle ones skipping the decision."""

    def _run(self, epoch_s):
        monitor = self.fabric.monitor
        idle = False
        while True:
            yield self.env.timeout(epoch_s)
            traffic = monitor.close_epoch()
            if traffic or not idle:
                self.decide(monitor.demanded_bandwidth_bps(traffic))
            idle = not traffic


def tick_times(n):
    """The first ``n`` epoch tick times, accumulated as the loop does."""
    times, at = [], 0.0
    for _ in range(n):
        at += DEFAULT_PLATFORM.resipi_epoch_s
        times.append(at)
    return times


def observe(cls, scenario):
    """Run ``scenario(env, fabric, log)`` under ``cls``; everything the
    collapse could perturb, plus the kernel's scheduling count."""
    env, fabric, controller = make_stack(cls)
    log = []
    for name in HOOKS:
        original = getattr(fabric, name)

        def hook(*args, _name=name, _original=original):
            log.append((_name, env.now) + args)
            return _original(*args)

        setattr(fabric, name, hook)
    scenario(env, fabric, log)
    signals = [fabric.active_memory_gateways]
    for chiplet_id in fabric.inventories:
        signals.append(fabric.active_write_gateways[chiplet_id])
        signals.append(fabric.active_read_gateways[chiplet_id])
    return {
        "decisions": controller.decision_log,
        "history": list(fabric.monitor.history),
        "integrals": [signal.integral() for signal in signals],
        "log": log,
        "channels": channel_trace(fabric),
        "now": env.now,
        "energy": fabric.energy_report().total_energy_j,
    }, env._sequence


def traffic_at(env, fabric, log, start_s, tag, bits=5e5, process=False):
    """A read, a multicast read and a write, issued at ``start_s``
    (by a process started then, with ``process``)."""

    def issue(_=None):
        group = ("3x3 conv-0", "3x3 conv-1", "5x5 conv-0")
        for name, done in (
            ("read", fabric.read("3x3 conv-0", bits)),
            ("multicast", fabric.read(group[0], bits / 4, group)),
            ("write", fabric.write("dense100-1", bits / 2)),
        ):
            done._add_callback(
                lambda _, n=name: log.append((tag, n, env.now))
            )

    def issuer():
        issue()
        yield env.timeout(0.0)

    if process:
        env.timeout_at(start_s).callbacks = (
            lambda _: env.process(issuer())
        )
    else:
        env.timeout_at(start_s).callbacks = issue


class TestIdleEpochCollapse:
    """Collapsing idle stretches changes no decision, no epoch, no
    integral and no event order, and schedules far fewer ticks."""

    def compare(self, scenario):
        fast, fast_events = observe(ReSiPIController, scenario)
        reference, reference_events = observe(UncollapsedReSiPI, scenario)
        assert fast == reference
        assert fast_events < reference_events
        return fast

    def test_sparse_bursty_traffic(self):
        ticks = tick_times(401)

        def scenario(env, fabric, log):
            # Bursts between long silences, two of them issued on a
            # tick's exact time (one by a process that starts then, so
            # the tick fires with it still in the immediate queue).
            for index, start in enumerate((2e-6, 40e-6, 41e-6, ticks[119],
                                           300e-6)):
                traffic_at(env, fabric, log, start, index)
            traffic_at(env, fabric, log, ticks[199], "p", process=True)
            # Traffic an event queued long before records on a tick's
            # exact time: it belongs to the epoch that tick closes.
            env.timeout_at(ticks[259]).callbacks = (
                lambda _: fabric.monitor.record("write:dense100-0", 4e4)
            )
            env.run(until=400e-6)

        result = self.compare(scenario)
        assert len(result["history"]) == sum(t <= 400e-6 for t in ticks)
        assert sum(entry[0] not in HOOKS for entry in result["log"]) == 18
        assert result["history"][259] == {"write:dense100-0": 4e4}

    def test_bounded_runs_with_injection_between_them(self):
        ticks = tick_times(200)
        bounds = (7.3e-6, ticks[19], ticks[20], 55.5e-6, ticks[99], 180e-6)

        def scenario(env, fabric, log):
            # Queued from the start: every idle stretch before it ends
            # at a run's bound, not at this burst.
            traffic_at(env, fabric, log, 250e-6, "late")
            for round_, bound in enumerate(bounds):
                env.run(until=bound)
                # From outside the loop, at the bound: traffic starts on
                # the spot, plus a burst for later in the next run.
                for name, done in (
                    ("read", fabric.read("5x5 conv-1", 3e5)),
                    ("write", fabric.write("3x3 conv-2", 1e5)),
                ):
                    done._add_callback(
                        lambda _, n=name, r=round_: log.append(
                            (r, n, env.now))
                    )
                traffic_at(env, fabric, log, bound + 13e-6, -round_)
            env.run(until=260e-6)

        result = self.compare(scenario)
        assert result["now"] == 260e-6

    def test_hazards_and_a_pcmc_write_landing_on_a_tick(self):
        # Every PCMC-deferred increase decided on a tick lands exactly
        # on the next one.
        assert DEFAULT_PLATFORM.resipi_epoch_s == PCMC_SWITCHING_TIME_S
        ticks = tick_times(300)
        assert ticks[150] + PCMC_SWITCHING_TIME_S == ticks[151]

        def scenario(env, fabric, log):
            HazardEngine(fabric, HazardTimeline((
                GatewayFail(at_s=60.5e-6, memory_gateways=3,
                            chiplet_gateways=(("3x3 conv-0", 1, 2),)),
                RingDriftBurst(at_s=90e-6, duration_s=30e-6,
                               temperature_rise_k=8.0),
                GatewayRepair(at_s=ticks[180], memory_gateways=3,
                              chiplet_gateways=(("3x3 conv-0", 1, 2),)),
            )))
            traffic_at(env, fabric, log, 2e-6, "a")
            traffic_at(env, fabric, log, 100e-6, "b")
            traffic_at(env, fabric, log, 200e-6, "c")

            def raise_gateways(_):
                # In silence, on a tick: the write lands on the next.
                fabric.set_active_memory_gateways(4)

            env.timeout_at(ticks[150]).callbacks = raise_gateways
            env.run(until=300e-6)

        result = self.compare(scenario)
        landed = [entry for entry in result["log"]
                  if entry[:2] == ("set_active_memory_gateways", ticks[150])]
        assert landed


class TestGatewayRepair:
    """PROWAVES and static keep every gateway on: a repair undoes the
    cap its failure put on the counts, idle or busy, on the first epoch
    a decision on every epoch would."""

    @pytest.mark.parametrize("busy", (False, True))
    @pytest.mark.parametrize("controller_cls",
                             (ProwavesController, StaticController))
    def test_repair_restores_every_gateway(self, controller_cls, busy):
        chiplet = "3x3 conv-0"
        runs = []
        for cls in (controller_cls, every_epoch(controller_cls)):
            env, fabric, controller = make_stack(cls)
            HazardEngine(fabric, HazardTimeline((
                GatewayFail(at_s=10e-6, memory_gateways=5,
                            chiplet_gateways=((chiplet, 2, 3),)),
                GatewayRepair(at_s=30.5e-6, memory_gateways=5,
                              chiplet_gateways=((chiplet, 2, 3),)),
            )))
            starts = (2e-6, 20e-6, 28e-6, 29e-6, 31e-6) if busy else (2e-6,)
            bursts(env, fabric, starts)
            samples = []
            for step in range(100):
                env.run(until=(step + 1) * 0.5e-6)
                samples.append(channel_trace(fabric))
            counts = [fabric.active_memory_gateways.value]
            for cid in fabric.inventories:
                counts.append(fabric.active_write_gateways[cid].value)
                counts.append(fabric.active_read_gateways[cid].value)
            runs.append((samples, counts, fabric.reconfiguration_count,
                         fabric.pcmc_energy_j, controller.decision_log))
            maxima = [DEFAULT_PLATFORM.n_memory_write_gateways]
            for inventory in fabric.inventories.values():
                maxima += [inventory.n_write_gateways,
                           inventory.n_read_gateways]
            assert counts == maxima
            assert fabric.memory_write_channel.bandwidth_bps == (
                maxima[0] * DEFAULT_PLATFORM.gateway_bandwidth_bps
                * fabric._wavelength_fraction
            )
        assert runs[0] == runs[1]
