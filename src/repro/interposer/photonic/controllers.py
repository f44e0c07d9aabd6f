"""Reconfiguration controllers for the photonic interposer.

Three policies, matching Section IV of the paper:

* :class:`ReSiPIController` [37] — monitors per-chiplet traffic in time
  epochs and tunes the **number of active gateways** through PCM
  couplers; laser power follows the active-gateway count.
* :class:`ProwavesController` [11] — tunes the **number of active
  wavelengths** globally with respect to traffic load.
* :class:`StaticController` — everything always on (the passive-network
  upper bound on performance and power; ablation baseline).

PROWAVES and static keep every gateway on, so after a ``gateway-repair``
their decision re-raises the counts the earlier ``gateway-fail`` capped.

Controllers are simulation processes sharing one epoch loop
(:class:`EpochController`): they wake at every epoch boundary, read the
fabric's traffic monitor, and apply the new configuration unless the
fabric has stayed idle (PCMC/laser switching costs are charged by the
fabric).
"""

from __future__ import annotations

import math

from ...config import PlatformConfig
from ...sim.core import Environment
from .fabric import PhotonicInterposerFabric

_INFINITY = float("inf")


class EpochController:
    """The epoch loop shared by every controller: close, decide, apply.

    Change-driven.  An epoch that closes with no traffic right after
    another one did is skipped: the previous epoch already applied the
    zero-demand (floor) decision, and nothing between the two can make
    re-applying it do anything.  A hazard cap cannot go below one
    gateway, and a comb change re-applies itself to every channel.

    A skipped tick also collapses the idle stretch behind it.  When the
    kernel's immediate queue is empty, nothing fires before the next
    queued event or the end of the current run, so every tick before
    both would fire into an untouched queue, close an empty epoch and
    skip again.  Those epochs are closed on the spot, and the next tick
    is scheduled at the time the tick chain would have reached
    (``T += epoch_s`` step by step, the same floats).  The rescheduled
    tick then sits after everything already queued and before anything
    scheduled later, exactly where the chain would have put it, so no
    other event's time or firing order moves.

    A policy whose idle decision is not a fixed floor says so through
    :meth:`_restore_pending`: while it holds, idle epochs decide as if
    they carried traffic.

    Subclasses apply their initial configuration in :meth:`boot` and
    their per-epoch one in :meth:`decide`, always through the fabric's
    hooks as instance attributes (the hazard engine caps them there).
    ``decision_log`` gets one entry per change of decision.
    """

    def __init__(
        self,
        env: Environment,
        fabric: PhotonicInterposerFabric,
        config: PlatformConfig,
    ):
        self.env = env
        self.fabric = fabric
        self.config = config
        self.decision_log: list = []
        # (chiplet id, read key, write key, read inventory, write
        # inventory) per compute chiplet, in inventory order.
        self._chiplets = tuple(
            (chiplet_id, fabric.read_keys[chiplet_id],
             fabric.write_keys[chiplet_id],
             inventory.n_read_gateways, inventory.n_write_gateways)
            for chiplet_id, inventory in fabric.inventories.items()
        )
        self.boot()
        self._process = env.process(self._run(config.resipi_epoch_s))

    def boot(self) -> None:
        """Apply the configuration the fabric starts from."""

    def decide(self, demand: dict[str, float]) -> None:
        """Apply the configuration for one epoch's offered load (b/s)."""

    def _restore_pending(self) -> bool:
        """Whether an idle epoch's decision could still raise a count."""
        return False

    def _log(self, decision) -> None:
        """Append ``decision`` if it differs from the latest one."""
        if not self.decision_log or self.decision_log[-1] != decision:
            self.decision_log.append(decision)

    def _run(self, epoch_s: float):
        env = self.env
        monitor = self.fabric.monitor
        close_epoch = monitor.close_epoch
        idle = False
        tick = env.timeout(epoch_s)
        while True:
            yield tick
            traffic = close_epoch()
            at = env.now + epoch_s
            active = bool(traffic) or (idle and self._restore_pending())
            if active or not idle:
                self.decide(monitor.demanded_bandwidth_bps(traffic))
                idle = not active
            else:
                horizon = min(env.peek(), env.bound)
                if horizon != _INFINITY:
                    while at < horizon:
                        close_epoch()
                        at += epoch_s
            tick = env.timeout_at(at)


class ReSiPIController(EpochController):
    """Epoch-driven gateway scaling via PCM couplers (ReSiPI [37])."""

    def __init__(
        self,
        env: Environment,
        fabric: PhotonicInterposerFabric,
        config: PlatformConfig,
        headroom: float = 1.25,
    ):
        self.headroom = headroom
        super().__init__(env, fabric, config)

    def boot(self) -> None:
        # Start minimal: one gateway everywhere; traffic wakes more up.
        self.fabric.set_active_memory_gateways(1)
        for chiplet_id in self.fabric.inventories:
            self.fabric.set_active_chiplet_gateways(chiplet_id, 1, 1)

    def decide(self, demand: dict[str, float]) -> None:
        fabric = self.fabric
        headroom = self.headroom
        gateway_bw = self.config.gateway_bandwidth_bps
        get = demand.get
        # Per channel: the gateways that serve its load with headroom,
        # at least one and at most its inventory.
        load = get("mem_read", 0.0)
        n_memory = 1 if load <= 0.0 else max(1, min(
            self.config.n_memory_write_gateways,
            math.ceil(headroom * load / gateway_bw),
        ))
        fabric.set_active_memory_gateways(n_memory)
        decisions = {"mem": n_memory}
        set_chiplet = fabric.set_active_chiplet_gateways
        for chiplet_id, read_key, write_key, max_read, max_write in (
            self._chiplets
        ):
            load = get(read_key, 0.0)
            n_read = 1 if load <= 0.0 else max(1, min(
                max_read, math.ceil(headroom * load / gateway_bw)
            ))
            load = get(write_key, 0.0)
            n_write = 1 if load <= 0.0 else max(1, min(
                max_write, math.ceil(headroom * load / gateway_bw)
            ))
            set_chiplet(chiplet_id, n_write, n_read)
            decisions[chiplet_id] = n_read + n_write
        self._log(decisions)


class _FullInventoryController(EpochController):
    """A policy that keeps every gateway on.

    Only a hazard lowers a count (a ``gateway-fail`` caps it through the
    fabric hooks), and nothing else raises it again after the
    ``gateway-repair``.  So every decision re-asserts each inventory
    maximum a count sits below, through the capped hooks: a no-op while
    the failure lasts, the restore once it is repaired.  Idle epochs
    decide too while a count sits below its maximum, and so does the
    epoch after, as after a decision on traffic.
    """

    def _short(self) -> tuple[bool, list]:
        """Whether the memory side sits below its inventory, and the
        (chiplet, write max, read max) of every chiplet that does."""
        fabric = self.fabric
        writers = fabric.active_write_gateways
        readers = fabric.active_read_gateways
        chiplets = [
            (chiplet_id, max_write, max_read)
            for chiplet_id, _, _, max_read, max_write in self._chiplets
            if writers[chiplet_id].value < max_write
            or readers[chiplet_id].value < max_read
        ]
        memory = (fabric.active_memory_gateways.value
                  < self.config.n_memory_write_gateways)
        return memory, chiplets

    def _restore_pending(self) -> bool:
        memory, chiplets = self._short()
        return memory or bool(chiplets)

    def decide(self, demand: dict[str, float]) -> None:
        memory, chiplets = self._short()
        fabric = self.fabric
        if memory:
            fabric.set_active_memory_gateways(
                self.config.n_memory_write_gateways
            )
        for chiplet_id, max_write, max_read in chiplets:
            fabric.set_active_chiplet_gateways(chiplet_id, max_write, max_read)


class ProwavesController(_FullInventoryController):
    """Epoch-driven wavelength scaling (PROWAVES [11]).

    All gateways stay active; the controller scales the active share of
    the wavelength comb to match the *peak* per-channel demand, because
    every channel shares the comb of the single laser source.
    """

    def __init__(
        self,
        env: Environment,
        fabric: PhotonicInterposerFabric,
        config: PlatformConfig,
        headroom: float = 1.25,
    ):
        self.headroom = headroom
        super().__init__(env, fabric, config)

    def boot(self) -> None:
        self.fabric.set_wavelength_fraction(1.0 / self.config.n_wavelengths)

    def decide(self, demand: dict[str, float]) -> None:
        # Peak per-gateway demand across channels sets the comb size.
        get = demand.get
        peak = get("mem_read", 0.0) / self.config.n_memory_write_gateways
        for _, read_key, write_key, max_read, max_write in self._chiplets:
            peak = max(peak, get(read_key, 0.0) / max_read)
            peak = max(peak, get(write_key, 0.0) / max_write)
        n_lambda = self.config.n_wavelengths
        wanted = math.ceil(
            self.headroom * peak / self.config.wavelength_data_rate_bps
        )
        fraction = max(1, min(n_lambda, wanted)) / n_lambda
        self.fabric.set_wavelength_fraction(fraction)
        self._log(fraction)
        # After the comb, so a raised count waits for its PCMC write.
        super().decide(demand)


class StaticController(_FullInventoryController):
    """No reconfiguration: all gateways and wavelengths always active.

    The fabric boots fully active; the epoch loop drains the monitor so
    it does not grow, and re-raises the counts a repaired gateway
    failure left capped.
    """


CONTROLLER_FACTORIES = {
    "resipi": ReSiPIController,
    "prowaves": ProwavesController,
    "static": StaticController,
}
"""Controller constructors keyed by policy name."""

EPOCH_CONTROLLERS = ("resipi", "prowaves")
"""Controllers whose decisions fire on the config's epoch length
(``resipi_epoch_s``): the spec-level ``platform.controller_epoch_s``
knob applies only to these — the static controller drains monitors on
the same period but never acts on it, so the knob would be inert."""
