"""Reconfiguration controllers for the photonic interposer.

Three policies, matching Section IV of the paper:

* :class:`ReSiPIController` [37] — monitors per-chiplet traffic in time
  epochs and tunes the **number of active gateways** through PCM
  couplers; laser power follows the active-gateway count.
* :class:`ProwavesController` [11] — tunes the **number of active
  wavelengths** globally with respect to traffic load.
* :class:`StaticController` — everything always on (the passive-network
  upper bound on performance and power; ablation baseline).

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


class EpochController:
    """The epoch loop shared by every controller: close, decide, apply.

    Change-driven.  An epoch that closes with no traffic right after
    another one did is skipped: the previous epoch already applied the
    zero-demand (floor) decision, and nothing between the two can make
    re-applying it do anything.  A hazard cap cannot go below one
    gateway, and a comb change re-applies itself to every channel.  The
    epoch ticks themselves stay, so the controller keeps its place in
    the kernel's (time, insertion-order) firing order.

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
        self.boot()
        self._process = env.process(self._run(config.resipi_epoch_s))

    def boot(self) -> None:
        """Apply the configuration the fabric starts from."""

    def decide(self, demand: dict[str, float]) -> None:
        """Apply the configuration for one epoch's offered load (b/s)."""

    def _log(self, decision) -> None:
        """Append ``decision`` if it differs from the latest one."""
        if not self.decision_log or self.decision_log[-1] != decision:
            self.decision_log.append(decision)

    def _run(self, epoch_s: float):
        monitor = self.fabric.monitor
        idle = False
        while True:
            yield self.env.timeout(epoch_s)
            traffic = monitor.close_epoch()
            if traffic or not idle:
                self.decide(monitor.demanded_bandwidth_bps(traffic))
            idle = not traffic


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

    def _gateways_for_demand(self, demand_bps: float, maximum: int) -> int:
        """Gateways needed to serve a demand with headroom, at least one."""
        if demand_bps <= 0.0:
            return 1
        gateway_bw = self.config.gateway_bandwidth_bps
        needed = math.ceil(self.headroom * demand_bps / gateway_bw)
        return max(1, min(maximum, needed))

    def decide(self, demand: dict[str, float]) -> None:
        fabric = self.fabric
        n_memory = self._gateways_for_demand(
            demand.get("mem_read", 0.0), self.config.n_memory_write_gateways
        )
        fabric.set_active_memory_gateways(n_memory)
        decisions = {"mem": n_memory}
        for chiplet_id, inventory in fabric.inventories.items():
            n_read = self._gateways_for_demand(
                demand.get(f"read:{chiplet_id}", 0.0),
                inventory.n_read_gateways,
            )
            n_write = self._gateways_for_demand(
                demand.get(f"write:{chiplet_id}", 0.0),
                inventory.n_write_gateways,
            )
            fabric.set_active_chiplet_gateways(chiplet_id, n_write, n_read)
            decisions[chiplet_id] = n_read + n_write
        self._log(decisions)


class ProwavesController(EpochController):
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
        peak = (demand.get("mem_read", 0.0)
                / self.config.n_memory_write_gateways)
        for chiplet_id, inventory in self.fabric.inventories.items():
            peak = max(
                peak,
                demand.get(f"read:{chiplet_id}", 0.0)
                / inventory.n_read_gateways,
            )
            peak = max(
                peak,
                demand.get(f"write:{chiplet_id}", 0.0)
                / inventory.n_write_gateways,
            )
        n_lambda = self.config.n_wavelengths
        wanted = math.ceil(
            self.headroom * peak / self.config.wavelength_data_rate_bps
        )
        fraction = max(1, min(n_lambda, wanted)) / n_lambda
        self.fabric.set_wavelength_fraction(fraction)
        self._log(fraction)


class StaticController(EpochController):
    """No reconfiguration: all gateways and wavelengths always active.

    The fabric boots fully active; the epoch loop only drains the
    monitor so it does not grow.
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
