"""Result records produced by the inference engines."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.resources import ChannelStat


@dataclass(frozen=True)
class LayerTiming:
    """Timeline entry for one executed layer."""

    name: str
    start_s: float
    compute_done_s: float
    end_s: float
    chiplets: tuple[str, ...]
    vector_ops: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy by subsystem for one inference (J)."""

    network_static_j: float
    network_dynamic_j: float
    compute_static_j: float
    compute_dynamic_j: float
    logic_static_j: float
    detail_j: dict[str, float] = field(default_factory=dict)

    @property
    def total_j(self) -> float:
        return (
            self.network_static_j
            + self.network_dynamic_j
            + self.compute_static_j
            + self.compute_dynamic_j
            + self.logic_static_j
        )


@dataclass(frozen=True)
class InferenceResult:
    """Complete outcome of one simulated inference."""

    platform: str
    model: str
    latency_s: float
    energy: EnergyBreakdown
    traffic_bits: float
    layer_timeline: tuple[LayerTiming, ...]
    reconfigurations: int = 0
    batch_size: int = 1
    channel_stats: tuple[ChannelStat, ...] = ()
    """Per-channel utilization snapshot; travels with pickled results so
    runs executed in worker processes stay debuggable."""

    def busiest_channels(self, n: int = 5) -> tuple[ChannelStat, ...]:
        """The ``n`` highest-utilization channels of the run."""
        ranked = sorted(
            self.channel_stats, key=lambda s: s.utilization, reverse=True
        )
        return tuple(ranked[:n])

    @property
    def total_energy_j(self) -> float:
        return self.energy.total_j

    @property
    def latency_per_inference_s(self) -> float:
        """Amortised per-image latency at the run's batch size."""
        return self.latency_s / self.batch_size

    @property
    def throughput_inferences_per_s(self) -> float:
        """Sustained inference rate of the batch run."""
        if self.latency_s <= 0:
            return 0.0
        return self.batch_size / self.latency_s

    @property
    def average_power_w(self) -> float:
        if self.latency_s <= 0:
            return 0.0
        return self.total_energy_j / self.latency_s

    @property
    def energy_per_bit_j(self) -> float:
        """Energy per bit of data moved across the network (the paper's
        EPB metric)."""
        if self.traffic_bits <= 0:
            return 0.0
        return self.total_energy_j / self.traffic_bits

    def summary_row(self) -> str:
        """One formatted line: platform, model, power, latency, EPB."""
        return (
            f"{self.platform:<28}{self.model:<14}"
            f"{self.average_power_w:>9.2f} W"
            f"{self.latency_s * 1e3:>12.4f} ms"
            f"{self.energy_per_bit_j * 1e9:>10.3f} nJ/b"
        )
