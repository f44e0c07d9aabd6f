"""Monolithic CrossLight baseline (the original single-chip design [21]).

The monolithic accelerator keeps every VDP (vector-dot-product) unit on
one large die:

* operands move over a global **on-chip electrical NoC** from a central
  buffer (native broadcast: one stream feeds all units),
* weights stream from **off-package DRAM** (no HBM chiplet),
* rings are held on resonance with **thermo-optic trimming** and the
  long on-die waveguides raise the compute laser budget — the sources of
  the "relatively low energy efficiency" the paper attributes to it.

The fabric below plugs into the same :class:`InferenceEngine`; a
single-pseudo-chiplet mapping puts every layer on the whole VDP array.
Each message is one :class:`~repro.interposer.base.ChunkStage`: its
chunks stream one at a time through the NoC or the DRAM channel.
"""

from __future__ import annotations

from ..config import PlatformConfig
from ..dnn.workload import InferenceWorkload
from ..interposer.base import (
    DEFAULT_CHUNK_BITS,
    ChunkStage,
    InterposerFabric,
    NetworkEnergyReport,
)
from ..mapping.mapper import Allocation, LayerMapping, ModelMapping
from ..mapping.tiling import tile_layer
from ..power import params as ep
from ..sim.core import Environment, Event
from ..sim.resources import BandwidthChannel

MONO_CHIPLET_ID = "mono-0"
ONCHIP_AVG_WIRE_MM = 10.0
"""Average on-die NoC traversal distance for the 20 mm die."""


class MonolithicFabric(InterposerFabric):
    """Global buffer NoC + DRAM weight port of the single-chip design."""

    def __init__(self, env: Environment, config: PlatformConfig,
                 chunk_bits: float = DEFAULT_CHUNK_BITS):
        super().__init__(env)
        self.config = config
        self.chunk_bits = chunk_bits
        self.noc_channel = BandwidthChannel(
            env, config.mono_noc_bandwidth_bps, name="mono-noc"
        )
        self.dram_channel = BandwidthChannel(
            env, config.mono_dram_bandwidth_bps, name="mono-dram"
        )
        self.weight_bits_moved = 0.0

    def iter_channels(self):
        yield self.noc_channel
        yield self.dram_channel

    def _stream(self, channel: BandwidthChannel, bits: float) -> Event:
        """One message through ``channel``: a bootstrap hop, then its
        chunks one after another; an empty one ends one hop later."""
        env = self.env
        done = Event(env)
        chunks = self._chunks(bits)
        if chunks:
            env.call_soon(ChunkStage(env, channel, chunks, done=done).start)
        else:
            env.call_soon(done.succeed)
        return done

    def read(self, dst_chiplet: str, bits: float,
             multicast: tuple[str, ...] | None = None) -> Event:
        # On-die broadcast is native: multicast costs one stream.
        self.bits_read += bits
        return self._stream(self.noc_channel, bits)

    def write(self, src_chiplet: str, bits: float) -> Event:
        self.bits_written += bits
        return self._stream(self.noc_channel, bits)

    def read_weights(self, dst_chiplet: str, bits: float) -> Event:
        self.weight_bits_moved += bits
        return self._stream(self.dram_channel, bits)

    @property
    def total_bits_moved(self) -> float:
        return self.bits_read + self.bits_written + self.weight_bits_moved

    def energy_report(self) -> NetworkEnergyReport:
        elapsed = self.env.now
        noc_bits = self.bits_read + self.bits_written
        noc_j = noc_bits * (
            ep.ONCHIP_WIRE_ENERGY_J_PER_BIT_PER_MM * ONCHIP_AVG_WIRE_MM
            + ep.SRAM_BUFFER_ENERGY_J_PER_BIT * 2.0
        )
        dram_j = self.weight_bits_moved * ep.DDR_ENERGY_J_PER_BIT
        static_j = ep.DDR_PHY_STATIC_POWER_W * elapsed
        return NetworkEnergyReport(
            elapsed_s=elapsed,
            static_energy_j=static_j,
            dynamic_energy_j=noc_j + dram_j,
            breakdown_j={
                "onchip_noc": noc_j,
                "dram": dram_j,
                "dram_phy_static": static_j,
            },
        )


def monolithic_mapping(workload: InferenceWorkload,
                       config: PlatformConfig) -> ModelMapping:
    """Map every layer onto the whole homogeneous VDP array."""
    layer_mappings = []
    for layer in workload:
        tiling = tile_layer(layer, config.mono_vector_length)
        allocation = Allocation(
            chiplet_id=MONO_CHIPLET_ID,
            kind="mono-vdp",
            n_macs=config.mono_n_vdp_units,
            vector_length=config.mono_vector_length,
            vector_ops=tiling.vector_ops,
            weight_bits=layer.weight_bits,
            output_bits=layer.output_bits,
        )
        layer_mappings.append(
            LayerMapping(layer=layer, allocations=(allocation,),
                         tiling=tiling)
        )
    return ModelMapping(workload=workload, layers=tuple(layer_mappings))
