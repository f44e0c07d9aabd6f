"""Watch ReSiPI reconfigure the photonic interposer during inference.

Assembles the simulation stack by hand (environment, floorplan, fabric,
ReSiPI controller, engine) so the controller's decision log (one
entry per change of decision) stays accessible, runs MobileNetV2, and prints how the number of active
gateways tracked the traffic — the mechanism behind the paper's power
savings on small models.

Run:  python examples/interposer_reconfiguration.py
"""

from repro.config import DEFAULT_PLATFORM
from repro.core.engine import InferenceEngine
from repro.dnn import zoo
from repro.dnn.workload import extract_workload
from repro.interposer.photonic.controllers import ReSiPIController
from repro.interposer.photonic.fabric import PhotonicInterposerFabric
from repro.interposer.topology import build_floorplan
from repro.mapping.mapper import KernelMatchMapper
from repro.sim.core import Environment


def main():
    config = DEFAULT_PLATFORM
    workload = extract_workload(zoo.build("MobileNetV2"))

    env = Environment()
    floorplan = build_floorplan(config)
    fabric = PhotonicInterposerFabric(env, config, floorplan)
    controller = ReSiPIController(env, fabric, config)
    mapping = KernelMatchMapper(config, floorplan).map_workload(workload)
    engine = InferenceEngine(env, config, fabric)

    latency = engine.run(mapping)
    print(f"MobileNetV2 on 2.5D-CrossLight-SiPh: {latency * 1e3:.3f} ms, "
          f"{fabric.reconfiguration_count} reconfigurations, "
          f"{fabric.pcmc_energy_j * 1e9:.1f} nJ of PCMC switching energy\n")

    # The log holds one entry per decision change; down-sample it.
    log = controller.decision_log
    epochs = round(env.now / config.resipi_epoch_s)
    step = max(1, len(log) // 24)
    print(f"{'change':>7}{'mem gw':>8}{'total chiplet gw':>18}")
    print("-" * 33)
    for index in range(0, len(log), step):
        decisions = log[index]
        chiplet_total = sum(
            count for key, count in decisions.items() if key != "mem"
        )
        print(f"{index:>7}{decisions['mem']:>8}{chiplet_total:>18}")

    peak_mem = max(d["mem"] for d in log)
    print(f"\npeak memory gateways: {peak_mem} / "
          f"{config.n_memory_write_gateways}")
    print(f"decision changes: {len(log)} over {epochs} epochs")


if __name__ == "__main__":
    main()
