"""Micro-benchmarks of the simulation substrates.

Not paper artefacts — these track the performance of the DES kernel, the
photonic fabric, and the functional MAC unit so regressions in simulator
speed are visible.  The benchmark bodies are shared with
:mod:`repro.bench` (the ``python -m repro bench`` inline runner and the
``BENCH_sim.json`` baseline) so both measure exactly the same work.
"""

from repro.bench import (
    make_channel_contention,
    make_cluster_dispatch_throughput,
    make_continuous_decode_throughput,
    make_fidelity_des_reference,
    make_fidelity_fluid_path,
    make_functional_mac_matvec,
    make_hazard_timeline_reads,
    make_kernel_event_throughput,
    make_photonic_fabric_reads,
    make_resilience_retry_hedge,
    make_resipi_idle_epochs,
    make_sequence_fluid_path,
    make_serving_request_throughput,
    make_telemetry_null_recorder,
    make_warm_fork_sweep,
)


def test_bench_kernel_event_throughput(benchmark):
    """Schedule and fire 10k timeout events."""
    now = benchmark(make_kernel_event_throughput())
    assert now > 0


def test_bench_channel_contention(benchmark):
    """1000 contended transfers through one channel."""
    count = benchmark(make_channel_contention())
    assert count == 1000


def test_bench_photonic_fabric_reads(benchmark):
    """100 reads across the full interposer pipeline."""
    bits = benchmark(make_photonic_fabric_reads())
    assert bits > 0


def test_bench_functional_mac_matvec(benchmark):
    """Analog matvec through the device transfer functions."""
    result = benchmark(make_functional_mac_matvec())
    assert result.shape == (8,)


def test_bench_serving_request_throughput(benchmark):
    """~100 Poisson requests batched through the serving scheduler."""
    completed = benchmark(make_serving_request_throughput())
    assert completed > 0


def test_bench_telemetry_null_recorder(benchmark):
    """The serving benchmark under a metrics-only telemetry session."""
    completed = benchmark(make_telemetry_null_recorder())
    assert completed > 0


def test_bench_hazard_timeline_reads(benchmark):
    """Fabric reads under a capacity-mutating hazard timeline."""
    bits = benchmark(make_hazard_timeline_reads())
    assert bits > 0


def test_bench_resipi_idle_epochs(benchmark):
    """ReSiPI epochs over a fabric serving one small read per 50 us."""
    bits = benchmark(make_resipi_idle_epochs())
    assert bits > 0


def test_bench_cluster_dispatch_throughput(benchmark):
    """~400 Poisson requests routed across an 8-node fleet."""
    routed = benchmark(make_cluster_dispatch_throughput())
    assert routed > 0


def test_bench_resilience_retry_hedge(benchmark):
    """Timeout/retry/hedge lifecycle over a 2-node fleet."""
    completed = benchmark(make_resilience_retry_hedge())
    assert completed > 0


def test_bench_fidelity_des_reference(benchmark):
    """Full-DES baseline of the hybrid-fidelity reference cell."""
    completed = benchmark(make_fidelity_des_reference())
    assert completed > 0


def test_bench_fidelity_fluid_path(benchmark):
    """Warm-forked fluid evaluation of the same reference cell."""
    completed = benchmark(make_fidelity_fluid_path())
    assert completed > 0


def test_bench_warm_fork_sweep(benchmark):
    """6 hazard variants forked from one cold calibration."""
    completed = benchmark(make_warm_fork_sweep())
    assert completed > 0


def test_bench_continuous_decode_throughput(benchmark):
    """Transformer sequences through the continuous decode batcher."""
    tokens = benchmark(make_continuous_decode_throughput())
    assert tokens > 0


def test_bench_sequence_fluid_path(benchmark):
    """Warm fluid-fidelity evaluation of the decode benchmark cell."""
    tokens = benchmark(make_sequence_fluid_path())
    assert tokens > 0
