"""Property tests for the single-node serving path.

Every single-node serving point lowers to one ``ScenarioCell`` and runs
through ``simulate_scenario_cell``; whatever the tenant mix, policy,
arrival process, rate or seed, its result must conserve requests, keep
every record's timestamps in order and report bounded utilisation and
non-negative energy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.serving_study import (
    ScenarioCell,
    simulate_scenario_cell,
)
from repro.studies import StudySpec, lower_study

CNN_MODELS = ("LeNet5", "MobileNetV2")


@st.composite
def serving_points(draw) -> StudySpec:
    """One short serving point on the photonic platform."""
    tenants = draw(st.lists(
        st.sampled_from(CNN_MODELS), min_size=1, max_size=2, unique=True,
    ))
    first = draw(st.sampled_from((0.3, 0.5, 0.7)))
    fractions = [1.0] if len(tenants) == 1 else [first, 1.0 - first]
    policy = draw(st.sampled_from(("fifo", "max-batch", "edf")))
    scheduler = {"policy": policy}
    if policy == "max-batch":
        scheduler["max_batch"] = 4
    return StudySpec.from_dict({
        "name": "property",
        "kind": "serving",
        "workload": {
            "models": [
                {"model": model, "fraction": fraction}
                for model, fraction in zip(tenants, fractions)
            ],
            "arrival": draw(st.sampled_from(("poisson", "mmpp"))),
            "rate_rps": draw(st.floats(min_value=20e3, max_value=200e3)),
            "duration_s": 0.2e-3,
            "seed": draw(st.integers(min_value=0, max_value=2**16)),
        },
        "platform": {"name": "2.5D-CrossLight-SiPh"},
        "scheduler": scheduler,
    })


@settings(max_examples=15, deadline=None)
@given(serving_points())
def test_single_node_serving_invariants(spec):
    (cell,), = lower_study(spec)[1]
    assert isinstance(cell, ScenarioCell)
    records: list = []
    result = simulate_scenario_cell(cell, record_sink=records)

    assert result.requests_injected == (
        result.requests_completed + result.requests_shed
    )
    assert len(records) == result.requests_injected
    for record in records:
        if not record.dropped:
            assert record.arrival_s <= record.dispatch_s <= record.finish_s
    assert 0.0 <= result.mean_compute_utilization <= 1.0
    assert result.network_energy_j >= 0.0
    assert result.compute_energy_j >= 0.0
    assert sum(stats.completed for stats in result.per_model) == (
        result.requests_completed
    )
