"""Golden per-request records for the example studies, plus the
Fig. 7 evaluation matrix.

Each serving pin is a SHA-256 over the exact ``repr`` of every request record
of every scheduler a study builds (the fidelity engine's calibration
runs included), in construction order, plus each cell's network
energy.  ``repr`` of a float round-trips exactly, so a digest only
matches when every timestamp of every record does.  Performance work
on the kernel, the fabric or the controllers must reproduce these bit
for bit; a deliberate change of simulation semantics re-pins them and
says why.

Simulated durations and fault times are scaled down together (the
``SCALES`` factor) so the whole file runs in a few seconds.  Network
energy is compared to 1e-12 relative rather than exactly: skipping a
same-value ``TimeWeightedValue.set`` only regroups the float sums of
the power integrals.

The ``classic`` pin is the plainest single-node point (one model,
default workload knobs, no faults, full DES).  It was computed when
such points still had a cell kind of their own, and must hold on the
shared single-node serving path.

The baseline fabrics are pinned too: ``cluster`` and ``resilience``
run fleets of monolithic CrossLight nodes, and ``elec`` and ``awgr``
serve a LeNet5/MobileNetV2 mix on the electrical mesh and the AWGR
interposer (MobileNetV2 brings multi-chunk messages and multicast reads
to up to 8 chiplets).  ``MATRIX_GOLDEN`` pins every cell of the Fig. 7
matrix (one-shot inference on CrossLight, 2.5D-Elec and 2.5D-SiPh) by
the ``repr`` of its result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.fidelity import clear_warm_store
from repro.experiments.runner import ExperimentRunner
from repro.experiments.serving_study import simulate_any_serving_cell
from repro.serving.scheduler import RequestScheduler
from repro.studies import StudySpec, lower_study

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

SCALED_KEYS = ("duration_s", "at_s")

SCALES = {
    "fault_serving": 0.75,
    "slo_sweep": 0.3,
    "study": 0.5,
    "transformer": 0.5,
    "telemetry": 1.0,
    "fidelity": 1.0,
    "transformer_fluid": 1.0,
    "cluster": 0.5,
    "resilience": 0.5,
}
"""Per example spec: factor on every simulated duration and fault time."""

_HAZARDS = {"events": [
    {"kind": "gateway-fail", "at_s": 300e-6, "memory_gateways": 3,
     "chiplet_gateways": [["dense100-0", 2, 1]]},
    {"kind": "ring-drift", "at_s": 400e-6, "duration_s": 300e-6,
     "temperature_rise_k": 8.0},
    {"kind": "laser-degradation", "at_s": 450e-6, "duration_s": 200e-6,
     "power_fraction": 0.5},
    {"kind": "gateway-repair", "at_s": 700e-6, "memory_gateways": 3,
     "chiplet_gateways": [["dense100-0", 2, 1]]},
]}


def controller_cell(controller: str) -> dict:
    """A small bursty LeNet5 serving study on one SiPh controller.

    Every hazard kind lands between bursts, inside idle epochs.
    """
    return {
        "schema": 7,
        "name": f"golden-{controller}",
        "kind": "serving",
        "workload": {
            "models": [{"model": "LeNet5", "fraction": 1.0}],
            "arrival": "mmpp",
            "burstiness": 4.0,
            "rate_rps": 40e3,
            "duration_s": 2e-3,
            "seed": 11,
        },
        "platform": {
            "name": "2.5D-CrossLight-SiPh",
            "controller": controller,
            "faults": _HAZARDS,
        },
    }


def classic_cell() -> dict:
    """Single-tenant LeNet5 under max-batch on SiPh/ReSiPI, DES only."""
    return {
        "schema": 7,
        "name": "golden-classic",
        "kind": "serving",
        "workload": {
            "models": [{"model": "LeNet5", "fraction": 1.0}],
            "rate_rps": 50e3,
            "duration_s": 1e-3,
        },
        "platform": {"name": "2.5D-CrossLight-SiPh", "controller": "resipi"},
        "scheduler": {"policy": "max-batch", "max_batch": 4},
    }


def baseline_cell(platform: str) -> dict:
    """A LeNet5/MobileNetV2 mix on one non-SiPh 2.5D interposer."""
    return {
        "schema": 7,
        "name": f"golden-{platform}",
        "kind": "serving",
        "workload": {
            "models": [{"model": "LeNet5", "fraction": 0.7},
                       {"model": "MobileNetV2", "fraction": 0.3}],
            "rate_rps": 20e3,
            "duration_s": 1e-3,
            "seed": 5,
        },
        "platform": {"name": platform},
    }


BASELINE_CELLS = {
    "elec": "2.5D-CrossLight-Elec",
    "awgr": "2.5D-CrossLight-AWGR",
}

GOLDEN = {
    # name: (records, sha256 of their reprs, network energy per cell)
    "fault_serving": (
        98,
        "bc21394bc1455d9ad9ab71e4edaa920eda4635abd2d9c6a48ab85ac9fe539df0",
        [0.03738621147928259, 0.03696464926410177],
    ),
    "slo_sweep": (
        170,
        "47c0c884a032e83ac0875be59c9b1f5fbfaecac8419b82a33781aed0202c2c05",
        [0.013639308943290277, 0.02617133104047021,
         0.013930462290339445, 0.027707769826492923],
    ),
    "study": (
        28,
        "788a7ccfe612b9628de3cdaac5054a1cbef27990bb823e17ba7fd486dc398d9c",
        [0.05700475982949644, 0.05706964216042534],
    ),
    "transformer": (
        48,
        "0869b2ffcf20d7dbdb37cf60a6a372958806155a4635a20137b98ce26c76737e",
        [0.009236539870782146, 0.009505797394252335,
         0.009236539890182147, 0.009766678514121753],
    ),
    "telemetry": (
        37,
        "0181103a60787422b4d526e4ad204c2acc8b5bb1b897edd5ce6a05ca3e702382",
        [0.01996323482461983],
    ),
    "fidelity": (
        33,
        "957a41285b9be286e52fe460a8a0442f9bc7fc11ee8d28cca2045fd3afb8dc5f",
        [0.02581569551179378] * 3,
    ),
    "transformer_fluid": (
        99,
        "ee5b7f9ef52ebc09b9c3e23aa7f225dcadae56c72081179b3c15b5127521aa95",
        [0.03501579437537745, 0.03308615144238549, 0.03377529639430663],
    ),
    # prowaves and static re-raise the gateways the fail capped once the
    # repair lands (700 us); every record that arrived before is as it
    # was pinned before that fix.
    "prowaves": (
        103,
        "cb418090c5a5a3bab8b690d9add8cd937a542fdac8fc617cc5c87590d69a4074",
        [0.016772791224037128],
    ),
    "static": (
        103,
        "8d46c76130d18f3e4bf38788e8f9f7e44f66a62bd606d4578013424731081daa",
        [0.13731587267824788],
    ),
    "classic": (
        53,
        "c0a2a2a3db4891e9288d8f7bd2e7f407684a50d83bd60c2438d17b911d3997b6",
        [0.018524230776339724],
    ),
    "cluster": (
        345,
        "e23609fee28b9737cc0d1ab8f02080b1414a86d94cbfe2ab73f2d89bba64ee58",
        [0.037491488695424256, 0.0434561478549092, 0.10989422163990978],
    ),
    "resilience": (
        309,
        "eed75ed606ed89c272f19b3076dd75c368bf94d6cc13378f1e9e3c01e47068d0",
        [0.004530426180072038, 0.004530742720872037,
         0.004530742720872037, 0.004530742720872037],
    ),
    "elec": (
        24,
        "1cdf7f79d8260fd59d54e544bd13100fa009f7764d078c8a375e5347dcb82bb6",
        [0.36454952999954393],
    ),
    "awgr": (
        24,
        "d83e34736d56dc2d1435dedbef4b6426747211283f0c843e0ed54eb4d54a0529",
        [0.09254592576423655],
    ),
}

MATRIX_GOLDEN = {
    ('CrossLight', 'LeNet5'):
        "00debfce3e8394e1ccf6d25266dc1df3e15e1bb96371b12bef1c2102b843b508",
    ('CrossLight', 'ResNet50'):
        "27e181db3a9d4764d0e0b4d94368cb9a2b5131cac608288283ab0ed9b31e0fc5",
    ('CrossLight', 'DenseNet121'):
        "ac61107c09ca6e6158ca1230f7fec945da1246503316131771dd51c6ce90e497",
    ('CrossLight', 'VGG16'):
        "f2cece52cbc08c1c28c69aba2fd8bcdcc9d69eb0b6338db4381353cb9d6faa1d",
    ('CrossLight', 'MobileNetV2'):
        "21d790374ece58177555b394f9484fa63d9365dccb5d7417b177232466a4bbee",
    ('2.5D-CrossLight-Elec', 'LeNet5'):
        "99ecb80d120aa5c40e529b2f397bba764115e5633e1cbb3b592aefe4004646ba",
    ('2.5D-CrossLight-Elec', 'ResNet50'):
        "1310fe8ac91c0424a489bfbe1f72e9ffcb7044a3911bb51bc4545092f7a02d9f",
    ('2.5D-CrossLight-Elec', 'DenseNet121'):
        "e4c070d7547491bd56f7dde42740b35a51ef3782490e5705d21dde46a758d32c",
    ('2.5D-CrossLight-Elec', 'VGG16'):
        "be506f92ddfe2039b1a26cd28fc4e1a3b09981547906e37eb06f8bbc254543fc",
    ('2.5D-CrossLight-Elec', 'MobileNetV2'):
        "ff2814bcca3c7826e4665ecd2a21fcf68e157289040189d241b1a80daf24bd42",
    ('2.5D-CrossLight-SiPh', 'LeNet5'):
        "ca5b3a36288eda3dfc790aab1d1e7fa817f5d23141ba238f149f7dbde7151cbb",
    ('2.5D-CrossLight-SiPh', 'ResNet50'):
        "755b91e5990692cc16d8223ffe193bc9223927b3dbb413f076dfb4dbaaf21a77",
    ('2.5D-CrossLight-SiPh', 'DenseNet121'):
        "b09384fdbf9ff626f8e2ee216f5f0aee2a7f433740df2b9faa1d5fdeaa06b122",
    ('2.5D-CrossLight-SiPh', 'VGG16'):
        "a182f6fb67e5792104cd2c54f1f25a8bfc33661ffe480fe79806c2ed70e562d8",
    ('2.5D-CrossLight-SiPh', 'MobileNetV2'):
        "370276eecb32edf60cb72a03da036e96464483fde74d6e16d42cc1d9eee8e5e6",
}
"""(platform, model) -> sha256 of the cell's :func:`result_repr`."""


def scaled(data, factor: float):
    """A copy of a spec's JSON with every simulated time times ``factor``."""
    if isinstance(data, dict):
        return {
            key: (value * factor
                  if key in SCALED_KEYS and isinstance(value, (int, float))
                  else scaled(value, factor))
            for key, value in data.items()
        }
    if isinstance(data, list):
        return [scaled(value, factor) for value in data]
    return data


def study_data(name: str) -> dict:
    if name in SCALES:
        data = json.loads((EXAMPLES / f"{name}_spec.json").read_text())
        return scaled(data, SCALES[name])
    if name == "classic":
        return classic_cell()
    if name in BASELINE_CELLS:
        return baseline_cell(BASELINE_CELLS[name])
    return controller_cell(name)


def record_digest(data: dict, monkeypatch) -> tuple[int, str, list]:
    """(record count, digest, per-cell network energy) of one study."""
    built: list = []
    original = RequestScheduler.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RequestScheduler, "__init__", init)
    # Calibration runs count only when cold: no checkpoint may leak in.
    clear_warm_store()
    _, cells = lower_study(StudySpec.from_dict(data))
    digest = hashlib.sha256()
    count = 0
    energies = []
    for group in cells:
        for cell in group:
            built.clear()
            energies.append(simulate_any_serving_cell(cell).network_energy_j)
            for scheduler in built:
                for record in scheduler.records:
                    digest.update(repr(record).encode())
                    digest.update(b"\n")
                    count += 1
    return count, digest.hexdigest(), energies


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_match_golden(name, monkeypatch):
    count, digest, energies = record_digest(study_data(name), monkeypatch)
    golden_count, golden_digest, golden_energies = GOLDEN[name]
    assert count == golden_count
    assert digest == golden_digest
    assert energies == pytest.approx(golden_energies, rel=1e-12, abs=0.0)


def test_every_example_is_pinned():
    """A new example spec must be pinned here as well."""
    examples = {
        path.name[:-len("_spec.json")]
        for path in EXAMPLES.glob("*_spec.json")
    }
    assert examples == set(SCALES)
    assert set(GOLDEN) == (
        set(SCALES) | set(BASELINE_CELLS) | {"prowaves", "static", "classic"}
    )


def result_repr(result) -> str:
    """Full-precision ``repr`` of one inference result.

    The layer timeline enters as tuples of its timing fields rather
    than as record reprs, so the pin follows the simulated times, not
    the record class's field list.
    """
    timeline = tuple(
        (t.name, t.start_s, t.compute_done_s, t.end_s, t.chiplets,
         t.vector_ops)
        for t in result.layer_timeline
    )
    return repr(dataclasses.replace(result, layer_timeline=timeline))


def test_fig7_matrix_matches_golden():
    results = ExperimentRunner().run_matrix(jobs=1)
    digests = {
        key: hashlib.sha256(result_repr(result).encode()).hexdigest()
        for key, result in results.items()
    }
    assert digests == MATRIX_GOLDEN
