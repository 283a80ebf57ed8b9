"""Golden Fig.-1 characterization numbers.

``tests/dram/goldens/characterization.json`` pins the exact
per-condition ``(cycles, read nJ, write nJ)`` triples that
:func:`characterize` returns, as :meth:`float.hex` strings, for every
registered device x supported architecture under the default scenario
and for the default device x every architecture under three
non-default scenarios (FR-FCFS, closed-row and a two-requestor
round-robin channel).  The default scenario is served by the batch
kernel, the others by the object simulator, so the file pins both
backends.  Refactors of how characterization is dispatched may change
how ``characterize`` is called, never the numbers it returns.

Regenerate (only for an *intentional* change of the measured costs)
with::

    PYTHONPATH=src python tests/dram/test_characterization_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.dram.characterize import ALL_CONDITIONS, characterize
from repro.dram.contention import contention_config
from repro.dram.device import DEVICE_REGISTRY, default_device
from repro.dram.policies import controller_config

GOLDEN_PATH = Path(__file__).parent / "goldens" / "characterization.json"


def cases():
    """``(key, device, architecture, controller, contention)`` tuples."""
    for profile in DEVICE_REGISTRY:
        for architecture in profile.supported_architectures:
            yield (f"{profile.name}/{architecture.value}/default",
                   profile, architecture, None, None)
    device = default_device()
    for label, controller, contention in (
            ("fr-fcfs/open", controller_config("fr-fcfs", "open"), None),
            ("fcfs/closed", controller_config("fcfs", "closed"), None),
            ("2req/round-robin", None,
             contention_config(2, "round-robin"))):
        for architecture in device.supported_architectures:
            yield (f"{device.name}/{architecture.value}/{label}",
                   device, architecture, controller, contention)


def current_costs():
    """``{key: {condition: [cycles, read nJ, write nJ]}}`` as hex."""
    costs = {}
    for key, device, architecture, controller, contention in cases():
        result = characterize(architecture, device=device,
                              controller=controller,
                              contention=contention)
        costs[key] = {
            condition.value: [
                float(value).hex() for value in (
                    result.cost(condition).cycles,
                    result.cost(condition).read_energy_nj,
                    result.cost(condition).write_energy_nj)]
            for condition in ALL_CONDITIONS
        }
    return costs


def test_characterization_matches_golden():
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert current_costs() == expected


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN_PATH.write_text(
            json.dumps(current_costs(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {GOLDEN_PATH}")
