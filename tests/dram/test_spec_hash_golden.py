"""Golden on-disk store keys.

``tests/dram/goldens/spec_hashes.json`` pins :func:`spec_hash` for
every registered device x supported architecture under five
scenarios.  A store entry is found by its hash, so any drift here
orphans every warm store on disk: refactors of the key may change
how ``spec_hash`` is called, never the values it returns.

Regenerate (only for an *intentional* store-format change, together
with a ``STORE_FORMAT_VERSION`` bump) with::

    PYTHONPATH=src python tests/dram/test_spec_hash_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.dram.contention import contention_config
from repro.dram.device import DEVICE_REGISTRY
from repro.dram.policies import controller_config
from repro.dram.scenario import Scenario
from repro.dram.store import spec_hash

GOLDEN_PATH = Path(__file__).parent / "goldens" / "spec_hashes.json"


def scenarios():
    """``(label, controller, contention)`` of the pinned scenarios."""
    return (
        ("default", controller_config(), contention_config()),
        ("fr-fcfs/open", controller_config("fr-fcfs", "open"),
         contention_config()),
        ("fcfs/closed", controller_config("fcfs", "closed"),
         contention_config()),
        ("2req/round-robin", controller_config(),
         contention_config(2, "round-robin")),
        ("4req/age-based", controller_config(),
         contention_config(4, "age-based")),
    )


def current_hashes():
    """``{"device/architecture/scenario": spec_hash}`` as computed now."""
    hashes = {}
    for profile in DEVICE_REGISTRY:
        for architecture in profile.supported_architectures:
            for label, controller, contention in scenarios():
                key = f"{profile.name}/{architecture.value}/{label}"
                hashes[key] = spec_hash(
                    Scenario.of(profile, controller=controller,
                                contention=contention),
                    architecture)
    return hashes


def test_spec_hashes_match_golden():
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert current_hashes() == expected


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN_PATH.write_text(
            json.dumps(current_hashes(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {GOLDEN_PATH}")
