"""The benchmark's workloads: which DSE requests each one makes.

A request is plain data (names, not repro objects), so the driver can
list and permute requests without importing the program; the measured
process turns each one into ``explore_network`` arguments through the
public API only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Request:
    """One ``ExplorationEngine.explore_network`` call."""

    model: str
    device: str
    scheduler: str = "fcfs"
    row_policy: str = "open"
    requestors: int = 1
    arbiter: str = "round-robin"
    strategy: str = "exhaustive"

    @property
    def key(self) -> str:
        """Stable identity; the reference is keyed on it, not on order."""
        return (f"{self.model}@{self.device}/{self.scheduler}-"
                f"{self.row_policy}/{self.requestors}x{self.arbiter}/"
                f"{self.strategy}")

    def explore_kwargs(self) -> Dict:
        """Keyword arguments of ``explore_network`` (imports repro)."""
        from repro.dram import contention_config, controller_config, \
            get_device

        return {
            "device": get_device(self.device),
            "controller": controller_config(self.scheduler,
                                            self.row_policy),
            "contention": contention_config(self.requestors,
                                            self.arbiter),
            "strategy": self.strategy,
        }


@dataclass(frozen=True)
class Workload:
    """A named request set and the store state it must run against.

    Why each workload exists is recorded in ``BENCHMARK.json``.

    ``warm`` workloads read every characterization from an on-disk
    store filled during untimed set-up; cold ones start each measured
    process with an empty store and must characterize (and write)
    everything themselves.
    """

    name: str
    warm: bool
    requests: Tuple[Request, ...]

    def order(self, seed: int) -> List[int]:
        """Indices of the requests in the order ``seed`` chooses."""
        order = list(range(len(self.requests)))
        random.Random(seed).shuffle(order)
        return order


_DDR3 = "ddr3-1600-2gb-x8"

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="paper-cnn",
            warm=True,
            requests=tuple(Request(model, _DDR3)
                           for model in ("alexnet", "vgg16", "resnet18")),
        ),
        Workload(
            name="scenario-cold",
            warm=False,
            requests=(
                Request("alexnet", _DDR3, scheduler="fr-fcfs"),
                Request("alexnet", _DDR3, row_policy="closed"),
                Request("alexnet", _DDR3, requestors=2),
                Request("alexnet", _DDR3, requestors=4,
                        arbiter="age-based"),
            ),
        ),
        Workload(
            name="funnel-devices",
            warm=True,
            requests=tuple(
                Request(model, device, strategy="funnel")
                for model in ("bert-encoder", "mobilenetv2")
                for device in ("ddr4-2400", "lpddr4-3200", "hbm2")),
        ),
    )
}
