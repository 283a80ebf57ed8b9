"""Golden pin of the sensitivity sweeps, bit for bit.

Every :class:`~repro.core.sweep.SweepPoint` float is compared through
``float.hex``: a sweep must report exactly the minimum EDP the
reference per-tiling loop (scalar :func:`repro.core.edp.layer_edp` over
:func:`repro.cnn.tiling.enumerate_tilings`) produced when these values
were captured, whichever evaluation path the sweep takes today.
"""

from __future__ import annotations

import pytest

from repro.core.sweep import (
    sweep_batch,
    sweep_buffers,
    sweep_network_batch,
    sweep_precision,
    sweep_subarrays,
)
from repro.dram.policies import controller_config
from repro.workloads import get_workload


def conv2(batch=1, bytes_per_element=1):
    """AlexNet CONV2 at the given batch and precision."""
    return get_workload("alexnet", batch=batch,
                        bytes_per_element=bytes_per_element).lower()[1]


def hexed(points):
    return [(point.parameter, point.value, point.drmap_edp_js.hex(),
             point.worst_edp_js.hex()) for point in points]


SWEEPS = {
    "subarrays": lambda **kw: sweep_subarrays(
        conv2(), subarray_counts=(1, 8), **kw),
    "buffers": lambda **kw: sweep_buffers(
        conv2(), sizes_kb=(32, 128), **kw),
    "precision": lambda **kw: sweep_precision(
        lambda bpe: conv2(bytes_per_element=bpe),
        bytes_per_element=(1, 2), **kw),
    "batch": lambda **kw: sweep_batch(
        lambda batch: conv2(batch=batch), batches=(1, 2), **kw),
}

GOLDEN = {
    ("subarrays", "default"): [
        ("subarrays_per_bank", 1,
         "0x1.007bb84f4540fp-25", "0x1.007bb84f4540fp-25"),
        ("subarrays_per_bank", 8,
         "0x1.fcd0760cfd9ddp-26", "0x1.ab8f1cbcd9e40p-24"),
    ],
    ("buffers", "default"): [
        ("buffer_kb", 32, "0x1.5cb94a38b5d55p-24", "0x1.7c158da4ac105p-19"),
        ("buffer_kb", 128, "0x1.00750690cc2d9p-25", "0x1.1f1cf6b257f68p-20"),
    ],
    ("precision", "default"): [
        ("bytes_per_element", 1,
         "0x1.007bb84f4540fp-25", "0x1.1f1b6a830f3efp-20"),
        ("bytes_per_element", 2,
         "0x1.5c3c27af73312p-22", "0x1.7be67fb22d6d8p-17"),
    ],
    ("batch", "default"): [
        ("batch", 1, "0x1.007bb84f4540fp-25", "0x1.1f1b6a830f3efp-20"),
        ("batch", 2, "0x1.007bb84f4540fp-23", "0x1.1f1b6a830f3efp-18"),
    ],
    ("subarrays", "fr-fcfs"): [
        ("subarrays_per_bank", 1,
         "0x1.fa9700474f027p-26", "0x1.fa9700474f027p-26"),
        ("subarrays_per_bank", 8,
         "0x1.fb4c89547871fp-26", "0x1.aac5d5fe6386dp-24"),
    ],
    ("buffers", "fr-fcfs"): [
        ("buffer_kb", 32, "0x1.5a58834a92eb9p-24", "0x1.7baeb4d0d9bd9p-19"),
        ("buffer_kb", 128, "0x1.ffbd0863f9029p-26", "0x1.1f0330669ba68p-20"),
    ],
    ("precision", "fr-fcfs"): [
        ("bytes_per_element", 1,
         "0x1.ff724feb3f8b8p-26", "0x1.1ef9fe31c5cd6p-20"),
        ("bytes_per_element", 2,
         "0x1.5b0bb6c1104c2p-22", "0x1.7bb314b39d941p-17"),
    ],
    ("batch", "fr-fcfs"): [
        ("batch", 1, "0x1.ff724feb3f8b8p-26", "0x1.1ef9fe31c5cd6p-20"),
        ("batch", 2, "0x1.ff724feb3f8b8p-24", "0x1.1ef9fe31c5cd6p-18"),
    ],
}

SCENARIOS = {
    "default": None,
    "fr-fcfs": controller_config("fr-fcfs", "open"),
}


@pytest.mark.parametrize("sweep,scenario", sorted(GOLDEN))
def test_layer_sweep_hex_identical(sweep, scenario):
    points = SWEEPS[sweep](controller=SCENARIOS[scenario])
    assert hexed(points) == GOLDEN[sweep, scenario]


def test_network_batch_sweep_hex_identical():
    points = sweep_network_batch("lenet5", batches=(1, 2))
    assert hexed(points) == [
        ("lenet5:batch", 1, "0x1.05ac5a325348ap-32", "0x1.0b73c13c53004p-27"),
        ("lenet5:batch", 2, "0x1.05ac5a325348ap-30", "0x1.0b73c13c53004p-25"),
    ]


def test_strategy_sweep_hex_identical():
    """The non-exhaustive branch: a seeded random search over each
    one-policy slice recovers the exhaustive optimum on this layer."""
    points = sweep_buffers(conv2(), sizes_kb=(32, 128), strategy="random",
                           seed=3)
    assert hexed(points) == GOLDEN["buffers", "default"]
