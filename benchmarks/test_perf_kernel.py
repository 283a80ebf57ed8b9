"""Speed gates for the vectorized batch characterization kernel.

Two gates, both measured after asserting exact result equality (a fast
path that returns different numbers is a bug, not a speedup):

* a full default-device characterization (all four architectures) on
  the kernel must be at least **10x** faster than the object
  simulator;
* one :func:`repro.dram.kernel.characterize_batch` pass per device of
  the registry must be at least **2x** faster than the equivalent
  per-triple ``characterize`` calls (each a one-architecture kernel
  batch) — the batch shares stream synthesis, classification and the
  architecture-invariant micro-experiment walks across a device's
  architectures.  Measured as the median of paired CPU-time ratios.

Run via ``make bench-kernel``.
"""

from __future__ import annotations

import statistics

from repro.core.report import format_table
from repro.dram.characterize import characterize, simulate_characterization
from repro.dram.device import DEVICE_REGISTRY, get_device
from repro.dram.kernel import characterize_batch
from repro.dram.scenario import Scenario
from repro.dram.simulator import DRAMSimulator

from ._timing import interleaved_best_of, paired_process_time_ratios


def test_kernel_at_least_10x_faster_than_simulator():
    """Full DDR3 device characterization, every architecture."""
    device = get_device("ddr3-1600-2gb-x8")
    architectures = device.supported_architectures

    def simulator_path():
        return [
            simulate_characterization(
                DRAMSimulator.from_profile(device, a), a,
                device_name=device.name)
            for a in architectures
        ]

    def kernel_path():
        return [characterize(a, device=device) for a in architectures]

    # Identical numbers first, then the stopwatch.
    for fast, slow in zip(kernel_path(), simulator_path()):
        assert fast == slow

    simulator_seconds, kernel_seconds = interleaved_best_of(
        3, simulator_path, kernel_path)

    speedup = simulator_seconds / kernel_seconds
    print()
    print(format_table(
        ["backend", "best of 3 [s]"],
        [["object simulator", f"{simulator_seconds:.4f}"],
         ["batch kernel", f"{kernel_seconds:.4f}"]],
        title="Full ddr3-1600-2gb-x8 characterization "
              "(4 architectures)"))
    print(f"kernel speedup: {speedup:.1f}x")
    assert kernel_seconds * 10 < simulator_seconds, (
        f"kernel {kernel_seconds:.4f}s is only "
        f"{speedup:.1f}x faster than the simulator "
        f"{simulator_seconds:.4f}s (gate: 10x)")


#: ABBA blocks (:func:`paired_process_time_ratios`) of the batch gate.
BLOCKS = 15


def repeat(path, times: int = 3):
    """Run ``path`` ``times`` times: one timed sample of the batch gate."""
    for _ in range(times):
        path()


def test_batch_at_least_2x_faster_than_per_triple_kernel():
    """Per-device batches vs one kernel call per (device, arch)."""
    items = [
        (device, architecture)
        for device in DEVICE_REGISTRY
        for architecture in device.supported_architectures
    ]

    def batch_path():
        return [
            result
            for device in DEVICE_REGISTRY
            for result in characterize_batch(
                Scenario.of(device),
                device.supported_architectures).values()
        ]

    def per_triple_path():
        return [
            characterize(architecture, device=device)
            for device, architecture in items
        ]

    # Identical numbers first, then the stopwatch.
    batch = batch_path()
    assert len(batch) == len(items)
    for result, expected in zip(batch, per_triple_path()):
        assert result == expected

    # Each sample repeats its path so it outlasts the machine's short
    # speed swings, which a single ~30 ms pass is exposed to.
    ratios = paired_process_time_ratios(
        BLOCKS, lambda: repeat(batch_path), lambda: repeat(per_triple_path))
    speedup = statistics.median(ratios)

    print()
    print(format_table(
        ["ABBA blocks", "triples", "median speedup"],
        [[str(BLOCKS), str(len(items)), f"{speedup:.2f}x"]],
        title="Device-registry characterization (every device x "
              "architecture): per-triple kernel calls / "
              "characterize_batch per device, CPU time"))
    assert speedup > 2, (
        f"the median batch speedup over {BLOCKS} blocks is "
        f"{speedup:.2f}x, under 2x")
