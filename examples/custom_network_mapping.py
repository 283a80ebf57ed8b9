#!/usr/bin/env python3
"""Apply the DSE to a custom network and accelerator configuration.

Run with::

    python examples/custom_network_mapping.py

Shows the full public API surface a downstream user touches when
bringing their own workload:

* define layers with :class:`repro.ConvLayer` (convs and FCs),
* size the on-chip buffers with :class:`repro.cnn.BufferConfig`,
* run Algorithm 1 and inspect the winning design points,
* extract the energy/latency pareto front of the design space.
"""

from repro import ConvLayer
from repro.cnn import BufferConfig
from repro.core import ExplorationEngine, pareto_front, points_from_dse
from repro.core.report import format_table
from repro.dram import DRAMArchitecture


def build_custom_network():
    """A small edge-vision backbone (not from the paper)."""
    conv = ConvLayer.conv
    return [
        conv("STEM", (3, 64, 64), 16, kernel=3, stride=2, padding=1),
        conv("BLOCK1", (16, 32, 32), 32, kernel=3, padding=1),
        conv("BLOCK2", (32, 16, 16), 64, kernel=3, padding=1),
        conv("BLOCK3", (64, 8, 8), 128, kernel=3, padding=1),
        ConvLayer.fully_connected("HEAD", 128 * 8 * 8, 10),
    ]


def main() -> None:
    # A smaller accelerator than Table II: 32 KB per buffer.
    buffers = BufferConfig(
        ifms_bytes=32 * 1024,
        wghs_bytes=32 * 1024,
        ofms_bytes=32 * 1024,
    )

    engine = ExplorationEngine()
    rows = []
    all_points = []
    for layer in build_custom_network():
        result = engine.explore_layer(
            layer,
            architectures=(DRAMArchitecture.SALP_MASA,),
            buffers=buffers,
        )
        all_points.extend(result.points)
        best = result.best()
        rows.append([
            layer.name, layer.describe().split(": ", 1)[1],
            best.policy.name, best.result.resolved_scheme.value,
            f"{best.edp_js:.3e}",
        ])
    print(format_table(
        ["layer", "shape", "best mapping", "schedule", "min EDP [J*s]"],
        rows,
        title="Custom network on SALP-MASA with 32 KB buffers"))

    front = pareto_front(points_from_dse(all_points))
    print()
    print(f"Design space: {len(all_points)} points, "
          f"{len(front)} on the energy/latency pareto front.")
    knee = min(front,
               key=lambda p: p.energy_nj * p.latency_ns)
    print(f"Knee point: {knee.payload.layer_name} / "
          f"{knee.payload.policy.name} / "
          f"{knee.payload.scheme.value} "
          f"(E={knee.energy_nj:.3e} nJ, T={knee.latency_ns:.3e} ns)")


if __name__ == "__main__":
    main()
