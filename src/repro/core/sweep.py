"""Sensitivity sweeps over model parameters.

The paper fixes one configuration (Table II); these utilities vary one
parameter at a time — subarrays per bank, buffer capacity, batch size,
data precision, DRAM speed grade — and report how the minimum EDP and
DRMap's advantage respond.  :func:`sweep_network_batch` lifts the
batch sweep to whole workload graphs from the
:mod:`repro.workloads` registry.  They power the ablation benchmarks and
give downstream users a one-call sensitivity analysis for their own
design points.

All sweeps accept a ``device`` profile (default: the paper's Table-II
device).  Each sweep value is one Algorithm-1 exploration per mapping
policy on a :class:`repro.core.engine.ExplorationEngine`, restricted
to that policy, the architecture and the scheme; the engine fetches
characterizations through the process-wide
:data:`repro.dram.characterize.DEFAULT_CHARACTERIZATION_CACHE`, and
one engine serves every exploration of a sweep call, so its
evaluation memo is shared across policies and values.

Example
-------
>>> from repro.workloads import get_workload
>>> layer = get_workload("alexnet").lower()[1]
>>> points = sweep_subarrays(layer, subarray_counts=(1, 8))
>>> [p.value for p in points]
[1, 8]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..cnn.layer import ConvLayer
from ..cnn.scheduling import ReuseScheme
from ..cnn.tiling import BufferConfig, TABLE2_BUFFERS
from ..dram.architecture import DRAMArchitecture
from ..dram.contention import ContentionConfig
from ..dram.device import DeviceProfile
from ..dram.policies import ControllerConfig
from ..dram.scenario import Scenario
from ..mapping.catalog import DRMAP, MAPPING_2
from ..mapping.policy import MappingPolicy
from .engine import ExplorationEngine


@dataclass(frozen=True)
class SweepPoint:
    """One point of a one-dimensional sensitivity sweep."""

    parameter: str
    value: object
    drmap_edp_js: float
    worst_edp_js: float

    @property
    def drmap_advantage(self) -> float:
        """EDP ratio of the worst mapping to DRMap (>= 1)."""
        if self.drmap_edp_js <= 0:
            return float("nan")
        return self.worst_edp_js / self.drmap_edp_js


def _compare(
    engine: ExplorationEngine,
    parameter: str,
    value: object,
    layers: Sequence[ConvLayer],
    architecture: DRAMArchitecture,
    scheme: ReuseScheme,
    **explore,
) -> SweepPoint:
    """DRMap's and Mapping-2's minimum EDP, each summed over ``layers``.

    Every layer is one exploration restricted to the policy, the
    architecture and the scheme; ``explore`` holds the remaining
    :meth:`~repro.core.engine.ExplorationEngine.explore_layer` keywords
    (``device``, ``organization``, ``buffers``, ``controller``,
    ``contention``, ``strategy``, ``seed``).
    """
    def total(policy: MappingPolicy) -> float:
        edp = 0.0
        for layer in layers:
            edp += engine.explore_layer(
                layer, architectures=(architecture,), schemes=(scheme,),
                policies=(policy,), **explore).best().edp_js
        return edp

    return SweepPoint(parameter=parameter, value=value,
                      drmap_edp_js=total(DRMAP),
                      worst_edp_js=total(MAPPING_2))


def sweep_subarrays(
    layer: ConvLayer,
    subarray_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    architecture: DRAMArchitecture = DRAMArchitecture.SALP_MASA,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    device: Optional[DeviceProfile] = None,
    controller: Optional[ControllerConfig] = None,
    contention: Optional[ContentionConfig] = None,
    strategy="exhaustive",
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """EDP vs subarrays-per-bank.

    More subarrays give SALP more parallelism to exploit -- and give
    bad mappings more subarray boundaries to trip over.
    """
    profile = Scenario.of(device).device
    engine = ExplorationEngine()
    return [
        _compare(engine, "subarrays_per_bank", count, [layer],
                 architecture, scheme, device=profile,
                 organization=profile.organization.with_subarrays(count),
                 controller=controller, contention=contention,
                 strategy=strategy, seed=seed)
        for count in subarray_counts
    ]


def sweep_buffers(
    layer: ConvLayer,
    sizes_kb: Sequence[int] = (16, 32, 64, 128, 256),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    device: Optional[DeviceProfile] = None,
    controller: Optional[ControllerConfig] = None,
    contention: Optional[ContentionConfig] = None,
    strategy="exhaustive",
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """EDP vs on-chip buffer capacity (all three buffers together)."""
    engine = ExplorationEngine()
    return [
        _compare(engine, "buffer_kb", size_kb, [layer], architecture,
                 scheme, device=device,
                 buffers=BufferConfig(
                     ifms_bytes=size_kb * 1024,
                     wghs_bytes=size_kb * 1024,
                     ofms_bytes=size_kb * 1024),
                 controller=controller, contention=contention,
                 strategy=strategy, seed=seed)
        for size_kb in sizes_kb
    ]


def sweep_precision(
    layer_factory: Callable[[int], ConvLayer],
    bytes_per_element: Sequence[int] = (1, 2, 4),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    device: Optional[DeviceProfile] = None,
    controller: Optional[ControllerConfig] = None,
    contention: Optional[ContentionConfig] = None,
    strategy="exhaustive",
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """EDP vs data precision (int8 / fp16 / fp32 footprints).

    ``layer_factory(bpe)`` must build the layer at the given precision.
    """
    engine = ExplorationEngine()
    return [
        _compare(engine, "bytes_per_element", bpe, [layer_factory(bpe)],
                 architecture, scheme, device=device,
                 controller=controller, contention=contention,
                 strategy=strategy, seed=seed)
        for bpe in bytes_per_element
    ]


def sweep_batch(
    layer_factory: Callable[[int], ConvLayer],
    batches: Sequence[int] = (1, 2, 4, 8),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    device: Optional[DeviceProfile] = None,
    controller: Optional[ControllerConfig] = None,
    contention: Optional[ContentionConfig] = None,
    strategy="exhaustive",
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """EDP vs batch size (activations scale, weights amortize)."""
    engine = ExplorationEngine()
    return [
        _compare(engine, "batch", batch, [layer_factory(batch)],
                 architecture, scheme, device=device,
                 controller=controller, contention=contention,
                 strategy=strategy, seed=seed)
        for batch in batches
    ]


def sweep_network_batch(
    workload,
    batches: Sequence[int] = (1, 2, 4, 8),
    architecture: DRAMArchitecture = DRAMArchitecture.DDR3,
    scheme: ReuseScheme = ReuseScheme.ADAPTIVE_REUSE,
    device: Optional[DeviceProfile] = None,
    buffers: BufferConfig = TABLE2_BUFFERS,
    controller: Optional[ControllerConfig] = None,
    contention: Optional[ContentionConfig] = None,
    strategy="exhaustive",
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """Network EDP vs batch size over a whole workload graph.

    ``workload`` is a registered workload name (see
    :func:`repro.workloads.workload_names`) or a builder callable
    accepting ``batch=``; each sweep value rebuilds the graph at that
    batch, lowers it, and sums the per-layer minimum EDPs — the
    network-level counterpart of :func:`sweep_batch`.
    """
    from ..workloads.registry import get_workload

    engine = ExplorationEngine()
    points = []
    for batch in batches:
        if callable(workload):
            network = workload(batch=batch)
        else:
            network = get_workload(workload, batch=batch)
        points.append(_compare(
            engine, f"{network.name}:batch", batch, network.lower(),
            architecture, scheme, device=device, buffers=buffers,
            controller=controller, contention=contention,
            strategy=strategy, seed=seed))
    return points


def sweep_table(points: List[SweepPoint]) -> List[List[str]]:
    """Rows for :func:`repro.core.report.format_table`."""
    return [
        [str(p.value), f"{p.drmap_edp_js:.3e}", f"{p.worst_edp_js:.3e}",
         f"{p.drmap_advantage:.1f}x"]
        for p in points
    ]
