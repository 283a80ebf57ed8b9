"""Layer partitioning (tiling) — paper Section II-A.

A :class:`TilingConfig` fixes the outer-loop step sizes of Fig. 3:
``Th`` x ``Tw`` spatial ofms tile, ``Tj`` ofms channels, ``Ti`` ifms
channels.  Following Algorithm 1's initialization, the kernel is never
tiled (``Tp = P``, ``Tq = Q``).

The tile sizes of all three data types must fit in their on-chip
buffers (Algorithm 1 line 9); :func:`enumerate_tilings` generates the
candidate partitionings the DSE explores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..units import ceil_div
from .layer import ConvLayer


@dataclass(frozen=True)
class BufferConfig:
    """On-chip buffer capacities in bytes (Table II: 64 KB each)."""

    ifms_bytes: int = 64 * 1024
    wghs_bytes: int = 64 * 1024
    ofms_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        for name in ("ifms_bytes", "wghs_bytes", "ofms_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}")


#: The paper's Table-II buffer configuration.
TABLE2_BUFFERS = BufferConfig()


@dataclass(frozen=True)
class TilingConfig:
    """Outer-loop step sizes (Th, Tw, Tj, Ti) for one layer."""

    th: int
    tw: int
    tj: int
    ti: int

    def __post_init__(self) -> None:
        for name in ("th", "tw", "tj", "ti"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}")

    # ------------------------------------------------------------------
    # Validation against a layer
    # ------------------------------------------------------------------

    def validate(self, layer: ConvLayer) -> None:
        """Raise if any step exceeds its loop bound."""
        bounds = {
            "th": layer.out_height,
            "tw": layer.out_width,
            "tj": layer.out_channels_per_group,
            "ti": layer.in_channels_per_group,
        }
        for name, bound in bounds.items():
            value = getattr(self, name)
            if value > bound:
                raise ConfigurationError(
                    f"{name}={value} exceeds the layer bound {bound} "
                    f"for {layer.name}")

    # ------------------------------------------------------------------
    # Tile byte sizes (buffer occupancy)
    # ------------------------------------------------------------------

    def ifms_tile_bytes(self, layer: ConvLayer) -> int:
        """Bytes of the ifms tile feeding one (Th, Tw, Ti) block."""
        tile_h = (self.th - 1) * layer.stride + layer.kernel_height
        tile_w = (self.tw - 1) * layer.stride + layer.kernel_width
        return self.ti * tile_h * tile_w * layer.bytes_per_element

    def wghs_tile_bytes(self, layer: ConvLayer) -> int:
        """Bytes of the (Ti, Tj, P, Q) weight tile."""
        return (self.ti * self.tj * layer.kernel_height
                * layer.kernel_width * layer.bytes_per_element)

    def ofms_tile_bytes(self, layer: ConvLayer) -> int:
        """Bytes of the (Th, Tw, Tj) ofms tile."""
        return self.th * self.tw * self.tj * layer.bytes_per_element

    def fits(self, layer: ConvLayer, buffers: BufferConfig) -> bool:
        """Algorithm 1 line 9: do all three tiles fit their buffers?"""
        return (self.ifms_tile_bytes(layer) <= buffers.ifms_bytes
                and self.wghs_tile_bytes(layer) <= buffers.wghs_bytes
                and self.ofms_tile_bytes(layer) <= buffers.ofms_bytes)

    # ------------------------------------------------------------------
    # Trip counts (per group)
    # ------------------------------------------------------------------

    def trip_counts(self, layer: ConvLayer) -> Tuple[int, int, int, int]:
        """Outer-loop trip counts ``(n_h, n_w, n_j, n_i)`` per group."""
        self.validate(layer)
        return (
            ceil_div(layer.out_height, self.th),
            ceil_div(layer.out_width, self.tw),
            ceil_div(layer.out_channels_per_group, self.tj),
            ceil_div(layer.in_channels_per_group, self.ti),
        )

    def tiles_per_group(self, layer: ConvLayer) -> int:
        """Number of (h, w, j, i) iterations per group."""
        n_h, n_w, n_j, n_i = self.trip_counts(layer)
        return n_h * n_w * n_j * n_i


def _candidate_steps(bound: int) -> List[int]:
    """Powers of two up to ``bound``, plus ``bound`` itself."""
    steps = []
    value = 1
    while value < bound:
        steps.append(value)
        value *= 2
    steps.append(bound)
    return steps


def enumerate_tilings(
    layer: ConvLayer,
    buffers: BufferConfig = TABLE2_BUFFERS,
) -> List[TilingConfig]:
    """Candidate tilings for the DSE (Algorithm 1, step 1a).

    Step sizes are drawn from powers of two (plus the full extent) per
    dimension and filtered by the buffer constraint.  Only maximal
    tilings are kept: no single step can be raised to the next
    candidate without violating a buffer -- dominated tilings move
    strictly less data per fetch at the same trip counts or worse, so
    pruning them loses nothing.

    Parameters
    ----------
    layer:
        Layer to partition.
    buffers:
        On-chip buffer capacities.

    Raises
    ------
    repro.errors.DseError
        If no candidate fits the buffers.
    """
    from ..errors import DseError

    th_candidates = _candidate_steps(layer.out_height)
    tw_candidates = _candidate_steps(layer.out_width)
    tj_candidates = _candidate_steps(layer.out_channels_per_group)
    ti_candidates = _candidate_steps(layer.in_channels_per_group)

    fitting: List[TilingConfig] = []
    for th, tw, tj, ti in itertools.product(
            th_candidates, tw_candidates, tj_candidates, ti_candidates):
        tiling = TilingConfig(th=th, tw=tw, tj=tj, ti=ti)
        if tiling.fits(layer, buffers):
            fitting.append(tiling)
    if not fitting:
        raise DseError(
            f"no tiling of {layer.name} fits the buffers "
            f"({buffers.ifms_bytes}/{buffers.wghs_bytes}/"
            f"{buffers.ofms_bytes} B); the layer's smallest tile is "
            "already too large")

    def next_step(value: int, candidates: List[int]) -> Optional[int]:
        larger = [c for c in candidates if c > value]
        return min(larger) if larger else None

    maximal = []
    for tiling in fitting:
        grown_any = False
        for field_name, candidates in (
                ("th", th_candidates), ("tw", tw_candidates),
                ("tj", tj_candidates), ("ti", ti_candidates)):
            bigger = next_step(getattr(tiling, field_name), candidates)
            if bigger is None:
                continue
            grown = TilingConfig(**{
                **{"th": tiling.th, "tw": tiling.tw,
                   "tj": tiling.tj, "ti": tiling.ti},
                field_name: bigger,
            })
            if grown.fits(layer, buffers):
                grown_any = True
                break
        if not grown_any:
            maximal.append(tiling)
    return maximal

