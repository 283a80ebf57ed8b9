"""Tests for layer partitioning."""

import itertools

import pytest

from repro.cnn.layer import ConvLayer
from repro.cnn.tiling import (
    BufferConfig,
    TABLE2_BUFFERS,
    TilingConfig,
    _candidate_steps,
    enumerate_tilings,
)
from repro.errors import ConfigurationError, DseError
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def conv2():
    return get_workload("alexnet").lower()[1]


class TestBufferConfig:
    def test_table2_defaults(self):
        assert TABLE2_BUFFERS.ifms_bytes == 64 * 1024
        assert TABLE2_BUFFERS.wghs_bytes == 64 * 1024
        assert TABLE2_BUFFERS.ofms_bytes == 64 * 1024

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            BufferConfig(ifms_bytes=0)


class TestTileSizes:
    def test_ifms_tile_includes_halo(self, conv2):
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        # (4-1)*1 + 5 = 8 input rows/cols per 4 output rows/cols.
        assert tiling.ifms_tile_bytes(conv2) == 16 * 8 * 8

    def test_wghs_tile(self, conv2):
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        assert tiling.wghs_tile_bytes(conv2) == 16 * 16 * 5 * 5

    def test_ofms_tile(self, conv2):
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        assert tiling.ofms_tile_bytes(conv2) == 4 * 4 * 16

    def test_stride_scales_halo(self):
        layer = ConvLayer.conv("L", (3, 227, 227), 96, kernel=11, stride=4)
        tiling = TilingConfig(th=8, tw=8, tj=8, ti=3)
        # (8-1)*4 + 11 = 39 input rows per 8 output rows.
        assert tiling.ifms_tile_bytes(layer) == 3 * 39 * 39

    def test_fc_tiles_are_vectors(self):
        layer = ConvLayer.fully_connected("FC", 4096, 1000)
        tiling = TilingConfig(th=1, tw=1, tj=100, ti=512)
        assert tiling.ifms_tile_bytes(layer) == 512
        assert tiling.wghs_tile_bytes(layer) == 512 * 100
        assert tiling.ofms_tile_bytes(layer) == 100


class TestValidation:
    def test_rejects_zero_step(self):
        with pytest.raises(ConfigurationError):
            TilingConfig(th=0, tw=1, tj=1, ti=1)

    def test_rejects_step_beyond_bound(self, conv2):
        tiling = TilingConfig(th=28, tw=1, tj=1, ti=1)
        with pytest.raises(ConfigurationError):
            tiling.validate(conv2)

    def test_tj_bounded_per_group(self, conv2):
        # CONV2 has 256 output channels but only 128 per group.
        tiling = TilingConfig(th=1, tw=1, tj=129, ti=1)
        with pytest.raises(ConfigurationError):
            tiling.validate(conv2)

    def test_fits_checks_all_three_buffers(self, conv2):
        small = BufferConfig(ifms_bytes=100, wghs_bytes=64 * 1024,
                             ofms_bytes=64 * 1024)
        tiling = TilingConfig(th=4, tw=4, tj=16, ti=16)
        assert tiling.fits(conv2, TABLE2_BUFFERS)
        assert not tiling.fits(conv2, small)


class TestTripCounts:
    def test_exact_division(self, conv2):
        tiling = TilingConfig(th=27, tw=27, tj=128, ti=48)
        assert tiling.trip_counts(conv2) == (1, 1, 1, 1)

    def test_ceiling_division(self, conv2):
        tiling = TilingConfig(th=10, tw=10, tj=100, ti=30)
        assert tiling.trip_counts(conv2) == (3, 3, 2, 2)

    def test_tiles_per_group(self, conv2):
        tiling = TilingConfig(th=10, tw=10, tj=100, ti=30)
        assert tiling.tiles_per_group(conv2) == 3 * 3 * 2 * 2


class TestEnumeration:
    def test_all_candidates_fit(self, conv2):
        for tiling in enumerate_tilings(conv2):
            assert tiling.fits(conv2, TABLE2_BUFFERS)

    def test_maximal_pruning_reduces_count(self, conv2):
        pruned = enumerate_tilings(conv2)
        full = [
            tiling for tiling in (
                TilingConfig(th=th, tw=tw, tj=tj, ti=ti)
                for th, tw, tj, ti in itertools.product(
                    _candidate_steps(conv2.out_height),
                    _candidate_steps(conv2.out_width),
                    _candidate_steps(conv2.out_channels_per_group),
                    _candidate_steps(conv2.in_channels_per_group)))
            if tiling.fits(conv2, TABLE2_BUFFERS)
        ]
        assert 0 < len(pruned) < len(full)

    def test_maximal_tilings_cannot_grow(self, conv2):
        """No maximal tiling can double any step and still fit."""
        for tiling in enumerate_tilings(conv2):
            for field_name in ("th", "tw", "tj", "ti"):
                grown = TilingConfig(**{
                    "th": tiling.th, "tw": tiling.tw,
                    "tj": tiling.tj, "ti": tiling.ti,
                    field_name: min(
                        2 * getattr(tiling, field_name),
                        {"th": conv2.out_height,
                         "tw": conv2.out_width,
                         "tj": conv2.out_channels_per_group,
                         "ti": conv2.in_channels_per_group}[field_name]),
                })
                if grown != tiling:
                    assert not grown.fits(conv2, TABLE2_BUFFERS)

    def test_every_alexnet_layer_has_candidates(self):
        for layer in get_workload("alexnet").lower():
            assert enumerate_tilings(layer)

    def test_impossible_buffers_raise(self, conv2):
        nano = BufferConfig(ifms_bytes=1, wghs_bytes=1, ofms_bytes=1)
        with pytest.raises(DseError):
            enumerate_tilings(conv2, buffers=nano)
