"""Differential suite: the vector kernel vs the scalar reference loop.

The vectorized kernel (:mod:`repro.core.eval_kernel`) is contractually
bit-for-bit identical to the scalar per-point loop
(:func:`repro.core.engine.evaluate_range`) — not "numerically close".
This module pins that contract on the paper's AlexNet/DDR3 workload
across every supported architecture, every jobs/chunk-size
combination the streaming tests exercise, matmul and depthwise layers
on HBM2, the funnel's batched analytical scoring, the reduced/Pareto
merge paths, and the per-segment poison fallback.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cnn.scheduling import ALL_SCHEMES
from repro.cnn.tiling import TABLE2_BUFFERS
from repro.core import engine as engine_module
from repro.core import strategies
from repro.core.dse import DseResult
from repro.core.engine import (
    EvaluationCache,
    ExplorationEngine,
    ReducedExploration,
    _build_context,
    evaluate_range,
)
from repro.core.eval_kernel import batch_scores, iter_layer_segments
from repro.core.strategies import (
    analytical_scores,
    reference_analytical_scores,
)
from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
from repro.dram.device import get_device
from repro.dram.scenario import Scenario
from repro.errors import CapacityError
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.mapping.counts import count_transitions, count_transitions_batch
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def conv1():
    return [layer for layer in get_workload("alexnet").lower()
            if layer.name == "CONV1"]


@pytest.fixture(scope="module")
def tiny_layer():
    return get_workload("tiny").lower()[0]


def _context(layers, device=None, organization=None):
    return _build_context(
        layers, None, ALL_SCHEMES, TABLE1_MAPPINGS, TABLE2_BUFFERS, None,
        DEFAULT_CHARACTERIZATION_CACHE, Scenario.of(device, organization))


def _reference(layers, device=None, organization=None):
    """The whole grid through the scalar reference loop."""
    context = _context(layers, device, organization)
    return DseResult(points=evaluate_range(
        context, EvaluationCache(), 0, context.total_points))


@pytest.fixture(scope="module")
def scalar_reference(conv1):
    """The reference result every jobs x chunk variant must equal."""
    return _reference(conv1)


def _hex_points(result):
    """Bit-exact view of every float the DSE produced."""
    return [
        (point.layer_name, point.architecture, point.scheme,
         point.policy.name, point.tiling,
         point.result.energy_nj.hex(), float(point.result.cycles).hex(),
         point.edp_js.hex(),
         tuple((name, cost.cycles.hex(), cost.energy_nj.hex())
               for name, cost in point.result.by_type.items()))
        for point in result.points
    ]


class TestCountsBatch:
    """count_transitions_batch vs the scalar Eq. 2/3 closed form."""

    @pytest.mark.parametrize("policy", TABLE1_MAPPINGS,
                             ids=[p.name for p in TABLE1_MAPPINGS])
    def test_matches_scalar_counts(self, policy, table2_org):
        lengths = np.asarray(
            [1, 2, 3, 7, 8, 64, 1024, 4096, 65536], dtype=np.int64)
        batch = count_transitions_batch(policy, table2_org, lengths)
        for column, n in enumerate(lengths.tolist()):
            scalar = count_transitions(policy, table2_org, n)
            expected = [scalar.by_dim.get(dim, 0)
                        for dim in policy.full_order]
            assert batch[:, column].tolist() == expected

    def test_conservation_across_the_batch(self, table2_org):
        policy = TABLE1_MAPPINGS[0]
        lengths = np.arange(1, 513, dtype=np.int64)
        batch = count_transitions_batch(policy, table2_org, lengths)
        assert (batch.sum(axis=0) + 1 == lengths).all()

    def test_over_capacity_raises_capacity_error(self, table2_org):
        policy = TABLE1_MAPPINGS[0]
        too_long = policy.capacity(table2_org) + 1
        with pytest.raises(CapacityError):
            count_transitions_batch(
                policy, table2_org,
                np.asarray([1, too_long], dtype=np.int64))

    def test_rejects_non_positive_lengths(self, table2_org):
        policy = TABLE1_MAPPINGS[0]
        with pytest.raises(ValueError):
            count_transitions_batch(
                policy, table2_org, np.asarray([4, 0], dtype=np.int64))


class TestBitIdentityOnAlexNet:
    """AlexNet/DDR3: vector output bit-equal for every jobs x chunk."""

    def test_covers_all_four_architectures(self, scalar_reference):
        assert len({point.architecture
                    for point in scalar_reference.points}) == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk_size", [7, 64, 256, 1000])
    def test_vector_points_bit_equal(self, conv1, scalar_reference,
                                     jobs, chunk_size):
        vector = ExplorationEngine(
            jobs=jobs, chunk_size=chunk_size).explore_network(conv1)
        assert vector.points == scalar_reference.points
        assert _hex_points(vector) == _hex_points(scalar_reference)
        assert vector.best() == scalar_reference.best()

    @pytest.mark.parametrize("device_name",
                             ["ddr4-2400", "lpddr4-3200", "hbm2"])
    def test_other_devices_bit_equal(self, conv1, device_name):
        device = get_device(device_name)
        vector = ExplorationEngine(jobs=1).explore_network(
            conv1, device=device)
        assert _hex_points(vector) == _hex_points(
            _reference(conv1, device=device))


class TestBeyondConvLayers:
    """Matmul and depthwise shapes (the funnel-devices workloads)."""

    @pytest.mark.parametrize("workload,layer_name", [
        ("bert-encoder", "FFN1"),
        ("mobilenetv2", "B2_DW"),
    ])
    def test_hbm2_layer_bit_equal(self, workload, layer_name):
        layer = [layer for layer in get_workload(workload).lower()
                 if layer.name == layer_name]
        device = get_device("hbm2")
        vector = ExplorationEngine(jobs=1).explore_network(
            layer, device=device)
        reference = _reference(layer, device=device)
        assert vector.points
        assert _hex_points(vector) == _hex_points(reference)


class TestPoisonFallback:
    """The per-segment poison mask, the one evaluation-path selector."""

    def test_capacity_poison_raises_like_the_reference(self, conv1):
        tiny = get_device("tiny")
        with pytest.raises(CapacityError) as from_engine:
            ExplorationEngine(jobs=1).explore_network(conv1, device=tiny)
        with pytest.raises(CapacityError) as from_reference:
            _reference(conv1, device=tiny)
        assert str(from_engine.value) == str(from_reference.value)

    def test_wrap_poison_falls_back_bit_equal(self, monkeypatch):
        tiny = get_device("tiny")
        organization = replace(
            tiny.organization, channels=4, ranks_per_channel=2)
        network = get_workload("lenet5")
        calls = []

        def spy(context, cache, start, stop):
            calls.append((start, stop))
            return evaluate_range(context, cache, start, stop)

        monkeypatch.setattr(engine_module, "evaluate_range", spy)
        vector = ExplorationEngine(jobs=1).explore_network(
            network, device=tiny, organization=organization)
        context = _context(network, tiny, organization)
        poisoned = (context.offsets[2], context.offsets[3])
        assert calls == [poisoned]
        assert _hex_points(vector) == _hex_points(
            _reference(network, tiny, organization))


class TestReducedAndPareto:
    """Reduced merge + Pareto front under the vector kernel."""

    def test_parallel_vector_reduced_equals_serial_scalar(
            self, conv1, scalar_reference):
        reference = ReducedExploration()
        reference.absorb(0, scalar_reference.points)
        vector = ExplorationEngine(jobs=2, chunk_size=61) \
            .explore_reduced(conv1)
        assert vector.best() == reference.best()
        assert vector.best_by_key == reference.best_by_key
        reference_front = [(p.energy_nj, p.latency_ns)
                           for p in reference.pareto.front()]
        vector_front = [(p.energy_nj, p.latency_ns)
                        for p in vector.pareto.front()]
        assert vector_front == reference_front


class TestFunnelAndScores:
    """The funnel's batched analytical scoring vs the scalar loop."""

    def test_batch_scores_bit_equal(self, conv1):
        context = _context(conv1)
        scalar = reference_analytical_scores(context, EvaluationCache())
        batched = batch_scores(context, EvaluationCache())
        assert batched is not None
        assert len(batched) == len(scalar) == context.total_points
        assert [b.hex() for b in batched] == [s.hex() for s in scalar]

    def test_analytical_scores_uses_batch(self, conv1, monkeypatch):
        context = _context(conv1)
        calls = []

        def spy(*args):
            calls.append(args)
            return batch_scores(*args)

        monkeypatch.setattr(strategies, "batch_scores", spy)
        scores = analytical_scores(context, EvaluationCache())
        assert len(calls) == 1
        scalar = reference_analytical_scores(context, EvaluationCache())
        assert [a.hex() for a in scores] == [s.hex() for s in scalar]

    def test_funnel_end_to_end_bit_equal(self, conv1, on_reference):
        scalar = on_reference(ExplorationEngine(jobs=1).explore_network)(
            conv1, strategy="funnel")
        vector = ExplorationEngine(jobs=1).explore_network(
            conv1, strategy="funnel")
        assert _hex_points(vector) == _hex_points(scalar)
        assert vector.scored_points == scalar.scored_points


class TestShardingAndCacheStats:
    """Layer-aligned shards and cache-stat surfacing."""

    def test_layer_segments_respect_boundaries(self, conv1, tiny_layer):
        context = _context(conv1 + [tiny_layer])
        segments = list(iter_layer_segments(
            context, 0, context.total_points))
        assert [start for _, start, _ in segments] \
            == list(context.offsets)
        assert segments[-1][2] == context.total_points
        boundary = context.offsets[1]
        straddling = list(iter_layer_segments(
            context, boundary - 3, boundary + 3))
        assert straddling == [(0, boundary - 3, boundary),
                              (1, boundary, boundary + 3)]

    def test_engine_chunks_are_layer_aligned(self, conv1, tiny_layer):
        engine = ExplorationEngine(jobs=1, chunk_size=7)
        context = _context(conv1 + [tiny_layer])
        run = strategies.StrategyRun("exhaustive", None,
                                     context.total_points)
        chunks = [
            (start, start + len(points))
            for start, points in engine._evaluate_ranges(
                context, [(0, context.total_points)], run)
        ]
        # Gapless, in-order cover of the grid ...
        assert chunks[0][0] == 0
        assert chunks[-1][1] == context.total_points
        for (_, stop), (next_start, _) in zip(chunks, chunks[1:]):
            assert stop == next_start
        # ... where no chunk straddles a layer boundary; every interior
        # boundary instead starts a fresh chunk.
        boundaries = set(context.offsets[1:])
        for start, stop in chunks:
            assert not any(start < b < stop for b in boundaries)
        assert boundaries <= {start for start, _ in chunks}

    def test_selected_runs_split_at_layers_and_chunk_size(
            self, conv1, tiny_layer):
        engine = ExplorationEngine(jobs=1, chunk_size=4)
        context = _context(conv1 + [tiny_layer])
        boundary = context.offsets[1]
        run = strategies.StrategyRun("random", None, context.total_points)
        chunks = [
            (start, start + len(points))
            for start, points in engine._evaluate_ranges(
                context, [(2, 3), (boundary - 5, boundary + 6)], run)
        ]
        assert chunks == [
            (2, 3),
            (boundary - 5, boundary - 1), (boundary - 1, boundary),
            (boundary, boundary + 4), (boundary + 4, boundary + 6),
        ]

    def test_cache_stats_surfaced_serial_and_parallel(self, tiny_layer):
        serial = ExplorationEngine(jobs=1).explore_network([tiny_layer])
        assert serial.eval_cache_stats is not None
        assert serial.eval_cache_stats.lookups > 0
        parallel = ExplorationEngine(jobs=2, chunk_size=7) \
            .explore_network([tiny_layer])
        assert parallel.eval_cache_stats is not None
        assert parallel.eval_cache_stats.lookups > 0

    def test_cache_stats_merge_on_extend(self, tiny_layer, on_reference):
        first = ExplorationEngine(jobs=1).explore_network([tiny_layer])
        second = on_reference(ExplorationEngine(jobs=1).explore_network)(
            [tiny_layer])
        lookups = (first.eval_cache_stats.lookups
                   + second.eval_cache_stats.lookups)
        first.extend(second)
        assert first.eval_cache_stats.lookups == lookups


class TestOnReference:
    """The fixture the ratio gates rely on must really leave the kernel."""

    def test_routes_chunks_and_scores_to_the_references(
            self, tiny_layer, on_reference, monkeypatch):
        ranges = []
        scored = []

        def range_spy(context, cache, start, stop):
            ranges.append((start, stop))
            return evaluate_range(context, cache, start, stop)

        def scores_spy(context, cache):
            scored.append(context.total_points)
            return reference_analytical_scores(context, cache)

        def no_batch(*args):
            raise AssertionError("the batched kernel ran")

        monkeypatch.setattr(engine_module, "evaluate_range", range_spy)
        monkeypatch.setattr(strategies, "reference_analytical_scores",
                            scores_spy)
        monkeypatch.setattr(strategies, "batch_scores", no_batch)
        monkeypatch.setattr(engine_module.ChunkEvaluator, "_segment",
                            no_batch)
        explore = on_reference(ExplorationEngine(jobs=1).explore_network)
        full = explore([tiny_layer])
        assert sum(stop - start for start, stop in ranges) \
            == full.total_points
        funnel = explore([tiny_layer], strategy="funnel")
        assert scored == [funnel.total_points]
