"""Differential suite: the batch kernel vs. the object simulator.

The vectorized kernel (:mod:`repro.dram.kernel`) is a *golden-pinned*
fast path: wherever it is eligible — the default FCFS/open-row
controller on an uncontended channel — its
:class:`CharacterizationResult` must equal the simulator's **exactly**
(``==`` on every float, not approximately).  The simulator remains the
source of truth; these tests are the pin.  Both backends are called
directly: :func:`characterize_batch` and the simulator reference
:func:`simulate_characterization`.
"""

import dataclasses
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.architecture import DRAMArchitecture
from repro.dram.characterize import (
    CharacterizationCache,
    characterize,
    simulate_characterization,
)
from repro.dram.contention import contention_config
from repro.dram.device import DEVICE_REGISTRY, TINY_DEVICE, get_device
from repro.dram.kernel import (
    KernelCharacterizer,
    characterize_batch,
    kernel_ineligibility,
)
from repro.dram.policies import controller_config
from repro.dram.scenario import Scenario
from repro.dram.simulator import DRAMSimulator
from repro.dram.store import CharacterizationStore
from repro.errors import ConfigurationError

ALL_TRIPLES = [
    (device, architecture)
    for device in DEVICE_REGISTRY
    for architecture in device.supported_architectures
]


def assert_exactly_equal(kernel_result, simulator_result):
    """Bit-for-bit equality of two characterization results."""
    assert kernel_result.architecture == simulator_result.architecture
    assert kernel_result.device_name == simulator_result.device_name
    assert kernel_result.tck_ns == simulator_result.tck_ns
    assert kernel_result.controller == simulator_result.controller
    assert kernel_result.contention == simulator_result.contention
    assert kernel_result.requestor_stats \
        == simulator_result.requestor_stats
    assert set(kernel_result.costs) == set(simulator_result.costs)
    for condition, expected in simulator_result.costs.items():
        actual = kernel_result.costs[condition]
        # Exact float equality is deliberate: the kernel replicates
        # the simulator's arithmetic (same operations, same order),
        # not just its values to within a tolerance.
        assert actual.cycles == expected.cycles, condition
        assert actual.read_energy_nj == expected.read_energy_nj, \
            condition
        assert actual.write_energy_nj == expected.write_energy_nj, \
            condition


def kernel(device, architecture, **lengths):
    """The kernel backend on ``device``'s default scenario."""
    return characterize_batch(
        Scenario.of(device), (architecture,), **lengths)[architecture]


def simulated(device, architecture, controller=None, **lengths):
    """The simulator reference backend on ``device``."""
    simulator = DRAMSimulator.from_profile(
        device, architecture, controller=controller)
    return simulate_characterization(
        simulator, architecture, device_name=device.name, **lengths)


class TestExactEquality:
    """Kernel == simulator on every preset x architecture."""

    @pytest.mark.parametrize(
        "device, architecture", ALL_TRIPLES,
        ids=[f"{d.name}-{a.value}" for d, a in ALL_TRIPLES])
    def test_every_preset_and_architecture(self, device, architecture):
        assert_exactly_equal(kernel(device, architecture),
                             simulated(device, architecture))

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        short=st.integers(min_value=1, max_value=40),
        gap=st.integers(min_value=1, max_value=120),
    )
    def test_arbitrary_stream_lengths(self, data, short, gap):
        """Equality is structural, not tuned to the 64/320 default."""
        device = data.draw(st.sampled_from(list(DEVICE_REGISTRY)))
        architecture = data.draw(
            st.sampled_from(list(device.supported_architectures)))
        lengths = {"short_count": short, "long_count": short + gap}
        assert_exactly_equal(kernel(device, architecture, **lengths),
                             simulated(device, architecture, **lengths))

    def test_masa_lru_eviction_path(self):
        """A 16-subarray geometry exceeds MASA's 8-row budget.

        The default presets never evict (<= 8 subarrays per bank), so
        force the eviction branch of the kernel's MASA walk through a
        widened geometry.
        """
        base = get_device("ddr3-1600-2gb-x8")
        organization = dataclasses.replace(
            base.organization, subarrays_per_bank=16)
        wide = dataclasses.replace(
            base, name="ddr3-16sub", organization=organization)
        assert_exactly_equal(kernel(wide, DRAMArchitecture.SALP_MASA),
                             simulated(wide, DRAMArchitecture.SALP_MASA))


class TestBatch:
    @pytest.mark.parametrize(
        "device", list(DEVICE_REGISTRY), ids=lambda d: d.name)
    def test_batch_equals_per_architecture_calls(self, device):
        architectures = device.supported_architectures
        batch = characterize_batch(Scenario.of(device), architectures)
        assert tuple(batch) == tuple(architectures)
        for architecture, result in batch.items():
            single = characterize(architecture, device=device)
            assert_exactly_equal(result, single)

    def test_ineligible_scenario_raises(self):
        scenario = Scenario.of(
            TINY_DEVICE, controller=controller_config(scheduler="fr-fcfs"))
        with pytest.raises(ConfigurationError, match="kernel"):
            characterize_batch(scenario, (DRAMArchitecture.DDR3,))


class TestEligibility:
    """The kernel rejects every configuration it does not model."""

    @pytest.mark.parametrize("config", [
        controller_config(scheduler="fr-fcfs"),
        controller_config(row_policy="closed"),
        controller_config(row_policy="timeout", timeout_cycles=50),
    ], ids=["fr-fcfs", "closed", "timeout"])
    def test_non_default_controller_raises(self, config):
        scenario = Scenario.of(TINY_DEVICE, controller=config)
        assert kernel_ineligibility(scenario) is not None
        with pytest.raises(ConfigurationError, match="kernel"):
            characterize_batch(scenario, (DRAMArchitecture.DDR3,))

    def test_contended_channel_raises(self):
        scenario = Scenario.of(
            TINY_DEVICE, contention=contention_config(requestors=2))
        assert kernel_ineligibility(scenario) is not None
        with pytest.raises(ConfigurationError, match="kernel"):
            characterize_batch(scenario, (DRAMArchitecture.DDR3,))

    def test_direct_construction_rejects_ineligible_config(self):
        with pytest.raises(ConfigurationError):
            KernelCharacterizer(Scenario.of(
                TINY_DEVICE,
                controller=controller_config(scheduler="fr-fcfs")))


class TestDispatch:
    """``kernel_ineligibility`` alone picks :func:`characterize`'s backend."""

    @staticmethod
    def _forbid(monkeypatch, module, name):
        def forbidden(*_args, **_kwargs):
            raise AssertionError(f"{module}.{name} must not be called")

        monkeypatch.setattr(importlib.import_module(module), name,
                            forbidden)

    def test_eligible_scenario_never_simulates(self, monkeypatch):
        self._forbid(monkeypatch, "repro.dram.characterize",
                     "simulate_characterization")
        assert_exactly_equal(
            characterize(DRAMArchitecture.SALP_MASA, device=TINY_DEVICE),
            kernel(TINY_DEVICE, DRAMArchitecture.SALP_MASA))

    def test_ineligible_scenario_never_runs_the_kernel(self, monkeypatch):
        config = controller_config(scheduler="fr-fcfs")
        expected = simulated(TINY_DEVICE, DRAMArchitecture.SALP_1,
                             controller=config)
        self._forbid(monkeypatch, "repro.dram.kernel", "characterize_batch")
        assert_exactly_equal(
            characterize(DRAMArchitecture.SALP_1, device=TINY_DEVICE,
                         controller=config),
            expected)


class TestCacheNoFork:
    """The backend is not part of the cache key or the store spec."""

    def test_store_entry_is_shared_across_backends(self, tmp_path):
        store = CharacterizationStore(tmp_path / "store")
        writer = CharacterizationCache(store=store)
        writer.get(DRAMArchitecture.DDR3, device=TINY_DEVICE)
        reader = CharacterizationCache(store=store)
        served = reader.get(DRAMArchitecture.DDR3, device=TINY_DEVICE)
        assert store.hits == 1
        assert_exactly_equal(
            served, simulated(TINY_DEVICE, DRAMArchitecture.DDR3))

    def test_get_many_equals_per_get(self):
        architectures = tuple(TINY_DEVICE.supported_architectures)
        batched = CharacterizationCache().get_many(
            architectures, device=TINY_DEVICE)
        single_cache = CharacterizationCache()
        for architecture in architectures:
            expected = single_cache.get(architecture,
                                        device=TINY_DEVICE)
            assert_exactly_equal(batched[architecture], expected)

    def test_get_many_counts_like_per_get(self, tmp_path):
        store = CharacterizationStore(tmp_path / "store")
        cache = CharacterizationCache(store=store)
        architectures = tuple(TINY_DEVICE.supported_architectures)
        cache.get_many(architectures, device=TINY_DEVICE)
        assert cache.stats.misses == len(architectures)
        assert cache.stats.hits == 0
        # One store probe and one write per miss, exactly like get().
        assert store.misses == len(architectures)
        cache.get_many(architectures, device=TINY_DEVICE)
        assert cache.stats.hits == len(architectures)
        assert store.misses == len(architectures)

    def test_get_many_serves_stored_entries(self, tmp_path):
        store = CharacterizationStore(tmp_path / "store")
        writer = CharacterizationCache(store=store)
        architectures = tuple(TINY_DEVICE.supported_architectures)
        expected = writer.get_many(architectures, device=TINY_DEVICE)
        reader = CharacterizationCache(store=store)
        served = reader.get_many(architectures, device=TINY_DEVICE)
        for architecture in architectures:
            assert_exactly_equal(served[architecture],
                                 expected[architecture])
        assert store.hits == len(architectures)
