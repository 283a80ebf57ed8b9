"""The DRAM configuration a characterization is measured under.

The paper measures its Fig.-1 per-condition costs once per DRAM
configuration and Algorithm 1 then reuses them.  A :class:`Scenario`
is that configuration as one frozen, hashable value:

* ``device`` — the :class:`~repro.dram.device.DeviceProfile` (geometry,
  speed grade, IDD currents and capability set), with any geometry
  override already folded in;
* ``controller`` — the :class:`~repro.dram.policies.ControllerConfig`
  (scheduler and row policy);
* ``contention`` — the :class:`~repro.dram.contention.ContentionConfig`
  (requestor count and arbiter).

Together with the architecture it is the key of every
characterization layer: the in-process
:class:`~repro.dram.characterize.CharacterizationCache` memo, the
on-disk store's spec hash (:func:`repro.dram.store.spec_hash`, store
format v2), the kernel's batch characterizer and the DSE engine's
pickled :class:`~repro.core.engine.ExplorationContext`.  Two
configurations that differ in any parameter therefore never share
costs.  The characterization backend (kernel or simulator) is not part
of it: both produce exactly equal results wherever both apply.

Public entry points keep their ``device=`` / ``organization=`` /
``controller=`` / ``contention=`` keywords and call :meth:`Scenario.of`
once on entry; everything below them takes the one value.

Example
-------
>>> from repro.dram.policies import controller_config
>>> scenario = Scenario.of(controller=controller_config("fr-fcfs"))
>>> scenario.device.name, scenario.controller.label
('ddr3-1600-2gb-x8', 'fr-fcfs/open')
>>> scenario == Scenario.of(controller=controller_config("fr-fcfs"))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .contention import ContentionConfig, resolve_contention
from .device import DeviceProfile, resolve_device
from .policies import ControllerConfig, resolve_controller
from .spec import DRAMOrganization


@dataclass(frozen=True)
class Scenario:
    """Device profile, controller and channel contention of one run."""

    device: DeviceProfile
    controller: ControllerConfig
    contention: ContentionConfig

    @classmethod
    def of(
        cls,
        device: Optional[DeviceProfile] = None,
        organization: Optional[DRAMOrganization] = None,
        controller: Optional[ControllerConfig] = None,
        contention: Optional[ContentionConfig] = None,
    ) -> "Scenario":
        """Validate and default the public keywords into a scenario.

        ``None`` selects the paper's Table-II device, the FCFS/open-row
        controller and the uncontended channel; a non-``None``
        ``organization`` overrides the device's geometry.  A value of
        the wrong type raises :class:`~repro.errors.ConfigurationError`
        naming what to pass instead.
        """
        return cls(resolve_device(device, organization),
                   resolve_controller(controller),
                   resolve_contention(contention))
