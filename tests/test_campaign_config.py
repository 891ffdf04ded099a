"""CampaignConfig: the consolidated campaign-configuration value object.

Covers the frozen dataclass itself (defaults, validation, ``with_``)
and construction of :class:`VolunteerGridSimulation` from it — including
that the retired loose-keyword style (and its ``server_config`` alias)
is now a plain ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import constants
from repro.boinc import CampaignConfig, scaled_phase1
from repro.boinc.credit import AccountingMode
from repro.boinc.server import ServerConfig
from repro.boinc.simulator import VolunteerGridSimulation
from repro.boinc.validator import ValidationPolicy
from repro.faults import FaultPlan
from repro.maxdo.cost_model import CostModel
from repro.proteins.library import ProteinLibrary
from repro.units import weeks


def _library_and_costs(seed: int = 1):
    library = ProteinLibrary.synthetic(n_proteins=4, sum_nsep=8, seed=seed)
    return library, CostModel.calibrated(library, seed=seed)


class TestConfigValue:
    def test_defaults_are_phase1(self):
        cfg = CampaignConfig()
        assert cfg.packaging is None
        assert cfg.server is None
        assert cfg.faults == FaultPlan.none()
        assert not cfg.faults.enabled
        assert cfg.horizon_weeks == 40.0
        assert cfg.scale == 1.0
        assert cfg.seed == constants.DEFAULT_SEED
        assert cfg.release_policy == "least-cost"

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(horizon_weeks=0.0)
        with pytest.raises(ValueError):
            CampaignConfig(scale=-1.0)

    def test_frozen(self):
        cfg = CampaignConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3

    def test_with_returns_new_instance(self):
        cfg = CampaignConfig()
        derived = cfg.with_(seed=9, horizon_weeks=20.0)
        assert derived.seed == 9
        assert derived.horizon_weeks == 20.0
        assert cfg.seed == constants.DEFAULT_SEED  # original untouched

    def test_with_validates(self):
        with pytest.raises(ValueError):
            CampaignConfig().with_(scale=0.0)

    def test_with_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            CampaignConfig().with_(quorum=3)

    def test_legacy_alias_server_config(self):
        """The retired ``server_config`` alias of ``server`` is rejected
        like any other unknown field."""
        sc = ServerConfig(deadline_s=123456.0)
        with pytest.raises(TypeError, match="server_config"):
            CampaignConfig(server_config=sc)
        with pytest.raises(TypeError, match="server_config"):
            CampaignConfig().with_(server_config=sc)
        with pytest.raises(TypeError, match="server_config"):
            scaled_phase1(scale=900, n_proteins=5, server_config=sc)


class TestConstructionPaths:
    def test_legacy_kwargs_raise_type_error(self):
        """Loose configuration keywords went with the deprecation shim:
        the constructor takes a CampaignConfig and nothing else."""
        library, costs = _library_and_costs()
        for legacy in (
            {"seed": 5},
            {"horizon_weeks": 30.0, "n_hosts_peak": 7},
            {"accounting": AccountingMode.BOINC_CPU_TIME},
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                VolunteerGridSimulation(library, costs, **legacy)

    def test_config_plus_legacy_kwargs_is_an_error(self):
        library, costs = _library_and_costs()
        with pytest.raises(TypeError, match="unexpected keyword"):
            VolunteerGridSimulation(
                library, costs, CampaignConfig(), seed=5
            )

    def test_from_config_does_not_warn(self):
        library, costs = _library_and_costs()
        sc = ServerConfig(validation=ValidationPolicy(switch_time=weeks(4.0)))
        cfg = CampaignConfig(
            server=sc, seed=3, horizon_weeks=30.0,
            accounting=AccountingMode.BOINC_CPU_TIME, n_hosts_peak=7,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = VolunteerGridSimulation(library, costs, cfg)
        assert sim.config == cfg
        assert sim.seed == 3
        assert sim.server_config == sc
        assert sim.accounting is AccountingMode.BOINC_CPU_TIME
        assert sim.n_hosts_peak == 7

    def test_bare_construction_uses_defaults(self):
        library, costs = _library_and_costs()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = VolunteerGridSimulation(library, costs)
        assert sim.config == CampaignConfig()
        assert sim.seed == constants.DEFAULT_SEED


class TestScaledPhase1:
    def test_kwargs_fold_into_config_without_warning(self):
        sc = ServerConfig(deadline_s=123456.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = scaled_phase1(
                scale=900, n_proteins=5, server=sc, n_hosts_peak=9
            )
        assert sim.server_config is sc
        assert sim.n_hosts_peak == 9
        assert sim.config.server is sc

    def test_explicit_args_override_config(self):
        cfg = CampaignConfig(seed=1, scale=2.0, horizon_weeks=10.0)
        sim = scaled_phase1(
            scale=900, n_proteins=5, seed=4, horizon_weeks=30.0, config=cfg
        )
        assert sim.seed == 4
        assert sim.scale == 900
        assert sim.horizon_s == weeks(30.0)

    def test_config_packaging_wins_when_set(self):
        from repro.core.packaging import PackagingPolicy

        custom = PackagingPolicy(target_hours=8.0)
        sim = scaled_phase1(
            scale=900, n_proteins=5, config=CampaignConfig(packaging=custom)
        )
        assert sim.packaging is custom
        default = scaled_phase1(scale=900, n_proteins=5)
        assert default.packaging.target_hours == pytest.approx(3.65)

    def test_fault_plan_threads_through(self):
        cfg = CampaignConfig(faults=FaultPlan.from_spec("outage=2x6,maxreissue=4"))
        sim = scaled_phase1(scale=900, n_proteins=5, config=cfg)
        assert sim.faults.enabled
        assert sim.server_config.max_reissues == 4
        assert len(sim.server_config.outages) == 2
