"""Tests for campaign configuration and (small) campaign execution."""

import pytest

from repro.arrestor.system import RunConfig, TestCase
from repro.experiments.campaign import (
    E1_VERSIONS,
    CampaignConfig,
    run_e1_campaign,
    run_e2_campaign,
    run_reference_grid,
)


class TestCampaignConfig:
    def test_defaults(self):
        config = CampaignConfig()
        assert config.versions == E1_VERSIONS
        assert config.injection_period_ms == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(cases_all=0)
        with pytest.raises(ValueError, match="unknown versions"):
            CampaignConfig(versions=("EA9",))

    def test_run_config_of_another_target_fails_at_construction(self):
        from repro.targets.registry import get_target
        from repro.targets.tanklevel import TankRunConfig

        with pytest.raises(TypeError, match="arrestor expects a RunConfig, got TankRunConfig"):
            CampaignConfig(target="arrestor", run_config=TankRunConfig())
        with pytest.raises(TypeError, match="tanklevel expects a TankRunConfig, got RunConfig"):
            CampaignConfig(target="tanklevel", run_config=RunConfig())
        with pytest.raises(TypeError, match="arrestor expects a RunConfig"):
            get_target("arrestor").boot(TestCase(14000.0, 55.0), run_config=TankRunConfig())
        assert CampaignConfig(target="tanklevel", run_config=TankRunConfig()).run_config

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignConfig(workers=0)
        with pytest.raises(ValueError, match="run_timeout_s"):
            CampaignConfig(run_timeout_s=0)


class TestSmallCampaigns:
    """Execute miniature campaigns end to end (filtered error sets)."""

    def test_e1_partial_campaign_mscnt_only(self):
        config = CampaignConfig(cases_all=1, versions=("All",))
        results = run_e1_campaign(config, error_filter=lambda e: e.signal == "mscnt")
        assert len(results) == 16
        triple = results.coverage(signal="mscnt", version="All")
        assert triple.p_d.percent == 100.0  # the paper's mscnt row

    def test_e1_progress_hook_called(self):
        config = CampaignConfig(cases_all=1, versions=("All",))
        seen = []
        run_e1_campaign(
            config,
            progress=lambda done, total: seen.append((done, total)),
            error_filter=lambda e: e.signal == "i" and e.signal_bit < 2,
        )
        assert seen == [(1, 2), (2, 2)]

    def test_e2_partial_campaign(self):
        config = CampaignConfig(cases_e2=1)
        # Pick a handful of RAM errors only.
        results = run_e2_campaign(
            config, error_filter=lambda e: e.name in ("R1", "R2", "R3")
        )
        assert len(results) == 3
        assert all(r.area == "ram" for r in results.records)


class TestReferenceGrid:
    def test_config_run_config_is_honoured(self):
        # A truncated observation window proves the config reached the
        # controller: the run ends at the window, long before the ~10 s
        # an arrestment takes.
        config = CampaignConfig(run_config=RunConfig(observe_ms_max=50))
        records = run_reference_grid(config=config)
        assert len(records) == 25
        assert all(r.result.duration_ms <= 51 for r in records)
        assert all(r.error is None for r in records)
