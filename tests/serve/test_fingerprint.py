"""The config fingerprint against its ``dataclasses.asdict`` oracle."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import ExperimentConfig, smoke_scale
from repro.serve.artifacts import (
    _config_from_dict,
    _config_to_dict,
    config_fingerprint,
)
from tests.oracles.config import config_fingerprint_reference

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _perfbench_configs() -> list[ExperimentConfig]:
    """The campaign and acoustic configs of the repository benchmark."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from campaign import acoustic_config, campaign_config
    finally:
        sys.path.remove(str(PERFBENCH))
    return [campaign_config(3), acoustic_config(3)]


CONFIGS = dict(
    zip(("perfbench_campaign", "perfbench_acoustic"), _perfbench_configs()),
    default=ExperimentConfig(),
    smoke=smoke_scale(),
    acoustic=replace(smoke_scale(4), frontend_mode="acoustic"),
)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digest_matches_the_asdict_form(name):
    config = CONFIGS[name]
    assert config_fingerprint(config) == config_fingerprint_reference(config)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dict_round_trips(name):
    config = CONFIGS[name]
    assert _config_from_dict(_config_to_dict(config)) == config
