"""Tests for simulation configuration validation."""

from __future__ import annotations

import pytest

from repro.core.config import ProjectionEngine, SimulationConfig, UtilityModel


def test_defaults():
    cfg = SimulationConfig()
    assert cfg.theta == 0.05
    assert cfg.utility_model is UtilityModel.OUTGOING
    assert cfg.projection is ProjectionEngine.FULL


def test_negative_theta_rejected():
    with pytest.raises(ValueError):
        SimulationConfig(theta=-0.1)


def test_bad_rounds_rejected():
    with pytest.raises(ValueError):
        SimulationConfig(max_rounds=0)


def test_bad_workers_rejected():
    with pytest.raises(ValueError):
        SimulationConfig(workers=0)


def test_turn_off_only_under_incoming():
    assert not SimulationConfig(utility_model=UtilityModel.OUTGOING).turn_off_enabled
    assert SimulationConfig(utility_model=UtilityModel.INCOMING).turn_off_enabled


def test_frozen():
    cfg = SimulationConfig()
    with pytest.raises(Exception):
        cfg.theta = 0.2  # type: ignore[misc]
