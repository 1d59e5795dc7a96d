"""Tests for problem containers and their validation."""

import dataclasses

import numpy as np
import pytest

from convbsde import (
    EXPLICIT_I,
    EXPLICIT_II,
    SCHEMES,
    brownian_bsde,
    fbsde,
)


def _zero_driver(t, x, y, z):
    return np.zeros_like(x)


def _identity_terminal(x):
    return x


def test_scheme_constants():
    assert EXPLICIT_I in SCHEMES
    assert EXPLICIT_II in SCHEMES
    assert EXPLICIT_I != EXPLICIT_II


def test_brownian_problem_defaults():
    spec = brownian_bsde(
        horizon=2.0, steps=8, terminal=_identity_terminal, driver=_zero_driver
    )
    assert spec.x_init == 0.0
    assert spec.scheme == EXPLICIT_II
    assert spec.barrier is None
    assert spec.step_size == pytest.approx(0.25, abs=0.0)
    times = spec.times()
    assert times.shape == (9,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(2.0, rel=1e-15)
    x = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(spec.drift(0.0, x), np.zeros(5))
    assert np.array_equal(spec.vol(0.0, x), np.ones(5))


def test_mesh_validation():
    with pytest.raises(ValueError):
        brownian_bsde(0.0, 10, _identity_terminal, _zero_driver)
    with pytest.raises(ValueError):
        brownian_bsde(-1.0, 10, _identity_terminal, _zero_driver)
    with pytest.raises(ValueError):
        brownian_bsde(1.0, 0, _identity_terminal, _zero_driver)
    with pytest.raises(ValueError):
        brownian_bsde(1.0, -3, _identity_terminal, _zero_driver)


def test_scheme_validation():
    with pytest.raises(ValueError):
        brownian_bsde(1.0, 10, _identity_terminal, _zero_driver, scheme="explicit_III")


def test_fbsde_accepts_positive_vol():
    spec = fbsde(
        horizon=1.0,
        steps=4,
        x_init=0.5,
        drift=lambda t, x: 0.1 * np.ones_like(x),
        vol=lambda t, x: 1.0 + 0.01 * np.abs(x),
        terminal=_identity_terminal,
        driver=_zero_driver,
    )
    assert spec.x_init == 0.5
    assert spec.barrier is None


def test_fbsde_rejects_degenerate_vol():
    # vol turns negative within the probed neighborhood of the start
    with pytest.raises(ValueError):
        fbsde(
            horizon=1.0,
            steps=4,
            x_init=0.0,
            drift=lambda t, x: np.zeros_like(x),
            vol=lambda t, x: 1.0 - 0.3 * np.abs(x),
            terminal=_identity_terminal,
            driver=_zero_driver,
        )
    with pytest.raises(ValueError):
        fbsde(
            horizon=1.0,
            steps=4,
            x_init=np.inf,
            drift=lambda t, x: np.zeros_like(x),
            vol=lambda t, x: np.ones_like(x),
            terminal=_identity_terminal,
            driver=_zero_driver,
        )


def test_problem_spec_is_frozen():
    spec = brownian_bsde(1.0, 4, _identity_terminal, _zero_driver)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.steps = 8
