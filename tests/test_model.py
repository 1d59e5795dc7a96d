"""Tests for problem containers and their validation."""

import dataclasses
import math

import numpy as np
import pytest

from convbsde import (
    EXPLICIT_I,
    EXPLICIT_II,
    SCHEMES,
    SolveAborted,
    brownian_bsde,
    build_grid,
    fbsde,
    solve,
    value_at_start,
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


def test_degenerate_vol_aborts_the_solve_naming_node_and_step():
    # fbsde no longer samples vol at points of its own choosing: the
    # solver checks it on the nodes it reads.  vol = 1 - 0.3|x| is not
    # positive from |x| = 10/3 on, so on a half-width-5 grid the per-node
    # step refuses node 0 (x = -5, vol -0.5) at the first step, 3
    spec = fbsde(
        horizon=1.0,
        steps=4,
        x_init=0.0,
        drift=lambda t, x: np.zeros_like(x),
        vol=lambda t, x: 1.0 - 0.3 * np.abs(x),
        terminal=_identity_terminal,
        driver=_zero_driver,
    )
    with pytest.raises(SolveAborted, match="step 3: non-positive vol -0.5 at node 0"):
        solve(spec, build_grid(0.0, 5.0, 6))
    # a constant vol of 0 takes the constant-coefficient route
    flat = dataclasses.replace(spec, vol=lambda t, x: 0.0)
    with pytest.raises(SolveAborted, match="step 3: vol must be positive"):
        solve(flat, build_grid(0.0, 5.0, 6))
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


@pytest.mark.parametrize("scheme", [EXPLICIT_I, EXPLICIT_II])
@pytest.mark.parametrize(
    "later, message",
    [
        (lambda x: -0.05 + 0.1 * np.tanh(x), r"non-positive vol -0\.1499\d* at node 0"),
        (lambda x: np.where(x > 1.0, np.nan, 0.2), "non-finite vol nan at node 39"),
    ],
    ids=["non-positive", "non-finite"],
)
def test_vol_that_degenerates_at_a_later_step_aborts_naming_node_and_step(
    scheme, later, message
):
    # the per-node tables built at steps 3 and 2 serve no later step:
    # a vol that changes with t is checked again when step 1 rebuilds
    # them, and on a half-width-5 grid of 2^6 nodes the first bad node
    # is x = -5 (vol -0.15) or x = 1.09375
    spec = fbsde(
        horizon=1.0,
        steps=4,
        x_init=0.0,
        drift=lambda t, x: np.zeros_like(x),
        vol=lambda t, x: 0.2 + 0.05 * np.tanh(x) if t > 0.3 else later(x),
        terminal=_identity_terminal,
        driver=_zero_driver,
        scheme=scheme,
    )
    with pytest.raises(SolveAborted, match="step 1: " + message):
        solve(spec, build_grid(0.0, 5.0, 6))


def test_vol_that_vanishes_off_the_grid_solves():
    # 0.2 within 4.5 of the start and 0 at 5 away: fbsde used to reject
    # it by sampling x_init + 5, a point a half-width-2 grid never reads
    x0 = float(np.log(100.0))
    spec = fbsde(
        horizon=1.0,
        steps=20,
        x_init=x0,
        drift=lambda t, x: np.zeros_like(x),
        vol=lambda t, x: np.where(np.abs(np.asarray(x) - x0) <= 4.5, 0.2, 0.0),
        terminal=lambda x: np.maximum(np.exp(x) - 100.0, 0.0),
        driver=_zero_driver,
    )
    assert spec.vol(0.0, x0 + 5.0) == 0.0
    y0, _ = value_at_start(solve(spec, build_grid(x0, 2.0, 9)))
    # E[(100*exp(0.2*W_1) - 100)^+] = 100*(exp(0.02)*Phi(0.2) - 1/2)
    exact = 100.0 * (np.exp(0.02) * 0.5 * (1.0 + math.erf(0.2 / np.sqrt(2.0))) - 0.5)
    assert y0 == pytest.approx(exact, abs=2e-3)


def test_problem_spec_is_frozen():
    spec = brownian_bsde(1.0, 4, _identity_terminal, _zero_driver)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.steps = 8
