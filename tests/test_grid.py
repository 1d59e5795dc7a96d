"""Tests for the paired space/frequency grid construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convbsde import GridPair, build_grid

TWO_PI = 2.0 * np.pi


def test_field_values_for_log_price_grid():
    g = build_grid(float(np.log(100.0)), 5.0, 12)
    assert g.N == 4096
    assert g.l == 10.0
    assert g.dx == 10.0 / 4096
    # dnu = 2*pi/l with l=10; the frequency width N*dnu = 2*pi*N/l
    assert g.dnu == TWO_PI / 10.0
    assert g.N * g.dnu == pytest.approx(2573.5927018207585, abs=1e-9)
    assert g.x0 == pytest.approx(np.log(100.0) - 5.0, abs=1e-12)


def test_space_frequency_spacing_product():
    # dx * dnu = 2*pi/N for every grid; exact small case: 2*pi/8
    g = build_grid(0.0, 1.0, 3)
    assert g.dx * g.dnu == pytest.approx(0.7853981633974483, abs=1e-15)


@given(
    center=st.floats(-10.0, 10.0),
    half_width=st.floats(0.1, 50.0),
    log2N=st.integers(2, 14),
)
@settings(max_examples=60, deadline=None)
def test_nyquist_coupling_and_center_node(center, half_width, log2N):
    g = build_grid(center, half_width, log2N)
    assert g.dnu * g.l == pytest.approx(TWO_PI, rel=1e-15)
    assert g.dx * g.N == g.l
    # the initial state sits exactly on the middle node
    assert g.space_nodes(include_right=True)[g.N // 2] == center


def test_node_arrays_have_expected_shape_and_spacing():
    g = build_grid(1.5, 2.0, 6)
    x = g.space_nodes()
    x_full = g.space_nodes(include_right=True)
    nu = g.frequencies()
    assert x.shape == (g.N,)
    assert x_full.shape == (g.N + 1,)
    assert nu.shape == (g.N // 2 + 1,)
    assert x_full[0] == pytest.approx(g.x0, abs=0.0)
    assert x_full[-1] == pytest.approx(g.x0 + g.l, rel=1e-15)
    assert np.max(np.abs(np.diff(x_full) - g.dx)) <= 1e-12
    assert np.max(np.abs(np.diff(nu) - g.dnu)) <= 1e-9


def test_frequency_nodes_run_from_zero_to_nyquist():
    g = build_grid(0.0, 2.0, 5)
    nu = g.frequencies()
    assert nu[0] == 0.0
    # the last real-FFT node is the Nyquist frequency pi/dx
    assert nu[-1] == pytest.approx(np.pi / g.dx, rel=1e-15)


def test_invalid_arguments_are_rejected():
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 25)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 3.5)
    with pytest.raises(ValueError):
        build_grid(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        build_grid(0.0, -1.0, 5)
    with pytest.raises(ValueError):
        build_grid(np.inf, 1.0, 5)


def test_grid_is_immutable():
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(Exception):
        g.N = 32


def test_grid_stores_three_numbers():
    # every other grid quantity is derived, so a directly built grid
    # cannot break the coupling or move the center off x_{N/2}
    g = GridPair(N=8, center=0.5, half_width=2.0)
    assert [f.name for f in dataclasses.fields(GridPair)] == ["N", "center", "half_width"]
    assert g == build_grid(0.5, 2.0, 3)
    assert (g.x0, g.l, g.dx) == (-1.5, 4.0, 0.5)
    assert g.space_nodes()[g.N // 2] == g.center
