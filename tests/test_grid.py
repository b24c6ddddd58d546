import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stripwave import (Grid, HomotopyFamily, ModelParams, WaveState, build_grid, field_views,
                       state_to_vector, vector_to_state)
from stripwave.errors import AnchorNotOnGrid, BadExtent

PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)


def test_build_grid_spacings_and_anchor():
    g = build_grid(PARAMS, -20.0, 20.0, 401, 21)
    assert g.hx == pytest.approx(0.1, abs=1e-15)
    assert g.hy == pytest.approx(0.05, abs=1e-15)
    assert g.anchor_ix == 200
    assert g.anchor_iy == 10
    assert g.x[g.anchor_ix] == pytest.approx(0.0, abs=1e-13)
    assert g.y[g.anchor_iy] == pytest.approx(-0.5, abs=1e-13)


def test_bad_extent():
    with pytest.raises(BadExtent):
        build_grid(PARAMS, 1.0, 20.0, 401, 21)
    with pytest.raises(BadExtent):
        build_grid(PARAMS, -20.0, -1.0, 401, 21)


def test_anchor_not_on_grid():
    # ny = 20 puts no node at y = -L/2
    with pytest.raises(AnchorNotOnGrid):
        build_grid(PARAMS, -20.0, 20.0, 401, 20)
    # x nodes miss 0 for these extents
    with pytest.raises(AnchorNotOnGrid):
        build_grid(PARAMS, -20.5, 20.0, 401, 21)


@pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
def test_grid_refuses_a_depth_that_is_not_positive_and_finite(L):
    # NaN and inf pass an `L <= 0` test; NaN would give hy = NaN
    with pytest.raises(ValueError, match="Grid.L must be positive and finite"):
        Grid(-160.0, 80.0, L, 481, 11)


def flat_state(g, family, c=0.5):
    phi = np.zeros(g.nx) if family.is_exchange else None
    return WaveState(c=c, psi=np.zeros((g.ny, g.nx)), phi=phi, family=family)


def test_dof_layout_totals():
    g = build_grid(PARAMS, -20.0, 20.0, 401, 21)
    wz = state_to_vector(flat_state(g, HomotopyFamily.wentzell(0.5)), g)
    assert wz.size == 401 * 21 + 1 == 8422
    assert wz[-1] == 0.5  # c last
    ex = state_to_vector(flat_state(g, HomotopyFamily.exchange(0.5)), g)
    assert ex.size == 401 * 21 + 401 + 1 == 8823
    assert ex[-1] == 0.5


def test_dof_layout_minimal_grid():
    # the layout works even on grids with no anchor node
    g = Grid(x_left=-1.0, x_right=1.0, L=1.0, nx=3, ny=2)
    assert state_to_vector(flat_state(g, HomotopyFamily.wentzell(0.0)), g).size == 7


@given(st.integers(min_value=3, max_value=50), st.integers(min_value=2, max_value=50),
       st.sampled_from([HomotopyFamily.wentzell(0.5), HomotopyFamily.exchange(0.5)]))
def test_node_index_round_trip(nx, ny, family):
    g = Grid(x_left=-1.0, x_right=1.0, L=1.0, nx=nx, ny=ny)
    rng = np.random.default_rng(nx * 64 + ny)
    state = WaveState(c=rng.uniform(), psi=rng.uniform(size=(ny, nx)),
                      phi=rng.uniform(size=nx) if family.is_exchange else None, family=family)
    u = state_to_vector(state, g)
    back = vector_to_state(u, g, family)
    assert back.c == state.c and np.array_equal(back.psi, state.psi)
    assert back.phi is None if state.phi is None else np.array_equal(back.phi, state.phi)
    # each unknown has one position, c the last; column i of the grid (its
    # strip nodes and its line node) is the contiguous block u[i*m:(i+1)*m]
    m = ny + family.is_exchange
    index, line = field_views(np.arange(u.size), g, family)
    blocks = np.vstack([index] if line is None else [index, line])
    assert np.array_equal(blocks.T.ravel(), np.arange(u.size - 1))
    assert blocks.shape == (m, nx)


def test_halving_doubles_intervals():
    g1 = build_grid(PARAMS, -20.0, 20.0, 401, 21)
    g2 = build_grid(PARAMS, -20.0, 20.0, 801, 41)
    assert (g2.nx - 1) == 2 * (g1.nx - 1)
    assert (g2.ny - 1) == 2 * (g1.ny - 1)
    assert g2.hx == pytest.approx(g1.hx / 2)
    assert g2.hy == pytest.approx(g1.hy / 2)
