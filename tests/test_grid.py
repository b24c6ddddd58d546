import numpy as np
import pytest
from hypothesis import given, strategies as st

from stripwave import (Grid, HomotopyFamily, ModelParams, build_grid, dof_layout)
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


def test_dof_layout_totals():
    g = build_grid(PARAMS, -20.0, 20.0, 401, 21)
    wz = dof_layout(g, HomotopyFamily.wentzell(0.5))
    assert wz.total == 401 * 21 + 1 == 8422
    assert wz.c_index == 401 * 21
    assert wz.line_offset is None
    ex = dof_layout(g, HomotopyFamily.exchange(0.5))
    assert ex.total == 401 * 21 + 401 + 1 == 8823
    assert ex.line_offset == 401 * 21
    assert ex.c_index == 401 * 21 + 401


def test_dof_layout_minimal_grid():
    # layout arithmetic works even on grids with no anchor node
    g = Grid(x_left=-1.0, x_right=1.0, L=1.0, nx=3, ny=2)
    assert dof_layout(g, HomotopyFamily.wentzell(0.0)).total == 7


@given(st.integers(min_value=3, max_value=50), st.integers(min_value=2, max_value=50))
def test_node_index_round_trip(nx, ny):
    g = Grid(x_left=-1.0, x_right=1.0, L=1.0, nx=nx, ny=ny)
    for j in (0, ny // 2, ny - 1):
        for i in (0, nx // 2, nx - 1):
            assert g.node_index(i, j) == np.arange(nx * ny).reshape(ny, nx)[j, i]


def test_halving_doubles_intervals():
    g1 = build_grid(PARAMS, -20.0, 20.0, 401, 21)
    g2 = build_grid(PARAMS, -20.0, 20.0, 801, 41)
    assert (g2.nx - 1) == 2 * (g1.nx - 1)
    assert (g2.ny - 1) == 2 * (g1.ny - 1)
    assert g2.hx == pytest.approx(g1.hx / 2)
    assert g2.hy == pytest.approx(g1.hy / 2)
