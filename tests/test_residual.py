import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import csc_reference, residual_reference, self_reference
from stripwave import (HomotopyFamily, ModelParams, NonlinearityKind, NonlinearitySpec,
                       WaveState, assemble_jacobian, assemble_residual, build_grid,
                       eval_nonlinearity, field_views, state_to_vector, vector_to_state)
from stripwave.errors import ShapeMismatch
from stripwave.residual import SELF

PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
SPEC = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)


def small_grid(nx=13, ny=5, x_left=-2.0, x_right=1.0):
    return build_grid(PARAMS, x_left, x_right, nx, ny)


def make_state(grid, family, psi=None, phi=None, c=0.7):
    if psi is None:
        psi = np.zeros((grid.ny, grid.nx))
    if family.is_exchange and phi is None:
        phi = np.zeros(grid.nx)
    return WaveState(c=c, psi=psi, phi=phi, family=family)


@pytest.mark.parametrize("family", [HomotopyFamily.wentzell(1.0), HomotopyFamily.exchange(0.5)])
def test_zero_state_rows(family):
    grid = small_grid()
    state = make_state(grid, family)
    R = assemble_residual(state, PARAMS, SPEC, grid)
    expected = np.zeros_like(R)
    psi_rows, line_rows = field_views(expected, grid, family)
    psi_rows[:, -1] = -1.0
    if family.is_exchange:
        line_rows[-1] = -1.0
    expected[-1] = -(1.0 + SPEC.theta) / 2.0
    assert np.allclose(R, expected, atol=1e-15)


@pytest.mark.parametrize("family", [HomotopyFamily.wentzell(1.0), HomotopyFamily.exchange(0.5)])
def test_one_state_rows(family):
    grid = small_grid()
    psi = np.ones((grid.ny, grid.nx))
    phi = np.full(grid.nx, 1.0 / PARAMS.mu) if family.is_exchange else None
    state = make_state(grid, family, psi=psi, phi=phi)
    R = assemble_residual(state, PARAMS, SPEC, grid)
    expected = np.zeros_like(R)
    psi_rows, line_rows = field_views(expected, grid, family)
    psi_rows[:, 0] = 1.0
    if family.is_exchange:
        line_rows[0] = 1.0
    expected[-1] = 1.0 - (1.0 + SPEC.theta) / 2.0
    assert np.allclose(R, expected, atol=1e-15)


def test_quadratic_is_exact_in_interior():
    # psi = x^2 with values below theta: interior row is exactly -2d + 2cx
    grid = build_grid(PARAMS, -0.4, 0.2, 13, 5)
    x = grid.x
    psi = np.tile(x * x, (grid.ny, 1))
    assert psi.max() < SPEC.theta
    c = 0.7
    state = make_state(grid, HomotopyFamily.wentzell(0.0), psi=psi, c=c)
    R, _ = field_views(assemble_residual(state, PARAMS, SPEC, grid), grid, state.family)
    for j in range(1, grid.ny - 1):
        for i in range(1, grid.nx - 1):
            assert R[j, i] == pytest.approx(-2.0 * PARAMS.d + 2.0 * c * x[i], abs=1e-12)


def test_shape_mismatch():
    grid = small_grid()
    state = make_state(small_grid(nx=16), HomotopyFamily.wentzell(0.5))
    with pytest.raises(ShapeMismatch):
        assemble_residual(state, PARAMS, SPEC, grid)


def test_c_column_zero_for_flat_state():
    grid = small_grid()
    family = HomotopyFamily.wentzell(0.8)
    state = make_state(grid, family)
    J = assemble_jacobian(state, PARAMS, SPEC, grid)
    col = csc_reference(J).toarray()[:, -1]
    assert np.all(col == 0.0)


def test_interior_diagonal_matches_hand_stencil():
    # 5x5 grid, hx = hy = h: diagonal entry is 2d/hx^2 + 2d/hy^2 - f'(psi) = 4d/h^2 - f'(psi)
    grid = build_grid(PARAMS, -0.5, 0.5, 5, 5)
    assert grid.hx == pytest.approx(grid.hy)
    h = grid.hx
    rng = np.random.default_rng(7)
    psi = rng.uniform(0.0, 1.0, size=(5, 5))
    state = make_state(grid, HomotopyFamily.wentzell(0.3), psi=psi, c=0.4)
    J = csc_reference(assemble_jacobian(state, PARAMS, SPEC, grid)).toarray()
    index, _ = field_views(np.arange(J.shape[0]), grid, state.family)
    for j in range(1, 4):
        for i in range(1, 4):
            k = index[j, i]
            _, fp = eval_nonlinearity(float(psi[j, i]), SPEC)
            assert J[k, k] == pytest.approx(4.0 * PARAMS.d / h**2 - fp, rel=1e-14)
            assert J[k, index[j, i - 1]] == pytest.approx(-PARAMS.d / h**2 - 0.4 / (2 * h),
                                                          rel=1e-14)
            assert J[k, index[j, i + 1]] == pytest.approx(-PARAMS.d / h**2 + 0.4 / (2 * h),
                                                          rel=1e-14)


def random_state(grid, family, rng):
    psi = rng.uniform(0.0, 1.0, size=(grid.ny, grid.nx))
    phi = rng.uniform(0.0, 1.0 / PARAMS.mu, size=grid.nx) if family.is_exchange else None
    c = rng.uniform(0.1, 1.0)
    return WaveState(c=c, psi=psi, phi=phi, family=family)


@pytest.mark.parametrize("family", [HomotopyFamily.wentzell(0.6), HomotopyFamily.exchange(0.3)])
def test_jacobian_matches_directional_finite_difference(family):
    grid = small_grid(nx=22, ny=7)
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(20):
        state = random_state(grid, family, rng)
        u = state_to_vector(state, grid)
        v = rng.uniform(-1.0, 1.0, size=u.size)

        def res(vec):
            return assemble_residual(vector_to_state(vec, grid, family), PARAMS, SPEC, grid)

        J = assemble_jacobian(state, PARAMS, SPEC, grid)
        jv = J @ v
        fd = (res(u + h * v) - res(u - h * v)) / (2.0 * h)
        err = np.abs(fd - jv).max()
        assert err <= 1e-6 * (1.0 + np.abs(jv).max())


def test_exchange_rows_collapse_to_wentzell_row():
    """With mu*phi identical to the top trace, the 1/eps exchange terms
    cancel in (top row) + (line row), leaving exactly the Wentzell(1)
    boundary row: the two families are one model seen two ways."""
    grid = small_grid(nx=25, ny=7)
    x, y = grid.x, grid.y
    psi = 0.5 * (1.0 + np.tanh(np.subtract.outer(0.3 * y, -x)))  # smooth, x-increasing
    phi = psi[-1, :] / PARAMS.mu
    c = 0.55
    eps = 0.3
    ex = WaveState(c=c, psi=psi.copy(), phi=phi, family=HomotopyFamily.exchange(eps))
    wz = WaveState(c=c, psi=psi.copy(), phi=None, family=HomotopyFamily.wentzell(1.0))
    R_ex, R_line = field_views(assemble_residual(ex, PARAMS, SPEC, grid), grid, ex.family)
    R_wz, _ = field_views(assemble_residual(wz, PARAMS, SPEC, grid), grid, wz.family)
    for i in range(1, grid.nx - 1):
        combined = R_ex[-1, i] + R_line[i]
        assert combined == pytest.approx(R_wz[-1, i], abs=1e-11)


def analytic_interior(psi_fn, d, c, spec, x, y, k, m):
    xx, yy = np.meshgrid(x, y)
    lap = -(k * k + m * m) * np.sin(k * xx) * np.cos(m * yy)
    ddx = k * np.cos(k * xx) * np.cos(m * yy)
    f_val, _ = eval_nonlinearity(np.sin(k * xx) * np.cos(m * yy), spec)
    return -d * lap + c * ddx - f_val


def test_interior_stencil_is_second_order():
    k, m, c = 0.9, 1.3, 0.35
    errs = []
    for nx, ny in ((41, 9), (81, 17)):
        grid = build_grid(PARAMS, -2.0, 2.0, nx, ny)
        xx, yy = np.meshgrid(grid.x, grid.y)
        psi = np.sin(k * xx) * np.cos(m * yy)
        state = make_state(grid, HomotopyFamily.wentzell(0.0), psi=psi, c=c)
        R = assemble_residual(state, PARAMS, SPEC, grid)
        exact = analytic_interior(None, PARAMS.d, c, SPEC, grid.x, grid.y, k, m)
        R_grid, _ = field_views(R, grid, state.family)
        errs.append(np.abs(R_grid[1:-1, 1:-1] - exact[1:-1, 1:-1]).max())
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_interior_block_structurally_symmetric():
    grid = small_grid(nx=13, ny=5)
    rng = np.random.default_rng(3)
    psi = rng.uniform(0.0, 1.0, size=(grid.ny, grid.nx))
    state = make_state(grid, HomotopyFamily.wentzell(0.7), psi=psi, c=0.4)
    J = csc_reference(assemble_jacobian(state, PARAMS, SPEC, grid)).toarray()
    index, _ = field_views(np.arange(J.shape[0]), grid, state.family)
    interior = index[1:-1, 1:-1].ravel()
    sub = J[np.ix_(interior, interior)]
    pattern = (sub != 0).astype(int)
    assert np.array_equal(pattern, pattern.T)


# --- the Jacobian's diagonals -----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(nx=st.integers(3, 30), half_ny=st.integers(1, 6), anchor=st.floats(0.0, 1.0),
       family=st.sampled_from([HomotopyFamily.wentzell(0.0), HomotopyFamily.wentzell(0.6),
                               HomotopyFamily.exchange(0.05), HomotopyFamily.exchange(1.0)]),
       seed=st.integers(0, 2**32 - 1))
def test_jacobian_is_banded_and_pins_its_anchor(nx, half_ny, anchor, family, seed):
    ix = 1 + round(anchor * (nx - 3))  # the anchor column x = 0, strictly inside
    grid = build_grid(PARAMS, -0.5 * ix, 0.5 * (nx - 1 - ix), nx, 2 * half_ny + 1)
    state = random_state(grid, family, np.random.default_rng(seed))
    J = assemble_jacobian(state, PARAMS, SPEC, grid)
    again = assemble_jacobian(state, PARAMS, SPEC, grid)
    # bit for bit, signed zeros included (at s = 0 the top rows hold -0.0)
    assert J.diags.tobytes() == again.diags.tobytes() and J.b.tobytes() == again.b.tobytes()
    # every diagonal slot whose column lies outside J holds 0: the diagonals of
    # the dense J (its scipy reference, equal by value: it drops the sign of a
    # -0.0) are J.diags, and the phase row pins the anchor
    dense = csc_reference(J).toarray()
    m, n = grid.ny + family.is_exchange, J.shape[0] - 1
    assert J.m == m and J.anchor == grid.anchor_ix * m + grid.anchor_iy
    for row, o in zip(J.diags, J.offsets):
        assert np.array_equal(np.pad(np.diagonal(dense[:n, :n], o), (max(-o, 0), max(o, 0))),
                              row)
    assert np.array_equal(dense[:n, n], J.b)
    assert np.flatnonzero(dense[n]).tolist() == [J.anchor] and dense[n, J.anchor] == 1.0
    x = np.random.default_rng(seed).standard_normal(n + 1)
    assert np.allclose(J @ x, dense @ x, rtol=1e-14, atol=1e-14 * np.abs(dense).sum(axis=1).max())


@pytest.mark.parametrize("nx, ny, slots", [(481, 11, (30_200, 31_639)),
                                           (961, 41, (233_120, 235_999))],
                         ids=["481x11", "961x41"])
def test_nnz_counts_the_stencil_slots(nx, ny, slots):
    # J.nnz counts each slot a stencil term writes, whatever its value: at
    # Wentzell s = 0 the top rows' x-terms are zeros, and where psi is flat
    # the c column is.  J @ x is the product of its CSC reference to roundoff
    grid = build_grid(PARAMS, -160.0, 80.0, nx, ny)
    psi = np.tile(np.clip((grid.x + 10.0) / 20.0, 0.0, 1.0), (ny, 1))  # flat away from the front
    rng = np.random.default_rng(nx)
    for family, count in zip((HomotopyFamily.wentzell(0.0), HomotopyFamily.exchange(0.05)), slots):
        state = make_state(grid, family, psi=psi, phi=psi[-1] if family.is_exchange else None)
        J = assemble_jacobian(state, PARAMS, SPEC, grid)
        assert J.nnz == count
        reference = csc_reference(J)
        assert np.count_nonzero(J.diags) + np.count_nonzero(J.b) + 1 < J.nnz
        assert reference.count_nonzero() < J.nnz
        x = rng.standard_normal(J.shape[0])
        scale = np.abs(reference).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(J @ x - reference @ x).max() <= 1e-14 * scale


def column_order_product(J, x):
    """J x, each row summed over its diagonals LEFT .. RIGHT and then its c
    column, one vector expression per term: a reference for `Jacobian.__matmul__`."""
    n, m = J.b.size, J.m
    xp = np.zeros(n + 2 * m)
    xp[m:m + n] = x[:n]
    y = np.empty(n + 1)
    y[:n] = J.diags[0] * xp[:n]
    for row, o in zip(J.diags[1:], J.offsets[1:]):
        y[:n] = y[:n] + row * xp[m + o:m + o + n]
    y[:n] = y[:n] + J.b * x[n]
    y[n] = x[J.anchor]
    return y


@pytest.mark.parametrize("family", [HomotopyFamily.wentzell(0.0), HomotopyFamily.wentzell(0.7),
                                    HomotopyFamily.exchange(0.05)], ids=str)
def test_product_is_the_column_order_sum(family):
    # bit for bit, on random states and vectors, so that the backward-error
    # test of every linear solve reads the same residual
    grid = build_grid(PARAMS, -20.0, 10.0, 121, 9)
    rng = np.random.default_rng(7)
    for _ in range(5):
        J = assemble_jacobian(random_state(grid, family, rng), PARAMS, SPEC, grid)
        x = rng.standard_normal(J.shape[0])
        assert (J @ x).tobytes() == column_order_product(J, x).tobytes()


def front_variants(state, theta):
    """A converged front, the same front at or below theta everywhere, with one
    node far left of it exactly at theta, and scaled to reach above 1."""
    at_theta = state.psi.copy()
    at_theta[3, 100] = theta  # x = -135, where the front is below 1e-6
    phi = state.phi
    variants = {"converged": (state.psi, phi), "at_or_below": (np.minimum(state.psi, theta), phi),
                "at_theta": (at_theta, phi),
                "above_one": (1.1 * state.psi, None if phi is None else 1.1 * phi)}
    return {name: WaveState(c=state.c, psi=psi, phi=phi, family=state.family)
            for name, (psi, phi) in variants.items()}


@pytest.mark.parametrize("kind", list(NonlinearityKind))
@pytest.mark.parametrize("stage", ["stage_a", "stage_c"])
def test_residual_and_diagonal_are_the_full_array_bits(full_path, stage, kind):
    # f and f' are evaluated only from the first column with a node above
    # theta (at or above, for f'); the bits are those of the full-array forms.
    # The oracle's f'(theta) = -1 catches a column rule off by one
    grid, spec = full_path["grid"], NonlinearitySpec(kind=kind, theta=SPEC.theta)
    for name, state in front_variants(full_path[stage].state, spec.theta).items():
        R = assemble_residual(state, PARAMS, spec, grid)
        assert np.array_equal(R.view(np.int64),
                              residual_reference(state, PARAMS, spec, grid).view(np.int64)), name
        J = assemble_jacobian(state, PARAMS, spec, grid)
        diag = field_views(np.append(J.diags[SELF], 0.0), grid, state.family)[0][1:-1, 1:-1]
        assert np.array_equal(diag.view(np.int64),
                              self_reference(state, PARAMS, spec, grid).view(np.int64)), name
