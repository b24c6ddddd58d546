import collections
import concurrent.futures
import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from conftest import (classify, csc_reference, reference_trajectory, rk4, sampled_profile,
                      scalar_reaction)
from stripwave import solver
from stripwave import (Grid, HomotopyFamily, ModelParams, NewtonOptions, NonlinearityKind,
                       NonlinearitySpec, WaveState, assemble_jacobian, assemble_residual,
                       build_grid, c_max, continue_wentzell, embed_one_dim_wave, field_views,
                       handoff_to_system, linear_solve, make_record, newton_solve, one_dim_guess,
                       one_dim_start, solve_1d_ignition_shooting, state_to_vector,
                       vector_to_state)
from stripwave.errors import (BracketNotFound, LinearSolveFailed, MaxItersExceeded,
                              SolverError, StepUnderflow)

PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
CUBIC = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)
PLO25 = NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE, theta=0.25)
ORACLE90 = NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE, theta=0.9)


# --- linear solve -------------------------------------------------------------

def test_linear_solve_structurally_singular():
    # a bordered Jacobian with a zeroed interior column
    grid = build_grid(PARAMS, -160.0, 80.0, 481, 11)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid)
    column = (grid.nx // 3) * grid.ny + 5
    J.diags[np.arange(7), column - J.offsets] = 0.0
    with pytest.raises(LinearSolveFailed, match="exactly singular"):
        linear_solve(J, np.ones(J.shape[0]))


@pytest.mark.parametrize("other", ["csr_to_csc", "lil", "3x4"])
def test_only_an_assembled_jacobian_is_factored(other):
    # the band LU reads J's diagonals: any other matrix is refused, even one
    # with the same entries
    grid = build_grid(PARAMS, -20.0, 20.0, 41, 5)
    J = csc_reference(assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid))
    J = {"csr_to_csc": J.tocsr().tocsc(), "lil": J.tolil(),
         "3x4": sp.csc_matrix(np.ones((3, 4)))}[other]
    with pytest.raises(ValueError, match="^J is not a Jacobian as assemble_jacobian returns it$"):
        solver.factorize(J)


# --- band LU of the bordered Jacobian -------------------------------------------

def tail_rows(factorization) -> int:
    """How many block rows a band factorization eliminated by cyclic reduction."""
    return factorization.tail.K


def check_band_solve(band, J, rhs, tol=1e-11):
    """The band solve of `rhs` against SuperLU's, to `tol` relative, and its
    raw backward error."""
    x = band.solve(rhs)
    ref = spla.splu(csc_reference(J)).solve(rhs)
    # both solves are backward stable, and on the converged states of
    # `converged_jacobians` each differs from an extended-precision solution
    # by up to about 4e-12 (the conditioning of J): so they are compared at 1e-11
    assert np.abs(x - ref).max() <= tol * np.abs(ref).max()
    # the raw band solve needs no refinement
    raw = band._bordered_solve(rhs)
    err = np.abs(J @ raw - rhs).max() / (band.j_norm * np.abs(raw).max() + np.abs(rhs).max())
    assert err <= 1e-14


# 481 x 11 lies below the width rule; on 241 x 21 the states have psi <= theta
# left of x = -4, -8 and -8, so their rows 1 .. 156, 152 and 152 are equal, and
# all are eliminated
@pytest.fixture(scope="module", params=[(481, 11, (0, 0, 0)), (241, 21, (156, 152, 152))],
                ids=["481x11", "241x21"])
def converged_jacobians(request):
    """Jacobians and residuals of converged Wentzell(0), Wentzell(1) and
    exchange(0.05) states on the grid [-160, 80] x [-1, 0], with the number
    of block rows their band LU eliminates by cyclic reduction."""
    nx, ny, tails = request.param
    grid = build_grid(PARAMS, -160.0, 80.0, nx, ny)
    s0 = newton_solve(embed_one_dim_wave(solve_1d_ignition_shooting(PARAMS.d, CUBIC, tol=1e-9),
                                         grid, CUBIC), PARAMS, CUBIC, grid).state
    s1 = newton_solve(WaveState(c=s0.c, psi=s0.psi, phi=None,
                                family=HomotopyFamily.wentzell(1.0)), PARAMS, CUBIC, grid).state
    e = newton_solve(handoff_to_system(s1, 0.05, PARAMS, grid), PARAMS, CUBIC, grid).state
    return grid, [(assemble_jacobian(st, PARAMS, CUBIC, grid),
                   assemble_residual(st, PARAMS, CUBIC, grid)) for st in (s0, s1, e)], tails


def test_band_solve_matches_superlu(converged_jacobians):
    grid, systems, tails = converged_jacobians
    rng = np.random.default_rng(7)
    for (J, R), tail in zip(systems, tails):
        band = solver.factorize(J)
        assert tail_rows(band) == tail
        for rhs in (rng.standard_normal(J.shape[0]), -R):
            check_band_solve(band, J, rhs)
        # |J|_inf sums each row in column order, as scipy's row sums do
        assert band.j_norm == float(np.abs(csc_reference(J)).sum(axis=1).max())


@pytest.mark.parametrize("stage", ["stage_a", "stage_c"])
def test_j_norm_reads_the_tail_rows(full_path, stage):
    # |J|_inf sums only block rows 0, 1 and K on; rows 2 .. K - 1 add row 1's
    # diagonal sums to their largest |b|.  One raised b entry there is the max
    grid = full_path["grid"]
    J = assemble_jacobian(full_path[stage].state, PARAMS, CUBIC, grid)
    K, m = solver.cyclic_tail(J).K, J.m
    row = (K // 2) * m + 7
    J.b[row] = -3.0 * float(np.abs(csc_reference(J)).sum(axis=1).max())
    band = solver.factorize(J)
    sums = np.abs(csc_reference(J)).sum(axis=1)
    assert band.tail.K == K > 2 and sums.argmax() == row
    assert band.j_norm == float(sums.max())


def changed_block_row(grid, state, row, block):
    """The Jacobian of `state` with a new entry on the diagonal of block row
    `row`'s L, D or U block."""
    J = assemble_jacobian(state, PARAMS, CUBIC, grid)
    J.diags[{"L": 0, "D": 3, "U": 6}[block], row * J.m + 2] *= 1.001  # offset -m, 0 or m
    return J


def failing_dgetrf(monkeypatch, call):
    """Make LAPACK report the `call`-th dgetrf (from 0) exactly singular; the
    list of the matrices it was called with."""
    calls, dgetrf = [], solver.lapack.dgetrf

    def singular_at_call(a):
        calls.append(a)
        lu, piv, info = dgetrf(a)
        return lu, piv, 3 if len(calls) == call + 1 else info

    monkeypatch.setattr(solver.lapack, "dgetrf", singular_at_call)
    return calls


@pytest.mark.parametrize("row, block, tail, shorter", [
    pytest.param(row, block, tail, shorter, id=f"{row}-{block}-{shorter}")
    for row, block, tail, shorter in [(0, "D", 151, 127), (1, "D", 1, 0), (1, "L", 0, 0),
                                      (2, "L", 0, 0), (4, "D", 3, 1), (4, "L", 2, 1),
                                      (40, "D", 39, 31), (40, "L", 38, 31), (40, "U", 39, 31),
                                      (200, "D", 151, 127), (200, "L", 151, 127)]])
def test_a_changed_block_row_ends_the_tail(monkeypatch, row, block, tail, shorter):
    # block row `row` of a Wentzell Jacobian on 241 x 21 gets a new entry on
    # the diagonal of one block, so the equal rows 1 .. 151 (psi <= theta
    # left of x = -8.5) end before it: T = row - 1 with its D or U block
    # changed, or row - 2 with its L block changed, where row - 1 is equal but
    # is not followed by the left block L.  Row 1 sets the blocks: its D
    # changed leaves T = 1, its L T = 0.  Row 0, the Dirichlet row, stays a
    # diagonal, and row 200 lies right of the front, past the tail.  A
    # singular block at the last of the T.bit_length() levels leaves the
    # largest power-of-two tail 2^p - 1 < T
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = changed_block_row(grid, smooth_states(grid)[0], row, block)
    rhs = np.random.default_rng(3).standard_normal(J.shape[0])
    with monkeypatch.context() as patch:
        calls = failing_dgetrf(patch, -1)  # none fails
        band = solver.factorize(J)
    assert tail_rows(band) == tail
    check_band_solve(band, J, rhs)
    failing_dgetrf(monkeypatch, len(calls) - 1)
    band = solver.factorize(J)
    assert tail_rows(band) == shorter
    check_band_solve(band, J, rhs)


@pytest.mark.parametrize("level, tail", [(0, 0), (1, 1), (2, 3), (4, 15), (5, 15), (8, 127)])
def test_a_singular_reduction_level_ends_the_tail(monkeypatch, level, tail):
    # the `level`-th dgetrf (from 0) that LAPACK reports exactly singular ends
    # the reduction at its level l, with the levels before it: the tail is
    # 2^l - 1.  On 241 x 21, T = 151 = 0b10010111: levels 3, 5 and 6 keep
    # their first row, so from level 4 on it has its own block, factored at
    # levels 4 and 7, the 6th and 9th dgetrf: D at levels 0 .. 6 and that
    # block are factored in turn
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid)
    calls = failing_dgetrf(monkeypatch, level)
    band = solver.factorize(J)
    assert len(calls) == level + 1 and tail_rows(band) == tail
    check_band_solve(band, J, np.random.default_rng(9).standard_normal(J.shape[0]))


@pytest.mark.parametrize("tail", range(41))
@pytest.mark.parametrize("family", ["wentzell", "exchange"])
def test_a_tail_of_any_length(monkeypatch, family, tail):
    # with the width rule off, a 241 x 5 Jacobian (m = 5, or 6 with the line)
    # whose equal rows end at T: a changed D block in row T + 1, or for T = 0
    # a changed L block in row 2.  Over T = 0 .. 40 every level of the
    # reduction meets an odd and an even number of live rows
    monkeypatch.setattr(solver, "TAIL_MIN_WIDTH", 1)
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 5)
    state = smooth_states(grid)[family == "exchange"]
    J = changed_block_row(grid, state, tail + 1 if tail else 2, "D" if tail else "L")
    band = solver.factorize(J)
    assert tail_rows(band) == tail
    check_band_solve(band, J, np.random.default_rng(tail).standard_normal(J.shape[0]))


def test_below_the_width_rule_the_band_lu_is_unchanged(monkeypatch):
    # 481 x 11 has a long tail of equal rows, 303, but m = 11 or 12 is below
    # the rule: only the Dirichlet block row is eliminated
    grid = build_grid(PARAMS, -160.0, 80.0, 481, 11)
    rng = np.random.default_rng(5)
    for state in smooth_states(grid):
        J = assemble_jacobian(state, PARAMS, CUBIC, grid)
        band = solver.factorize(J)
        assert tail_rows(band) == 0
        check_band_solve(band, J, rng.standard_normal(J.shape[0]))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "TAIL_MIN_WIDTH", 1)
            assert tail_rows(solver.factorize(J)) == 303


def equal_rows(J, m, a):
    """T: the largest with block rows 1 .. T of A~ equal to row 1 and row
    T + 1's left block equal to row 1's, where A~ is J without its border and
    with column a replaced by e_a, and the anchor's block column lies past
    T + 1 (the tail's blocks are J's, and J's column a is not A~'s)."""
    A = csc_reference(J)[:-1, :-1].tolil()
    A[:, a] = 0.0
    A[a, a] = 1.0
    A = A.tocsr()

    def block(i, j):
        return A[i * m:(i + 1) * m, j * m:(j + 1) * m].toarray()

    def row(i):
        return np.hstack([block(i, i - 1), block(i, i), block(i, i + 1)])

    T = 0
    while (T + 2 < a // m and np.array_equal(row(T + 1), row(1))
           and np.array_equal(block(T + 2, T + 1), block(1, 0))):
        T += 1
    return T


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(10, 120), half_ny=st.integers(2, 12), anchor=st.sampled_from([1, 2, 3, -2]),
       exchange=st.booleans(), front=st.floats(-2.0, 2.0))
@example(nx=10, half_ny=2, anchor=1, exchange=False, front=0.0)  # 10 x 5 on [-1, 8]
def test_the_tail_on_small_grids(nx, half_ny, anchor, exchange, front):
    # with the width rule off, the reduction runs on any grid; the anchor lies
    # in block column 1, 2 or 3, next to the Dirichlet column, or far right.
    # The front passes near the anchor, as the phase condition puts it: with
    # psi = 1 or 0 there, pinning the anchor leaves J near singular
    ix = anchor % nx
    grid = build_grid(PARAMS, -float(ix), float(nx - 1 - ix), nx, 2 * half_ny + 1)
    psi = np.tile(0.5 * (1.0 + np.tanh((grid.x - front) / 2.0)), (grid.ny, 1))
    state = WaveState(c=0.3, psi=psi, phi=None, family=HomotopyFamily.wentzell(0.5))
    if exchange:
        state = handoff_to_system(state, 0.05, PARAMS, grid)
    J = assemble_jacobian(state, PARAMS, CUBIC, grid)
    m = grid.ny + exchange
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "TAIL_MIN_WIDTH", 1)
        band = solver.factorize(J)
    assert tail_rows(band) == equal_rows(J, m, band.a)
    check_band_solve(band, J, np.random.default_rng(nx).standard_normal(J.shape[0]))


@pytest.mark.parametrize("node", ["interior", "anchor", "dirichlet"])
def test_band_singular_jacobian_raises(converged_jacobians, node):
    # a zeroed interior row makes the band exactly singular, as a zeroed
    # Dirichlet row makes the division that eliminates it: `factorize` refuses.
    # A zeroed anchor row leaves the band regular but the rank-1 correction
    # singular: the first solve, whose band solve makes w, refuses, and so
    # does every later one, before any solution is returned
    message = {"interior": "exactly singular", "anchor": "zero denominator",
               "dirichlet": "exactly singular: block row 0"}[node]
    grid, systems, _ = converged_jacobians
    J = systems[1][0]
    # the fixture's J keeps its values
    J = dataclasses.replace(J, diags=J.diags.copy(), b=J.b.copy())
    index, _ = field_views(np.arange(J.shape[0]), grid, HomotopyFamily.wentzell(1.0))
    row = {"interior": index[1, grid.nx // 3], "anchor": J.anchor,
           "dirichlet": index[grid.ny // 2, 0]}[node]
    J.diags[:, row] = J.b[row] = 0.0  # a zeroed strip row, c column included
    if node != "anchor":
        with pytest.raises(LinearSolveFailed, match=message):
            solver.factorize(J)
        return
    lu = solver.factorize(J)
    for _ in range(2):
        with pytest.raises(LinearSolveFailed, match=message):
            lu.solve(np.ones(J.shape[0]))


@pytest.mark.parametrize("column", [1, 21], ids=["block_column_0", "block_column_1"])
def test_a_dirichlet_row_with_an_off_diagonal_entry_is_refused(column):
    # the band path solves block row 0 by one division: it must be a diagonal.
    # An assembled J with one entry added there, on its diagonal at offset
    # 1 or m = 21, is refused
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid)
    J.diags[list(J.offsets).index(column), 0] = 0.5
    with pytest.raises(ValueError, match="block row 0 of J is not a diagonal"):
        solver.factorize(J)


@pytest.mark.parametrize("case, error, message", [
    ("short_rhs", LinearSolveFailed, "rhs length does not match"),
    ("infinite_rhs", LinearSolveFailed, "^non-finite right-hand side$"),
    ("infinite_rhs_in_block_row_0", LinearSolveFailed, "^non-finite right-hand side$"),
    ("anchor_in_block_column_0", ValueError,
     "^the anchor of J, column 2, lies in block column 0$"),
])
def test_every_refusal_of_the_band_lu(case, error, message):
    # the refusals besides a singular matrix, a matrix that is not assembled
    # and a Dirichlet row that is not a diagonal, which the tests above cover:
    # a bad right-hand side and an anchor in the Dirichlet column 0 (x_left =
    # 0, a valid domain that only build_grid refuses), on a Wentzell(0.5)
    # Jacobian with a tanh front on 41 x 5
    x_left = 0.0 if case == "anchor_in_block_column_0" else -20.0
    grid = Grid(x_left=x_left, x_right=x_left + 40.0, L=PARAMS.L, nx=41, ny=5)
    psi = np.tile(0.5 * (1.0 + np.tanh(grid.x / 2.0)), (grid.ny, 1))
    state = WaveState(c=0.3, psi=psi, phi=None, family=HomotopyFamily.wentzell(0.5))
    J = assemble_jacobian(state, PARAMS, CUBIC, grid)
    n, rhs = J.shape[0], np.ones(J.shape[0])
    if case == "short_rhs":
        rhs = rhs[:-1]
    elif case == "infinite_rhs":
        rhs[n // 2] = math.inf  # an interior row, past the Dirichlet block
    elif case == "infinite_rhs_in_block_row_0":
        rhs[3] = math.inf
    with pytest.raises(error, match=message):
        solver.factorize(J).solve(rhs)


def smooth_states(grid, front=0.0):
    """A Wentzell(0.5) state with a tanh front at x = `front` and its
    exchange(0.05) handoff."""
    psi = np.tile(0.5 * (1.0 + np.tanh((grid.x - front) / 20.0)), (grid.ny, 1))
    wentzell = WaveState(c=0.3, psi=psi, phi=None, family=HomotopyFamily.wentzell(0.5))
    return wentzell, handoff_to_system(wentzell, 0.05, PARAMS, grid)


def tanh_states(grid):
    """Wentzell(1), Wentzell(0.1), exchange(0.05) and exchange(1) states with
    a tanh front at x = 0 on `grid`, both exchange states with the handoff's phi."""
    psi = np.tile(0.5 * (1.0 + np.tanh(grid.x / 20.0)), (grid.ny, 1))
    wentzell = WaveState(c=0.3, psi=psi, phi=None, family=HomotopyFamily.wentzell(1.0))
    exchange = handoff_to_system(wentzell, 0.05, PARAMS, grid)
    return [wentzell, dataclasses.replace(wentzell, family=HomotopyFamily.wentzell(0.1)),
            exchange, dataclasses.replace(exchange, family=HomotopyFamily.exchange(1.0))]


@pytest.mark.parametrize("nx, ny", [(481, 11), (961, 41), (13, 81), (13, 161)])
def test_every_grid_factors_on_the_band(nx, ny):
    # the tier-1 grids 481 x 11 and 961 x 41, and the widths of 961 x 81 and of
    # the refinement grids 1921 x 81 and 3841 x 161 (nx = 13 stands in for them).
    # J of these unconverged fronts is worse conditioned than at a solution
    # (cond_1 about 5e8 on 13 x 81 and 4e9 on 13 x 161): the band and SuperLU
    # solves each differ from a dense LU's by up to 3.3e-10, so they are
    # compared at 1e-9; the raw band solve's backward error is held to 1e-14.
    # Without row scaling, partial pivoting on 961 x 41 swapped rows up to 22-23
    # apart in Wentzell(1) and exchange(0.05), and 40-41 in Wentzell(0.1) and
    # exchange(1)
    grid = build_grid(PARAMS, -160.0, 80.0, nx, ny)
    rng = np.random.default_rng(nx + ny)
    for state in tanh_states(grid):
        J = assemble_jacobian(state, PARAMS, CUBIC, grid)
        check_band_solve(solver.factorize(J), J, rng.standard_normal(J.shape[0]),
                         tol=1e-9)


def test_row_scaling_keeps_every_pivot_within_one_row():
    # each band row is scaled by 1 / max|row| before dgbtrf: on a 961 x 41
    # exchange(1) J partial pivoting then swaps rows at most one apart, where
    # unscaled it swapped them up to 41 apart behind the one-sided boundary rows
    grid = build_grid(PARAMS, -160.0, 80.0, 961, 41)
    J = assemble_jacobian(tanh_states(grid)[3], PARAMS, CUBIC, grid)
    lu = solver.factorize(J)
    reach = lu.piv - np.arange(lu.piv.size)  # scipy's pivots are 0-based
    assert reach.min() == 0 and reach.max() == 1
    assert lu.reach == 1


@pytest.mark.parametrize("nx, ny, state, reach", [(481, 5, 0, 0), (481, 3, 1, 2),
                                                  (961, 41, 3, 1), (961, 41, 1, 41)])
def test_the_narrowed_band_solve_returns_the_full_width_bits(nx, ny, state, reach):
    # U has m + p superdiagonals at most, p = max(piv[j] - j): dgbtrs with ku = p
    # on the band shifted by m - p rows skips only exact zeros, so it returns the
    # bits of the full-width call (ku = m): p = 0 on 481 x 5, 2 on 481 x 3, 1 and
    # p = m = 41 on 961 x 41, where a tail is eliminated first
    grid = build_grid(PARAMS, -160.0, 80.0, nx, ny)
    J = assemble_jacobian(tanh_states(grid)[state], PARAMS, CUBIC, grid)
    lu = solver.factorize(J)
    m, p = lu.m, lu.reach
    assert p == reach and (tail_rows(lu) > 0) == (ny == 41)
    # the shifted view: its row m + p is the band's diagonal, row 2m
    assert np.shares_memory(lu.u, lu.lu) and np.array_equal(lu.u[m + p:2 * m + p + 1],
                                                             lu.lu[2 * m:])
    rhs = np.asfortranarray(np.random.default_rng(nx).standard_normal((lu.piv.size, 2)))
    full = solver.lapack.dgbtrs(lu.lu, m, m, rhs, lu.piv)[0]
    assert np.array_equal(solver.lapack.dgbtrs(lu.u, m, p, rhs, lu.piv)[0], full)


def in_new_thread(fn, *args):
    """fn(*args) in a new thread, which has no band array until it factors."""
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def test_one_workspace_serves_every_band_bit_for_bit():
    # a thread's factorizations share one array: the 961 x 41 exchange J, the
    # widest band, is factored first; then, with the array poisoned with NaN,
    # 961 x 41 Wentzell with a tail, 481 x 5 and 481 x 11 without one take its
    # head in turn.  Each factorization rewrites every band entry LAPACK reads,
    # so each solve is the bits of the same J factored in a new thread, on an
    # array of its own
    big = build_grid(PARAMS, -160.0, 80.0, 961, 41)
    wentzell, exchange = smooth_states(big)
    cases = [(big, exchange), (big, wentzell), (build_grid(PARAMS, -160.0, 80.0, 481, 5), None),
             (build_grid(PARAMS, -160.0, 80.0, 481, 11), None)]
    tails = []
    for i, (grid, state) in enumerate(cases):
        J = assemble_jacobian(state or smooth_states(grid)[0], PARAMS, CUBIC, grid)
        rhs = np.random.default_rng(i).standard_normal((2, J.shape[0]))
        lu = solver.factorize(J)
        if i == 0:
            work = solver._workspace(0)  # this thread's array
        assert np.shares_memory(lu.lu, work)
        ours = [lu.solve(r) for r in rhs]
        fresh = in_new_thread(lambda: [solver.factorize(J).solve(r) for r in rhs])
        assert all(np.array_equal(x, y) for x, y in zip(ours, fresh))
        tails.append(tail_rows(lu))
        work[:] = np.nan
    assert tails[0] > 0 and tails[1] > 0 and tails[2] == tails[3] == 0


def test_the_library_path_takes_a_new_band_array_only_for_a_wider_band(monkeypatch):
    # the README's library calls on 241 x 21, which say nothing of where the
    # band lives: `one_dim_start`'s Newton on 3 rows (its broadcast to 21 rows
    # has converged), then `continue_wentzell`'s on the coarse level (121 x 5)
    # and on 21 rows, 10 factorizations of 3 band shapes.  In a new thread,
    # which starts without an array, a new one comes only with a band wider
    # than every band before, so at most one per shape, not one per
    # factorization
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    calls, workspace = [], solver._workspace

    def spy(size):
        work = workspace(size)
        calls.append((size, work))  # keeps every array alive, so none reuses a freed one
        return work

    def library_path():
        guess = one_dim_guess(PARAMS.d, CUBIC, tol=1e-9)
        corrected = one_dim_start(guess, PARAMS, CUBIC, grid, NewtonOptions())
        start = make_record("A", corrected.state, corrected.residual_norm, PARAMS, CUBIC, grid,
                            step=0.1)
        return continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), target_s=1.0)

    monkeypatch.setattr(solver, "_workspace", spy)
    assert in_new_thread(library_path).parameter == 1.0
    new = [i for i, (_, work) in enumerate(calls) if all(work is not w for _, w in calls[:i])]
    sizes = [size for size, _ in calls]
    assert all(sizes[i] > max(sizes[:i], default=0) for i in new)
    assert len(new) <= len(set(sizes)) == 3 < len(calls)


@pytest.mark.parametrize("nx, ny", [(481, 11), (241, 21)])
def test_the_first_solve_makes_w_bit_for_bit(nx, ny):
    # w = A~^{-1} (b - e_a) is the second column of the first solve's band
    # solve: the bits of a band solve of b - e_a alone, with and without a tail
    grid = build_grid(PARAMS, -160.0, 80.0, nx, ny)
    for state in smooth_states(grid):
        J = assemble_jacobian(state, PARAMS, CUBIC, grid)
        lu = solver.factorize(J)
        assert lu.w is None
        lu.solve(np.random.default_rng(nx).standard_normal(J.shape[0]))
        b = J.b.copy()
        b[lu.a] -= 1.0
        assert np.array_equal(lu.w, lu._band_solve(b))
        assert lu.denom == 1.0 + lu.w[lu.a]
        assert (tail_rows(lu) > 0) == (ny == 21)


def test_the_first_solve_passes_dgbtrs_fortran_columns(monkeypatch):
    # the two scaled columns of the first solve go to dgbtrs Fortran-ordered,
    # and it solves them in place, without f2py's copy in and out
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid)
    calls, dgbtrs = [], solver.lapack.dgbtrs

    def spy(ab, kl, ku, b, *args, **kwargs):
        out = dgbtrs(ab, kl, ku, b, *args, **kwargs)
        calls.append((b, out[0]))
        return out

    monkeypatch.setattr(solver.lapack, "dgbtrs", spy)
    lu = solver.factorize(J)
    lu.solve(np.ones(J.shape[0]))
    b, x = calls[0]  # the first solve's
    assert b.shape == (J.b.size - lu.start, 2)
    assert b.flags.f_contiguous and np.shares_memory(x, b)


def test_an_lu_whose_workspace_was_taken_refuses_to_solve():
    # the LU that owns its thread's array solves; one whose band a later
    # factorization in the same thread took refuses, whether or not it has
    # solved before.  An LU made in another thread has an array of its own:
    # this thread's factorizations neither share nor change it
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    wentzell, exchange = (assemble_jacobian(st, PARAMS, CUBIC, grid)
                          for st in smooth_states(grid))
    rhs = np.ones(wentzell.shape[0])
    other = in_new_thread(solver.factorize, wentzell)
    band = other.lu.tobytes()
    solved = solver.factorize(wentzell)
    solved.solve(rhs)
    unsolved = solver.factorize(wentzell)
    owner = solver.factorize(exchange)
    for stale in (solved, unsolved):
        with pytest.raises(RuntimeError, match="^the band workspace was taken by a later "
                                               "factorization$"):
            stale.solve(rhs)
    owner.solve(np.ones(exchange.shape[0]))
    assert not np.shares_memory(other.lu, owner.lu)
    assert other.lu.tobytes() == band
    assert np.array_equal(other.solve(rhs), solver.factorize(wentzell).solve(rhs))


@pytest.mark.parametrize("singular_call, tail, own", [(None, 151, [4, 7]), (8, 127, [])],
                         ids=["own_first_block", "truncated"])
def test_the_tail_applies_block_inverses(monkeypatch, singular_call, tail, own):
    # each level keeps its block inverses and a solve applies them by GEMM: no
    # dgetrs runs in a solve.  On 241 x 21 (T = 151) levels 4 and 7 eliminate the
    # first row with its own block; a singular block at level 7 (the 9th
    # dgetrf) truncates the tail to 127, where every level uses D.  Either way
    # the solve agrees with SuperLU's at the raw backward error of 1e-14
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid)
    if singular_call is not None:
        failing_dgetrf(monkeypatch, singular_call)
    band = solver.factorize(J)
    assert tail_rows(band) == tail
    assert [l for l, level in enumerate(band.tail.levels) if level[5] is not None] == own
    dgetrs = []
    monkeypatch.setattr(solver.lapack, "dgetrs", lambda *args, **kwargs: dgetrs.append(1))
    check_band_solve(band, J, np.random.default_rng(tail).standard_normal(J.shape[0]))
    assert dgetrs == []


# --- shooting -----------------------------------------------------------------

def test_shooting_closed_form_quarter():
    # exponential matching gives c = (1-theta)/sqrt(theta) for the linear oracle
    wave = solve_1d_ignition_shooting(1.0, PLO25, tol=1e-8)
    assert wave.c == pytest.approx(1.5, abs=1e-6)
    # the stored closed-form algebra: c^2 * 4 theta / (1-theta)^2 = 4/d
    assert wave.c**2 * 4 * 0.25 / 0.75**2 == pytest.approx(4.0, abs=1e-5)


def test_shooting_regression_cubic():
    wave = solve_1d_ignition_shooting(1.0, CUBIC, tol=1e-9)
    assert wave.c == pytest.approx(0.2634361720, abs=1e-7)  # pinned regression value
    assert 0.0 < wave.c <= c_max(ModelParams(d=1.0, D=1.0, mu=1.0, L=1.0), CUBIC)


def test_shooting_profile_shape():
    wave = solve_1d_ignition_shooting(1.0, CUBIC, tol=1e-8)
    assert np.all(np.diff(wave.psi) > -1e-12)  # increasing
    assert wave.psi[0] == pytest.approx(CUBIC.theta)
    x = np.array([-3.0, -1.0, 0.0])
    vals = wave.evaluate(x)
    assert np.allclose(vals, CUBIC.theta * np.exp(wave.c * x), rtol=1e-12)


@pytest.mark.parametrize("spec, tol, c, n", [(CUBIC, 1e-9, 0.2634361718052042, 27766),
                                             (PLO25, 1e-8, 1.49999999877471, 16544)],
                         ids=["cubic", "oracle"])
def test_shooting_exact_output(spec, tol, c, n):
    # the bisection midpoints and the RK4 arithmetic are fixed, so these are exact
    wave = solve_1d_ignition_shooting(1.0, spec, tol=tol)
    assert wave.c == c
    assert wave.x.size == wave.psi.size == n


def test_shooting_lower_bracket_end_must_undershoot():
    # tol = 0.5 puts the lower end above c* = 0.1/sqrt(0.9): every midpoint overshoots
    with pytest.raises(BracketNotFound, match="lower bracket end c = 5.000e-01"):
        solve_1d_ignition_shooting(1.0, ORACLE90, tol=0.5)


@pytest.fixture
def rk4_steps(monkeypatch):
    """The step of every RK4 trajectory the shooting integrates, in turn."""
    steps = []
    trajectory = solver._trajectory

    def counted(c, d, spec, h, n_steps, profile=False):
        steps.append(h)
        return trajectory(c, d, spec, h, n_steps, profile)

    monkeypatch.setattr(solver, "_trajectory", counted)
    return steps


def fine_step(d, spec):
    return 1e-3 * d / c_max(ModelParams(d=d, D=d, mu=1.0, L=1.0), spec)


def rungs(steps, d, spec):
    """{step in multiples of the fine step: trajectories} of `rk4_steps`."""
    h = fine_step(d, spec)
    return collections.Counter(round(step / h) for step in steps)


def test_shooting_lower_bracket_end_raises_at_the_confirmation(rk4_steps):
    with pytest.raises(BracketNotFound,
                       match="lower bracket end c = 5.000e-01 does not undershoot"):
        solve_1d_ignition_shooting(1.0, ORACLE90, tol=0.5)
    # the upper end and the lower end at the fine step, after the 2 midpoints
    # on the coarsest rung: nothing is integrated at COARSE
    assert rungs(rk4_steps, 1.0, ORACLE90) == {1: 2, solver.LADDER * solver.COARSE: 2}


def test_guess_lower_bracket_end_raises_at_the_confirmation(rk4_steps):
    with pytest.raises(BracketNotFound,
                       match="lower bracket end c = 5.000e-01 does not undershoot"):
        solver.one_dim_guess(1.0, ORACLE90, tol=0.5)
    # the upper end at the guess's step, the 2 midpoints GUESS_LADDER times
    # coarser, and the lower end at its step
    step = solver.LADDER * solver.COARSE
    assert rungs(rk4_steps, 1.0, ORACLE90) == {step: 2, solver.GUESS_LADDER * step: 2}


def reference_shooting(d, spec, tol, factor):
    """Reference: a plain bisection run wholly at `factor` times the fine step,
    on the reference RK4 (`conftest.rk4`).  Its upper end is doubled at most
    20 times, as the shooting's is, before it refuses.

    Returns x, psi, c and whether the upper end had to be doubled."""
    c_bound = c_max(ModelParams(d=d, D=d, mu=1.0, L=1.0), spec)
    h = fine_step(d, spec)
    x_max = max(200.0 * d / c_bound, 100.0)
    n_steps = int(x_max / h)
    step, count = factor * h, n_steps // factor
    theta, f = spec.theta, scalar_reaction(spec)

    def classify_at(c):
        return classify(rk4(c, d, f, theta, step, count))

    lo = c_floor = max(tol, 1e-10)
    hi = c_bound
    for doublings in itertools.count():
        if classify_at(hi) == 1:
            break
        if doublings == 20:
            raise BracketNotFound("no overshooting speed found while doubling the upper bracket")
        hi *= 2.0
    doubled = hi != c_bound
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if classify_at(mid) == 1:
            hi = mid
        else:
            lo = mid
    if lo == c_floor and classify_at(lo) != -1:
        raise BracketNotFound(f"lower bracket end c = {lo:.3e} does not undershoot")
    c_star = 0.5 * (lo + hi)
    xs, ps = sampled_profile(rk4(c_star, d, f, theta, step, count), theta, step)
    return np.array(xs), np.clip(np.array(ps), 0.0, 1.0), c_star, doubled


def fine_shooting(d, spec, tol):
    """Reference: the bisection run at the fine step throughout."""
    return reference_shooting(d, spec, tol, 1)


def guess_shooting(d, spec, tol):
    """Reference for `one_dim_guess`: the bisection to max(tol, `GUESS_TOL`) run
    at `LADDER * COARSE` times the fine step throughout."""
    return reference_shooting(d, spec, max(tol, solver.GUESS_TOL), solver.LADDER * solver.COARSE)


def test_shooting_equals_fine_bisection():
    doubled = []
    for kind, theta, d in itertools.product(NonlinearityKind, (0.05, 0.9), (0.5, 2.5)):
        spec = NonlinearitySpec(kind=kind, theta=theta)
        x, psi, c, grew = fine_shooting(d, spec, 1e-6)
        wave = solve_1d_ignition_shooting(d, spec, tol=1e-6)
        assert wave.c == c, (kind, theta, d)
        assert wave.x.tobytes() == x.tobytes() and wave.psi.tobytes() == psi.tobytes()
        doubled.append(grew)
    # the oracle at theta = 0.05 has c = 0.95 sqrt(d / 0.05), about 2.1 c_max:
    # its upper end is doubled
    assert any(doubled)


def test_guess_equals_coarse_bisection():
    # the guess is a plain bisection on the coarsest rung to max(tol, GUESS_TOL):
    # tol = 1e-9 is floored, 1e-6 and 1e-3 are not, and tol = 0.5 puts the lower
    # end above the oracle's speed at theta = 0.9, which both refuse
    cases = [*itertools.product(NonlinearityKind, (0.05, 0.3, 0.6, 0.9), (0.5, 1.0, 2.5),
                                (1e-9, 1e-6, 1e-3)),
             (NonlinearityKind.PIECEWISE_LINEAR_ORACLE, 0.9, 1.0, 0.5)]
    doubled = []
    for kind, theta, d, tol in cases:
        spec = NonlinearitySpec(kind=kind, theta=theta)
        try:
            x, psi, c, grew = guess_shooting(d, spec, tol)
            reference = x.tobytes(), psi.tobytes(), c
        except BracketNotFound as error:
            reference, grew = str(error), False
        try:
            guess = solver.one_dim_guess(d, spec, tol)
            assert (guess.x.tobytes(), guess.psi.tobytes(), guess.c) == reference, \
                (kind, theta, d, tol)
        except BracketNotFound as error:
            assert str(error) == reference
        doubled.append(grew)
    assert reference == "lower bracket end c = 5.000e-01 does not undershoot"
    assert any(doubled)  # the oracle at theta = 0.05, as in the fine bisection


@pytest.mark.parametrize("shoot", [solve_1d_ignition_shooting, solver.one_dim_guess],
                         ids=["oracle", "guess"])
@pytest.mark.parametrize("kind, theta, d, tol",
                         list(itertools.product(NonlinearityKind, (0.05, 0.3, 0.6, 0.9),
                                                (0.5, 1.0, 2.5), (1e-6, 1e-9))),
                         ids=lambda v: getattr(v, "name", None) or repr(v))
def test_shooting_equals_the_reference_rk4(monkeypatch, shoot, kind, theta, d, tol):
    # the same ladder on the reference trajectories (`conftest.rk4`, its scalar
    # reaction and its two stop rules) gives the same floats, bit for bit
    spec = NonlinearitySpec(kind=kind, theta=theta)
    wave = shoot(d, spec, tol=tol)
    monkeypatch.setattr(solver, "_trajectory", reference_trajectory)
    reference = shoot(d, spec, tol=tol)
    assert wave.c == reference.c
    assert wave.x.tobytes() == reference.x.tobytes()
    assert wave.psi.tobytes() == reference.psi.tobytes()


def test_trajectory_classes_and_profiles_equal_the_reference():
    # around the speed of each case, where trajectories run longest, and at
    # speeds that leave the window or pass 1 at once
    for spec, d in itertools.product((CUBIC, PLO25, ORACLE90), (0.5, 2.5)):
        c_star = solver.one_dim_guess(d, spec, tol=1e-9).c
        h = solver.COARSE * fine_step(d, spec)
        for c in (1e-10, 0.5 * c_star, c_star * (1 - 1e-7), c_star, c_star * (1 + 1e-7),
                  2.0 * c_star, 50.0 * c_star):
            for count in (10, 3000):
                assert (solver._trajectory(c, d, spec, h, count)
                        == reference_trajectory(c, d, spec, h, count)), (spec, d, c, count)
                assert (solver._trajectory(c, d, spec, h, count, profile=True)
                        == reference_trajectory(c, d, spec, h, count, profile=True))


@pytest.mark.parametrize("shoot", [solve_1d_ignition_shooting, solver.one_dim_guess],
                         ids=["oracle", "guess"])
def test_shooting_fallback_to_the_coarse_step(monkeypatch, caplog, rk4_steps, shoot):
    # no trajectory on the coarsest rung fits the window: every one reads as an
    # undershoot
    coarsest = 10**9 * solver.COARSE
    if shoot is solver.one_dim_guess:
        # the guess grows its upper end at its own step, LADDER * COARSE times
        # the fine step, which has no finer rung to fall back to: its upper end
        # never overshoots, and it refuses after 20 doublings, as the plain
        # bisection on that rung does
        monkeypatch.setattr(solver, "LADDER", 10**9)
        with pytest.raises(BracketNotFound) as reference:
            guess_shooting(1.0, CUBIC, 1e-9)
        with caplog.at_level(logging.INFO, logger="stripwave.solver"):
            with pytest.raises(BracketNotFound) as refusal:
                shoot(1.0, CUBIC, tol=1e-9)
        assert str(refusal.value) == str(reference.value)
        assert "while doubling the upper bracket" in str(refusal.value)
        assert "not confirmed" not in caplog.text
        assert rungs(rk4_steps, 1.0, CUBIC) == {coarsest: 21}
        return
    # the oracle: the final lower end overshoots at COARSE times the fine step,
    # and the bisection is redone there
    x, psi, c, _ = fine_shooting(1.0, CUBIC, 1e-9)
    monkeypatch.setattr(solver, "LADDER", 10**9)
    rk4_steps.clear()
    with caplog.at_level(logging.INFO, logger="stripwave.solver"):
        wave = shoot(1.0, CUBIC, tol=1e-9)
    assert caplog.text.count("is not confirmed at step") == 1
    assert wave.c == c and wave.x.tobytes() == x.tobytes() and wave.psi.tobytes() == psi.tobytes()
    # 31 midpoints on the coarsest rung, then at COARSE the lower end and 31
    # midpoints; the new bracket is confirmed at the fine step (two ends), and
    # the last rung grows the upper end and integrates the profile
    assert rungs(rk4_steps, 1.0, CUBIC) == {1: 4, solver.COARSE: 32, coarsest: 31}


def test_shooting_fallback_to_the_fine_step(monkeypatch, caplog, rk4_steps):
    # no trajectory on the two coarse rungs fits the window: every one reads as
    # an undershoot, so COARSE confirms the bracket of the coarsest rung, whose
    # lower end overshoots at the fine step, and the bisection is redone there
    monkeypatch.setattr(solver, "COARSE", 10**9)
    with caplog.at_level(logging.INFO, logger="stripwave.solver"):
        wave = solve_1d_ignition_shooting(1.0, CUBIC, tol=1e-9)
    assert caplog.text.count("is not confirmed at step") == 1
    assert wave.c == 0.2634361718052042
    assert wave.x.size == wave.psi.size == 27766
    # the upper end, the lower end, 31 midpoints and the profile at the fine step
    assert rungs(rk4_steps, 1.0, CUBIC) == {1: 34, 10**9: 1, solver.LADDER * 10**9: 31}


def test_shooting_fine_trajectories(caplog, rk4_steps):
    with caplog.at_level(logging.INFO, logger="stripwave.solver"):
        wave = solve_1d_ignition_shooting(1.0, CUBIC, tol=1e-9)
    assert wave.c == 0.2634361718052042 and "not confirmed" not in caplog.text
    # 31 midpoints on the coarsest rung; the two ends of the final bracket at
    # COARSE; the upper end, the two ends and the profile at the fine step
    assert rungs(rk4_steps, 1.0, CUBIC) == {1: 4, solver.COARSE: 2,
                                            solver.LADDER * solver.COARSE: 31}


def test_guess_runs_at_the_coarse_step(rk4_steps):
    guess = solver.one_dim_guess(1.0, CUBIC, tol=1e-9)
    # 24 midpoints to GUESS_TOL GUESS_LADDER times coarser than the guess's
    # step; the upper end, the two ends of the final bracket and the profile at
    # its step; nothing at COARSE or at the fine step
    coarsest = solver.LADDER * solver.COARSE
    assert rungs(rk4_steps, 1.0, CUBIC) == {coarsest: 4, solver.GUESS_LADDER * coarsest: 24}
    assert np.diff(guess.x) == pytest.approx(coarsest * fine_step(1.0, CUBIC), rel=1e-9)
    assert abs(guess.c - 0.2634361718052042) <= solver.GUESS_TOL  # within its tol of the oracle
    assert np.all(np.diff(guess.psi) > 0.0) and guess.psi[0] == CUBIC.theta


def test_guess_bisects_again_when_its_bracket_is_not_confirmed(caplog, rk4_steps):
    # the cubic at theta 0.05 and d = 2 (the table at GUESS_LADDER): the bracket
    # of the coarser rung is not confirmed at the guess's step, which bisects
    # again and gives the floats of the plain bisection there
    spec = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.05)
    with caplog.at_level(logging.INFO, logger="stripwave.solver"):
        guess = solver.one_dim_guess(2.0, spec, tol=1e-9)
    assert caplog.text.count("is not confirmed at step") == 1
    x, psi, c, _ = guess_shooting(2.0, spec, 1e-9)
    assert (guess.x.tobytes(), guess.psi.tobytes(), guess.c) == (x.tobytes(), psi.tobytes(), c)
    # 25 midpoints on the coarser rung; at the guess's step the upper end, the
    # lower end that fails the confirmation, 25 midpoints and the profile
    step = solver.LADDER * solver.COARSE
    assert rungs(rk4_steps, 2.0, spec) == {step: 28, solver.GUESS_LADDER * step: 25}


def test_guess_refuses_as_the_oracle_does():
    with pytest.raises(BracketNotFound,
                       match="lower bracket end c = 5.000e-01 does not undershoot"):
        solver.one_dim_guess(1.0, ORACLE90, tol=0.5)
    # tol is checked as given, before the guess's floor could lift it into range
    for tol in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must lie in"):
            solver.one_dim_guess(1.0, CUBIC, tol=tol)


@pytest.mark.parametrize("root, tol", [(0.2634, 1e-17), (1.4895, 1e-16)])
def test_bisection_ends_below_the_resolution_of_doubles(root, tol):
    # tol lies below the spacing of doubles at the root (5.6e-17 and 2.2e-16):
    # the bracket stops shrinking at two adjacent doubles, and the bisection ends there
    calls = []

    def classify(c):
        calls.append(c)
        assert len(calls) <= 500, "the bisection did not stop"
        return 1 if c >= root else -1

    lo, hi = solver._bisect(1e-10, 4.0, tol, classify)
    assert lo < root <= hi and hi == math.nextafter(lo, math.inf)


@pytest.mark.parametrize("shoot", [solve_1d_ignition_shooting, solver.one_dim_guess],
                         ids=["oracle", "guess"])
def test_shooting_below_the_resolution_of_doubles(monkeypatch, shoot):
    if shoot is solver.one_dim_guess:
        # the guess floors its tol at GUESS_TOL, far above the spacing of
        # doubles: tol = 1e-16 gives the floats of tol = GUESS_TOL
        floor = shoot(1.0, PLO25, tol=solver.GUESS_TOL)
        wave = shoot(1.0, PLO25, tol=1e-16)
        assert wave.c == floor.c
        assert wave.x.tobytes() == floor.x.tobytes()
        assert wave.psi.tobytes() == floor.psi.tobytes()
        return
    # c = 1.5 for the oracle at theta = 0.25, where doubles lie 2.2e-16 apart:
    # tol = 1e-16 ends at a bracket one spacing wide, with the speed of tol = 1e-15
    c = shoot(1.0, PLO25, tol=1e-15).c
    calls = []
    trajectory = solver._trajectory

    def bounded(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 500, "the shooting bisection did not stop"
        return trajectory(*args, **kwargs)

    monkeypatch.setattr(solver, "_trajectory", bounded)
    assert abs(shoot(1.0, PLO25, tol=1e-16).c - c) <= 1e-15 * c


@pytest.mark.parametrize("field, value", [("max_iters", 0), ("min_step", 0.0),
                                          ("tol_residual", math.inf)])
def test_newton_options_reject_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"NewtonOptions.{field} "):
        NewtonOptions(**{field: value})


def test_shooting_rejects_bad_tol():
    # NaN and inf pass a `tol <= 0` test
    for tol in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must lie in"):
            solve_1d_ignition_shooting(1.0, CUBIC, tol=tol)


# --- Newton on the strip ------------------------------------------------------

@pytest.fixture(scope="module")
def coarse_s0():
    grid = build_grid(PARAMS, -60.0, 30.0, 181, 9)
    wave = solve_1d_ignition_shooting(PARAMS.d, CUBIC, tol=1e-8)
    init = embed_one_dim_wave(wave, grid, CUBIC)
    result = newton_solve(init, PARAMS, CUBIC, grid, NewtonOptions())
    return grid, wave, result


def test_newton_from_embedding_matches_shooting(coarse_s0):
    grid, wave, result = coarse_s0
    assert abs(result.state.c - wave.c) / wave.c < 1e-3
    # the s = 0 problem is y-independent
    spread = np.abs(result.state.psi - result.state.psi[0, :]).max()
    assert spread < 1e-8


def test_newton_reuses_factorization(coarse_s0, monkeypatch):
    grid, wave, _ = coarse_s0
    init = embed_one_dim_wave(wave, grid, CUBIC)
    opts = NewtonOptions()
    factored = []
    factorize = solver.factorize

    def counted(*args, **kwargs):
        factored.append(factorize(*args, **kwargs))
        return factored[-1]

    monkeypatch.setattr(solver, "factorize", counted)
    result = newton_solve(init, PARAMS, CUBIC, grid, opts)
    monkeypatch.undo()
    assert result.factorizations == len(factored) < result.iterations
    assert result.residual_norm <= opts.tol_residual

    # reference: full Newton, a fresh factorization at every iteration, same Armijo rule
    def res_of(vec):
        return assemble_residual(vector_to_state(vec, grid, init.family), PARAMS, CUBIC, grid)

    u = state_to_vector(init, grid)
    R = res_of(u)
    norm = np.abs(R).max()
    for _ in range(opts.max_iters):
        if norm <= opts.tol_residual:
            break
        J = assemble_jacobian(vector_to_state(u, grid, init.family), PARAMS, CUBIC, grid)
        du = linear_solve(J, -R)
        lam = 1.0
        while True:
            R_trial = res_of(u + lam * du)
            norm_trial = np.abs(R_trial).max()
            if norm_trial <= (1.0 - 1e-4 * lam) * norm:
                break
            lam *= opts.damping
        u, R, norm = u + lam * du, R_trial, norm_trial
    assert norm <= opts.tol_residual
    assert abs(result.state.c - vector_to_state(u, grid, init.family).c) <= 1e-9


def test_newton_fixed_point(coarse_s0):
    grid, _, result = coarse_s0
    again = newton_solve(result.state, PARAMS, CUBIC, grid, NewtonOptions())
    assert again.iterations <= 1
    assert again.state.c == pytest.approx(result.state.c, abs=1e-12)


def test_newton_monotone_residual_and_phase_row(coarse_s0):
    grid, _, result = coarse_s0
    assert result.residual_norm <= 1e-10
    anchor = result.state.psi[grid.anchor_iy, grid.anchor_ix]
    assert anchor == pytest.approx((1.0 + CUBIC.theta) / 2.0, abs=1e-10)


def test_newton_flat_state_fails(coarse_s0):
    grid, _, _ = coarse_s0
    flat = WaveState(c=0.5, psi=np.zeros((grid.ny, grid.nx)), phi=None,
                     family=HomotopyFamily.wentzell(0.0))
    # recorded failure mode: the flat field zeroes the whole c column, so the
    # bordered matrix is singular (LinearSolveFailed); damping exhaustion or
    # the iteration cap are acceptable alternatives on other LU backends
    with pytest.raises((LinearSolveFailed, StepUnderflow, MaxItersExceeded)):
        newton_solve(flat, PARAMS, CUBIC, grid, NewtonOptions())


def test_newton_max_iters(coarse_s0):
    grid, wave, _ = coarse_s0
    init = embed_one_dim_wave(wave, grid, CUBIC)
    with pytest.raises(SolverError):
        newton_solve(init, PARAMS, CUBIC, grid, NewtonOptions(max_iters=1, tol_residual=1e-13))


@pytest.mark.parametrize("where", ["psi", "c"])
def test_newton_nan_state_is_never_converged(coarse_s0, where):
    # a NaN residual fails `norm > tol` as it fails `norm <= tol`: it must not
    # end the iteration as if converged
    grid, _, result = coarse_s0
    psi, c = result.state.psi.copy(), result.state.c
    if where == "psi":
        psi.flat[100] = np.nan
    else:
        c = np.nan
    state = WaveState(c=c, psi=psi, phi=None, family=result.state.family)
    with pytest.raises(SolverError):
        newton_solve(state, PARAMS, CUBIC, grid, NewtonOptions())


# --- Newton's safety branches ---------------------------------------------------

@pytest.fixture(scope="module")
def coarse_start():
    """The embedded shooting front at Wentzell s = 0 on 481 x 11."""
    grid = build_grid(PARAMS, -160.0, 80.0, 481, 11)
    return grid, embed_one_dim_wave(solve_1d_ignition_shooting(PARAMS.d, CUBIC, tol=1e-9),
                                    grid, CUBIC)


def rolled(state, k):
    """`state` with psi rolled k columns right: a start Newton must work harder from."""
    return WaveState(c=state.c, psi=np.roll(state.psi, k, axis=1), phi=None,
                     family=state.family)


def test_a_stale_step_that_fails_armijo_is_discarded(coarse_start, monkeypatch):
    grid, init = coarse_start
    start = rolled(init, 2)
    unpatched = newton_solve(start, PARAMS, CUBIC, grid)
    norms, refactored_at = [], []  # every residual norm; each Jacobian's iterate's norm
    assemble_r, assemble_j = solver.assemble_residual, solver.assemble_jacobian

    def traced_residual(*args):
        R = assemble_r(*args)
        norms.append(float(np.abs(R).max()))
        return R

    def traced_jacobian(*args):
        refactored_at.append((len(norms), float(np.abs(assemble_r(*args)).max())))
        return assemble_j(*args)

    # only a failed stale step refactors now: no step leaves more than all of the residual
    monkeypatch.setattr(solver, "REFRESH_RATIO", 1.0)
    monkeypatch.setattr(solver, "assemble_residual", traced_residual)
    monkeypatch.setattr(solver, "assemble_jacobian", traced_jacobian)
    result = newton_solve(start, PARAMS, CUBIC, grid)
    assert result.factorizations == 2
    k, norm_at = refactored_at[1]
    # the last trial before the refactorization raised the residual; it is discarded,
    # and J is refactored at the iterate it started from
    assert norms[k - 1] > norms[k - 2] == norm_at
    assert result.residual_norm <= NewtonOptions().tol_residual
    assert abs(result.state.c - unpatched.state.c) <= 2e-11


def test_a_fresh_step_backtracks_to_the_damped_length(coarse_start, monkeypatch):
    grid, init = coarse_start
    start = rolled(init, 2)
    unpatched = newton_solve(start, PARAMS, CUBIC, grid)
    trials, factored_at = [], []
    assemble_r, assemble_j = solver.assemble_residual, solver.assemble_jacobian

    def first_full_trial_fails(state, *args):
        trials.append(state_to_vector(state, grid))
        R = assemble_r(state, *args)
        return np.full_like(R, np.nan) if len(trials) == 2 else R  # NaN fails Armijo

    def traced_jacobian(state, *args):
        factored_at.append(state_to_vector(state, grid))
        return assemble_j(state, *args)

    monkeypatch.setattr(solver, "assemble_residual", first_full_trial_fails)
    monkeypatch.setattr(solver, "assemble_jacobian", traced_jacobian)
    result = newton_solve(start, PARAMS, CUBIC, grid)
    u0, full, damped = trials[:3]
    damping = NewtonOptions().damping
    assert np.abs((damped - u0) - damping * (full - u0)).max() <= 1e-15 * np.abs(full - u0).max()
    # the damped step is taken: it leaves more than REFRESH_RATIO of the residual, so
    # the next Jacobian is factored at it
    assert np.array_equal(factored_at[1], damped)
    assert result.residual_norm <= NewtonOptions().tol_residual
    assert abs(result.state.c - unpatched.state.c) <= 2e-11


def test_backtracking_ends_in_step_underflow(coarse_start, monkeypatch):
    grid, init = coarse_start
    calls = []
    assemble_r = solver.assemble_residual

    def bounded(*args):  # a line search that never gives up would run on
        calls.append(1)
        assert len(calls) < 2000, "the line search did not stop"
        return assemble_r(*args)

    monkeypatch.setattr(solver, "assemble_residual", bounded)
    with pytest.raises(StepUnderflow, match="line search stalled"):
        newton_solve(rolled(init, 20), PARAMS, CUBIC, grid)


@pytest.mark.parametrize("size", [1e-8, 1e-3])
def test_one_refinement_step(coarse_start, monkeypatch, size):
    # a band solve with an error of relative size `size`: one refinement step leaves
    # size^2, which passes the 1e-12 backward-error test for 1e-8 and fails it for 1e-3
    grid, init = coarse_start
    lu = solver.factorize(assemble_jacobian(init, PARAMS, CUBIC, grid))
    rhs = -assemble_residual(init, PARAMS, CUBIC, grid)
    exact = lu.solve(rhs)
    solves = []
    band_solve = solver.BorderedBandLU._bordered_solve

    def perturbed(self, r):
        x = band_solve(self, r)
        solves.append(1)
        return x + size * np.abs(x).max() * np.cos(np.arange(x.size))

    monkeypatch.setattr(solver.BorderedBandLU, "_bordered_solve", perturbed)
    if size > 1e-4:
        with pytest.raises(LinearSolveFailed, match="after refinement"):
            lu.solve(rhs)
    else:
        x = lu.solve(rhs)
        # both are backward stable solves, compared as in check_band_solve
        assert np.abs(x - exact).max() <= 1e-11 * np.abs(exact).max()
    assert len(solves) == 2
