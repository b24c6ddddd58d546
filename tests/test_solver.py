import itertools
import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from stripwave import residual, solver
from stripwave import (HomotopyFamily, ModelParams, NewtonOptions, NonlinearityKind,
                       NonlinearitySpec, WaveState, assemble_jacobian, assemble_residual,
                       build_grid, c_max, embed_one_dim_wave, field_views, handoff_to_system,
                       linear_solve, newton_solve, solve_1d_ignition_shooting,
                       state_to_vector, vector_to_state)
from stripwave.errors import (BracketNotFound, LinearSolveFailed, MaxItersExceeded,
                              SolverError, StepUnderflow)

PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
CUBIC = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)
PLO25 = NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE, theta=0.25)


# --- linear solve -------------------------------------------------------------

def test_linear_solve_identity():
    b = np.arange(1.0, 6.0)
    x = linear_solve(sp.eye(5, format="csc"), b)
    assert np.allclose(x, b, atol=1e-14)


def test_linear_solve_1d_laplacian_eigenpair():
    # tridiagonal (-1, 2, -1)/h^2 with Dirichlet ends: eigenvector sin(k pi j h)
    # has eigenvalue 4/h^2 sin^2(k pi h / 2); solving A x = v gives x = v/lambda
    m = 199
    h = 1.0 / (m + 1)
    main = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    k = 3
    j = np.arange(1, m + 1)
    v = np.sin(k * np.pi * j * h)
    lam = 4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2
    x = linear_solve(A, v)
    assert np.abs(x - v / lam).max() < 1e-10


def test_linear_solve_structurally_singular():
    A = sp.eye(5, format="lil")
    A[2, 2] = 0.0
    with pytest.raises(LinearSolveFailed):
        linear_solve(A.tocsc(), np.ones(5))


def test_linear_solve_rejects_nonsquare():
    with pytest.raises(LinearSolveFailed):
        linear_solve(sp.csc_matrix(np.ones((3, 4))), np.ones(3))


# --- band LU of the bordered Jacobian -------------------------------------------

def tail_rows(factorization) -> int:
    """How many block rows a band factorization eliminated by cyclic reduction."""
    return factorization.lu.tail.K


def check_band_solve(band, J, rhs):
    """The band solve of `rhs` against SuperLU's, and its raw backward error."""
    x = band.solve(rhs)
    ref = spla.splu(J.tocsc()).solve(rhs)
    # both solves are backward stable, and each differs from an
    # extended-precision solution by up to about 4e-12 here (the
    # conditioning of J): so they are compared at 1e-11
    assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()
    # the raw band solve needs no refinement
    raw = band.lu.solve(rhs)
    err = np.abs(J @ raw - rhs).max() / (band.j_norm * np.abs(raw).max() + np.abs(rhs).max())
    assert err <= 1e-14


# 481 x 11 lies below the width rule; on 241 x 21 the states have psi <= theta
# left of x = -7, so rows 1 .. 150 or so are equal, of which 127 are eliminated
@pytest.fixture(scope="module", params=[(481, 11, 0), (241, 21, 127)], ids=["481x11", "241x21"])
def converged_jacobians(request):
    """Jacobians and residuals of converged Wentzell(0), Wentzell(1) and
    exchange(0.05) states on the grid [-160, 80] x [-1, 0], with the number
    of block rows their band LU eliminates by cyclic reduction."""
    nx, ny, tail = request.param
    grid = build_grid(PARAMS, -160.0, 80.0, nx, ny)
    s0 = newton_solve(embed_one_dim_wave(solve_1d_ignition_shooting(PARAMS.d, CUBIC, tol=1e-9),
                                         grid, CUBIC), PARAMS, CUBIC, grid).state
    s1 = newton_solve(WaveState(c=s0.c, psi=s0.psi, phi=None,
                                family=HomotopyFamily.wentzell(1.0)), PARAMS, CUBIC, grid).state
    e = newton_solve(handoff_to_system(s1, 0.05, PARAMS, grid), PARAMS, CUBIC, grid).state
    return grid, [(assemble_jacobian(st, PARAMS, CUBIC, grid),
                   assemble_residual(st, PARAMS, CUBIC, grid)) for st in (s0, s1, e)], tail


def test_band_solve_matches_superlu(converged_jacobians):
    grid, systems, tail = converged_jacobians
    rng = np.random.default_rng(7)
    for J, R in systems:
        band = solver.factorize(J, grid.nx)
        assert band.kind == "band" and tail_rows(band) == tail
        for rhs in (rng.standard_normal(J.shape[0]), -R):
            check_band_solve(band, J, rhs)


@pytest.mark.parametrize("row, block, tail", [(0, "D", 127), (1, "D", 0), (1, "L", 0),
                                              (2, "L", 0), (4, "D", 1), (4, "L", 1),
                                              (40, "D", 31), (40, "L", 31), (200, "D", 127),
                                              (200, "L", 127)])
def test_a_changed_block_row_ends_the_tail(row, block, tail):
    # block row `row` of a Wentzell Jacobian on 241 x 21 gets a new diagonal
    # entry, in its D block or its L block, so the equal rows 1 .. T (about 150
    # unchanged, psi <= theta left of x = -8.5) end before it: T = row - 2 (D)
    # or row - 3 (L), and the largest 2^p - 1 <= T are eliminated (none when
    # rows 1 and 2 differ).  Row 0, the Dirichlet row, stays a diagonal, and
    # row 200 lies right of the front, past the tail.
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid)
    m = grid.ny
    column = row * m + 5 - (m if block == "L" else 0)
    k = J.indptr[column] + np.searchsorted(J.indices[J.indptr[column]:J.indptr[column + 1]],
                                           row * m + 5)
    J.data[k] *= 1.001
    band = solver.factorize(J, grid.nx)
    assert tail_rows(band) == tail
    rhs = np.random.default_rng(3).standard_normal(J.shape[0])
    check_band_solve(band, J, rhs)


@pytest.mark.parametrize("level, tail", [(0, 0), (1, 1), (2, 3), (4, 15)])
def test_a_singular_reduction_level_ends_the_tail(monkeypatch, level, tail):
    # a level whose D block LAPACK reports exactly singular ends the reduction
    # there, with the levels before it: row 2^level's Schur complement is their
    # sum, so the shorter tail is exact (241 x 21 would eliminate 127 rows)
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid)
    calls, dgetrf = [], solver.lapack.dgetrf

    def singular_at_level(a):
        calls.append(a)
        lu, piv, info = dgetrf(a)
        return lu, piv, 3 if len(calls) == level + 1 else info

    monkeypatch.setattr(solver.lapack, "dgetrf", singular_at_level)
    band = solver.factorize(J, grid.nx)
    assert len(calls) == level + 1 and tail_rows(band) == tail
    check_band_solve(band, J, np.random.default_rng(9).standard_normal(J.shape[0]))


def test_below_the_width_rule_the_band_lu_is_unchanged(monkeypatch):
    # 481 x 11 has a long tail of equal rows, but m = 11 or 12 is below the
    # rule: only the Dirichlet block row is eliminated
    grid = build_grid(PARAMS, -160.0, 80.0, 481, 11)
    rng = np.random.default_rng(5)
    for state in smooth_states(grid):
        J = assemble_jacobian(state, PARAMS, CUBIC, grid)
        band = solver.factorize(J, grid.nx)
        assert tail_rows(band) == 0
        check_band_solve(band, J, rng.standard_normal(J.shape[0]))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "TAIL_MIN_WIDTH", 1)
            assert tail_rows(solver.factorize(J, grid.nx)) == 255


def equal_rows(J, m, a):
    """T: how many block rows of A~ after its row 0 equal row 1, where A~ is
    J without its border and with column a replaced by e_a."""
    A = J[:-1, :-1].tolil()
    A[:, a] = 0.0
    A[a, a] = 1.0
    A = A.tocsr()

    def block_row(i):
        return A[i * m:(i + 1) * m, (i - 1) * m:(i + 2) * m].toarray()

    T = 1
    while np.array_equal(block_row(T + 1), block_row(1)):
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
        band = solver.factorize(J, grid.nx)
    assert tail_rows(band) <= equal_rows(J, m, band.lu.a)
    check_band_solve(band, J, np.random.default_rng(nx).standard_normal(J.shape[0]))


@pytest.mark.parametrize("node", ["interior", "anchor", "dirichlet"])
def test_band_singular_jacobian_raises(converged_jacobians, node):
    # a zeroed interior row makes the band exactly singular, as a zeroed
    # Dirichlet row makes the division that eliminates it; a zeroed anchor
    # row leaves the band regular but the rank-1 correction singular
    message = {"interior": "exactly singular", "anchor": "zero denominator",
               "dirichlet": "exactly singular: block row 0"}[node]
    grid, systems, _ = converged_jacobians
    J = systems[1][0].tocsr()
    index, _ = field_views(np.arange(J.shape[0]), grid, HomotopyFamily.wentzell(1.0))
    # the anchor is the one column of the phase row
    row = {"interior": index[1, grid.nx // 3], "anchor": J[-1].indices[0],
           "dirichlet": index[grid.ny // 2, 0]}[node]
    J.data[J.indptr[row]:J.indptr[row + 1]] = 0.0  # a zeroed strip row, c column included
    with pytest.raises(LinearSolveFailed, match=message):
        solver.factorize(J.tocsc(), grid.nx)


@pytest.mark.parametrize("column", [1, 21], ids=["block_column_0", "block_column_1"])
def test_a_dirichlet_row_with_an_off_diagonal_entry_is_refused(column):
    # the band path solves block row 0 by one division: it must be a diagonal
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    J = assemble_jacobian(smooth_states(grid)[0], PARAMS, CUBIC, grid).tolil()
    J[0, column] = 0.5
    with pytest.raises(ValueError, match="block row 0 of J is not a diagonal"):
        solver.factorize(J.tocsc(), grid.nx)


def smooth_states(grid):
    """A Wentzell(0.5) state with a tanh front and its exchange(0.05) handoff."""
    psi = np.tile(0.5 * (1.0 + np.tanh(grid.x / 20.0)), (grid.ny, 1))
    wentzell = WaveState(c=0.3, psi=psi, phi=None, family=HomotopyFamily.wentzell(0.5))
    return wentzell, handoff_to_system(wentzell, 0.05, PARAMS, grid)


def test_band_map_of_a_foreign_jacobian_gives_the_same_bits():
    # a copy with the same pattern gets its band map uncached, from the same function
    grid = build_grid(PARAMS, -160.0, 80.0, 481, 11)
    rng = np.random.default_rng(11)
    for state in smooth_states(grid):
        J = assemble_jacobian(state, PARAMS, CUBIC, grid)
        copy = J.tocsr().tocsc()
        assert residual.cached_pattern(J) is not None and residual.cached_pattern(copy) is None
        cached, foreign = solver.factorize(J, grid.nx), solver.factorize(copy, grid.nx)
        assert cached.lu.lu.tobytes() == foreign.lu.lu.tobytes()
        for _ in range(3):
            rhs = rng.standard_normal(J.shape[0])
            assert cached.solve(rhs).tobytes() == foreign.solve(rhs).tobytes()
        # |J|_inf sums each row in column order, as scipy's row sums do
        assert cached.j_norm == float(np.abs(J).sum(axis=1).max())


def test_structure_is_built_once_per_grid_and_family(monkeypatch):
    # one band map per grid, family and tail length: K = 0 on 241 x 5, below
    # the width rule, and K = 127 on 241 x 21, where the rule switched off
    # adds the K = 0 maps
    built = []
    for module, name in ((residual, "_build_pattern"), (solver, "band_map")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _real=real, _name=name:
                            (built.append((_name, *args[3:])), _real(*args))[1])
    for ny, tails in ((5, [0]), (21, [127, 0])):
        grid = build_grid(PARAMS, -160.0, 80.0, 241, ny)
        residual._PATTERNS.clear()
        built.clear()
        for tail in tails:
            with monkeypatch.context() as patch:
                patch.setattr(solver, "TAIL_MIN_WIDTH", 21 if tail else math.inf)
                for _ in range(3):
                    for state in smooth_states(grid):
                        J = assemble_jacobian(state, PARAMS, CUBIC, grid)
                        assert tail_rows(solver.factorize(J, grid.nx)) == tail
        assert sorted(built) == sorted([("_build_pattern",)] * 2
                                       + [("band_map", tail) for tail in tails] * 2)


@pytest.mark.parametrize("nx, ny, kind", [(481, 11, "band"), (961, 41, "band"),
                                          (13, 81, "superlu"), (13, 161, "superlu")])
def test_factorization_size_rule(nx, ny, kind):
    # the tier-1 grids: 481 x 11 and 961 x 41 on the band; 961 x 81, and the
    # refinement grids 1921 x 81 and 3841 x 161, on SuperLU (the rule reads
    # only ny and the family, so nx = 13 stands in for them)
    grid = build_grid(PARAMS, -160.0, 80.0, nx, ny)
    psi = np.tile(0.5 * (1.0 + np.tanh(grid.x / 20.0)), (ny, 1))
    wentzell = WaveState(c=0.3, psi=psi, phi=None, family=HomotopyFamily.wentzell(1.0))
    for state in (wentzell, handoff_to_system(wentzell, 0.05, PARAMS, grid)):
        J = assemble_jacobian(state, PARAMS, CUBIC, grid)
        assert solver.factorize(J, grid.nx).kind == kind
    assert solver.factorize(J).kind == "superlu"  # a general matrix keeps SuperLU


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
    oracle = NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE, theta=0.9)
    with pytest.raises(BracketNotFound, match="lower bracket end c = 5.000e-01"):
        solve_1d_ignition_shooting(1.0, oracle, tol=0.5)


def test_shooting_lower_bracket_end_raises_at_the_confirmation(monkeypatch):
    steps = []
    rk4 = solver._rk4

    def counted(c, d, f, theta, h, n_steps):
        steps.append(h)
        return rk4(c, d, f, theta, h, n_steps)

    monkeypatch.setattr(solver, "_rk4", counted)
    oracle = NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE, theta=0.9)
    with pytest.raises(BracketNotFound,
                       match="lower bracket end c = 5.000e-01 does not undershoot"):
        solve_1d_ignition_shooting(1.0, oracle, tol=0.5)
    fine = min(steps)
    assert set(steps) == {fine, solver.COARSE * fine}
    # the upper end and the lower end at the confirmation: no bisection at the fine step
    assert steps.count(fine) == 2


def fine_shooting(d, spec, tol):
    """Reference: the bisection run at the fine step throughout.

    Returns x, psi, c and whether the upper end had to be doubled."""
    c_bound = c_max(ModelParams(d=d, D=d, mu=1.0, L=1.0), spec)
    h = 1e-3 * d / c_bound
    x_max = max(200.0 * d / c_bound, 100.0)
    n_steps = int(x_max / h)
    theta, f = spec.theta, solver.scalar_reaction(spec)

    def classify(c):
        return solver._classify(solver._rk4(c, d, f, theta, h, n_steps))

    lo = c_floor = max(tol, 1e-10)
    hi = c_bound
    while classify(hi) != 1:
        hi *= 2.0
    doubled = hi != c_bound
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if classify(mid) == 1:
            hi = mid
        else:
            lo = mid
    if lo == c_floor and classify(lo) != -1:
        raise BracketNotFound(f"lower bracket end c = {lo:.3e} does not undershoot")
    c_star = 0.5 * (lo + hi)
    xs, ps = [0.0], [theta]
    for psi, dpsi in solver._rk4(c_star, d, f, theta, h, n_steps):
        if psi <= ps[-1]:
            break
        xs.append(xs[-1] + h)
        ps.append(min(psi, 1.0))
        if 1.0 - psi < 1e-13 or dpsi <= 0.0:
            break
    return np.array(xs), np.clip(np.array(ps), 0.0, 1.0), c_star, doubled


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


def test_shooting_fallback_to_the_fine_step(monkeypatch, caplog):
    # no coarse step fits the window: every coarse trajectory reads as an
    # undershoot, the final lower end overshoots at the fine step, and the
    # bisection is redone there
    monkeypatch.setattr(solver, "COARSE", 10**9)
    with caplog.at_level(logging.INFO, logger="stripwave.solver"):
        wave = solve_1d_ignition_shooting(1.0, CUBIC, tol=1e-9)
    assert "is not confirmed at step" in caplog.text
    assert wave.c == 0.2634361718052042
    assert wave.x.size == wave.psi.size == 27766


def test_shooting_fine_trajectories(monkeypatch, caplog):
    steps = []
    rk4 = solver._rk4

    def counted(c, d, f, theta, h, n_steps):
        steps.append(h)
        return rk4(c, d, f, theta, h, n_steps)

    monkeypatch.setattr(solver, "_rk4", counted)
    with caplog.at_level(logging.INFO, logger="stripwave.solver"):
        wave = solve_1d_ignition_shooting(1.0, CUBIC, tol=1e-9)
    assert wave.c == 0.2634361718052042 and "not confirmed" not in caplog.text
    fine = min(steps)
    # the upper end, the two ends of the final bracket and the profile
    assert steps.count(fine) <= 4
    assert set(steps) == {fine, solver.COARSE * fine}


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
    assert {f.kind for f in factored} == {"band"}
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
    lu = solver.factorize(assemble_jacobian(init, PARAMS, CUBIC, grid), grid.nx)
    rhs = -assemble_residual(init, PARAMS, CUBIC, grid)
    exact = lu.solve(rhs)
    solves = []
    band_solve = solver.BorderedBandLU.solve

    def perturbed(self, r):
        x = band_solve(self, r)
        solves.append(1)
        return x + size * np.abs(x).max() * np.cos(np.arange(x.size))

    monkeypatch.setattr(solver.BorderedBandLU, "solve", perturbed)
    if size > 1e-4:
        with pytest.raises(LinearSolveFailed, match="after refinement"):
            lu.solve(rhs)
    else:
        x = lu.solve(rhs)
        # both are backward stable solves, compared as in check_band_solve
        assert np.abs(x - exact).max() <= 1e-11 * np.abs(exact).max()
    assert len(solves) == 2
