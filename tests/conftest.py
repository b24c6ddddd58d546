"""Shared fixtures: default physics, the full three-stage path at desk
resolution, grid-refined endpoint states for convergence studies, a CSC
reference of an assembled Jacobian, full-array references of the
residual's interior rows and of J's interior diagonal, and a reference of the
shooting's RK4 trajectories."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator

from stripwave import (ContinuationOptions, ModelParams, NewtonOptions, NonlinearityKind,
                       NonlinearitySpec, WaveState, build_grid, continue_exchange,
                       continue_wentzell, handoff_to_system, make_record, newton_solve,
                       one_dim_guess, one_dim_start, solve_1d_ignition_shooting)
from stripwave import solver
from stripwave.model import reaction, reaction_derivative
from stripwave.residual import assemble_residual, field_views

DEFAULT_PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
DEFAULT_SPEC = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)


@pytest.fixture(scope="session")
def default_params():
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def default_spec():
    return DEFAULT_SPEC


@pytest.fixture(scope="session")
def default_grid(default_params):
    return build_grid(default_params, -160.0, 80.0, 961, 41)


@pytest.fixture(scope="session")
def newton_opts():
    return NewtonOptions()


@pytest.fixture(scope="session")
def one_dim_cubic():
    """Shooting front for the default nonlinearity (d = 1)."""
    return solve_1d_ignition_shooting(1.0, DEFAULT_SPEC, tol=1e-9)


@pytest.fixture(scope="session")
def full_path(default_params, default_spec, default_grid, newton_opts, one_dim_cubic):
    """Complete A -> B -> C run at the default desk resolution, from the
    start `wave run` takes (`one_dim_guess`, then `one_dim_start`).

    Returns a dict with the stage end records, the handoff result, every
    record of the path (s = 0, the A steps, B, the C steps), each Newton
    factorization's columns, block width m and the number of block rows it
    eliminated by cyclic reduction (`tails`, K = 0 for none), the shooting
    oracle's front (`one_dim`) and the shared inputs, reused by most
    acceptance criteria.
    """
    cont = ContinuationOptions()
    tails = []
    with pytest.MonkeyPatch.context() as patch:
        factorize = solver.factorize

        def counted(J, *args, **kwargs):
            lu = factorize(J, *args, **kwargs)
            tails.append((J.b.size // J.m, J.m, lu.tail.K))
            return lu

        patch.setattr(solver, "factorize", counted)
        guess = one_dim_guess(default_params.d, default_spec, tol=1e-9)
        corrected = one_dim_start(guess, default_params, default_spec, default_grid,
                                  newton_opts)
        records = [make_record("A", corrected.state, corrected.residual_norm, default_params,
                               default_spec, default_grid, step=0.1)]
        end_a = continue_wentzell(records[0], default_params, default_spec, default_grid,
                                  newton_opts, target_s=1.0, opts=cont, sink=records.append)
        predictor = handoff_to_system(end_a.state, cont.epsilon0, default_params, default_grid)
        corrected_b = newton_solve(predictor, default_params, default_spec, default_grid,
                                   newton_opts)
        records.append(make_record("B", corrected_b.state, corrected_b.residual_norm,
                                   default_params, default_spec, default_grid, step=0.1))
        end_c = continue_exchange(records[-1], default_params, default_spec, default_grid,
                                  newton_opts, target_eps=1.0, opts=cont, sink=records.append)
    return {
        "params": default_params,
        "spec": default_spec,
        "grid": default_grid,
        "newton": newton_opts,
        "options": cont,
        "one_dim": one_dim_cubic,
        "s0_result": corrected,
        "stage_a": end_a,
        "b_result": corrected_b,
        "stage_c": end_c,
        "records": records,
        "tails": tails,
    }


def csc_reference(J) -> sp.csc_matrix:
    """The `Jacobian` J as a scipy CSC matrix, built from its diagonals, its
    c column and its phase row by scipy alone: a reference for J's own
    product and for the band LU, and the tests' dense J (`.toarray()`)."""
    n = J.b.size
    A = sp.diags([row[max(-o, 0):n - max(o, 0)] for row, o in zip(J.diags, J.offsets)],
                 J.offsets, shape=(n, n))
    phase = sp.csr_matrix(([1.0], ([0], [J.anchor])), shape=(1, n))
    return sp.bmat([[A, sp.csc_matrix(J.b[:, None])], [phase, None]], format="csc")


def residual_reference(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                       grid) -> np.ndarray:
    """`assemble_residual` with its interior rows as one full-array expression,
    f over every node: a reference for the in-place interior and the column
    from which it evaluates f."""
    R = assemble_residual(state, params, spec, grid)
    psi, c, d, hx, hy = state.psi, state.c, params.d, grid.hx, grid.hy
    lap = ((psi[1:-1, :-2] - 2.0 * psi[1:-1, 1:-1] + psi[1:-1, 2:]) / hx**2
           + (psi[:-2, 1:-1] - 2.0 * psi[1:-1, 1:-1] + psi[2:, 1:-1]) / hy**2)
    dx = (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * hx)
    field_views(R, grid, state.family)[0][1:-1, 1:-1] = (-d * lap + c * dx
                                                         - reaction(psi, spec)[1:-1, 1:-1])
    return R


def self_reference(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                   grid) -> np.ndarray:
    """The interior nodes' SELF diagonal of `assemble_jacobian`, of shape
    (ny - 2, nx - 2), with f' over every node."""
    d, hx, hy = params.d, grid.hx, grid.hy
    return ((2.0 * d / hx**2 + 2.0 * d / hy**2)
            - reaction_derivative(state.psi, spec)[1:-1, 1:-1])


def scalar_reaction(spec: NonlinearitySpec):
    """f(u) for one float u, its branch chosen once: a reference for the
    reaction that the shooting's stepper writes inline."""
    theta, fp1 = spec.theta, spec.fprime_at_one
    if spec.kind is NonlinearityKind.SMOOTH_CUBIC:
        def f(u: float) -> float:
            if u > 1.0:
                return fp1 * (u - 1.0)
            return (u - theta) ** 2 * (1.0 - u) if u > theta else 0.0
    else:
        def f(u: float) -> float:
            if u > 1.0:
                return fp1 * (u - 1.0)
            return 1.0 - u if u > theta else 0.0
    return f


def rk4(c: float, d: float, f, theta: float, h: float, n_steps: int):
    """Yield (psi, psi') after each RK4 step of d psi'' = c psi' - f(psi) from
    x = 0, psi = theta, psi' = c theta / d: a reference for the shooting's
    stepper, with the first stage on the active reaction branch."""
    psi, dpsi = theta, c * theta / d
    f1 = f(math.nextafter(theta, 1.0))
    for _ in range(n_steps):
        p, dp = psi, dpsi
        a1 = (c * dp - f1) / d
        p2, dp2 = p + 0.5 * h * dp, dp + 0.5 * h * a1
        a2 = (c * dp2 - f(p2)) / d
        p3, dp3 = p + 0.5 * h * dp2, dp + 0.5 * h * a2
        a3 = (c * dp3 - f(p3)) / d
        p4, dp4 = p + h * dp3, dp + h * a3
        a4 = (c * dp4 - f(p4)) / d
        psi = p + h / 6.0 * (dp + 2.0 * dp2 + 2.0 * dp3 + dp4)
        dpsi = dp + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        yield psi, dpsi
        f1 = f(psi)


def classify(trajectory) -> int:
    """+1 overshoot, -1 undershoot for one `rk4` trajectory."""
    for psi, dpsi in trajectory:
        if psi > 1.0 and dpsi > 0.0:
            return 1
        if dpsi <= 0.0:
            return 1 if psi >= 1.0 else -1
    return -1


def sampled_profile(trajectory, theta: float, h: float) -> tuple[list, list]:
    """The increasing profile (x, psi) of one `rk4` trajectory from (0, theta),
    psi capped at 1, as the shooting's profile pass samples it."""
    xs, ps = [0.0], [theta]
    for psi, dpsi in trajectory:
        if psi <= ps[-1]:
            break
        xs.append(xs[-1] + h)
        ps.append(min(psi, 1.0))
        if 1.0 - psi < 1e-13 or dpsi <= 0.0:
            break
    return xs, ps


def reference_trajectory(c, d, spec, h, n_steps, profile=False):
    """`solver._trajectory` made of the references `scalar_reaction`, `rk4`,
    `classify` and `sampled_profile`."""
    trajectory = rk4(c, d, scalar_reaction(spec), spec.theta, h, n_steps)
    return sampled_profile(trajectory, spec.theta, h) if profile else classify(trajectory)


def regrid_state(state: WaveState, grid_from, grid_to) -> WaveState:
    """Bilinear warm-start interpolation between grids (test machinery;
    production paths stay on one grid)."""
    interp = RegularGridInterpolator((grid_from.y, grid_from.x), state.psi, method="linear")
    yy, xx = np.meshgrid(grid_to.y, grid_to.x, indexing="ij")
    psi = interp(np.stack([yy.ravel(), xx.ravel()], axis=1)).reshape(grid_to.ny, grid_to.nx)
    phi = None
    if state.phi is not None:
        phi = np.interp(grid_to.x, grid_from.x, state.phi)
    return WaveState(c=state.c, psi=psi, phi=phi, family=state.family)


@pytest.fixture(scope="session")
def refined_wentzell_states(full_path):
    """Converged Wentzell(1) states at h, h/2, h/4 (warm-started)."""
    params, spec, newton = full_path["params"], full_path["spec"], full_path["newton"]
    g1 = full_path["grid"]
    s1 = full_path["stage_a"].state
    g2 = build_grid(params, g1.x_left, g1.x_right, 2 * (g1.nx - 1) + 1, 2 * (g1.ny - 1) + 1)
    r2 = newton_solve(regrid_state(s1, g1, g2), params, spec, g2, newton)
    g4 = build_grid(params, g1.x_left, g1.x_right, 2 * (g2.nx - 1) + 1, 2 * (g2.ny - 1) + 1)
    r4 = newton_solve(regrid_state(r2.state, g2, g4), params, spec, g4, newton)
    return {"grids": (g1, g2, g4), "states": (s1, r2.state, r4.state)}
