"""Shared fixtures: default physics, the full three-stage path at desk
resolution, and grid-refined endpoint states for convergence studies."""

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from stripwave import (ContinuationOptions, ModelParams, NewtonOptions, NonlinearityKind,
                       NonlinearitySpec, WaveState, build_grid, continue_exchange,
                       continue_wentzell, embed_one_dim_wave, handoff_to_system, make_record,
                       newton_solve, solve_1d_ignition_shooting)
from stripwave import solver

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
    """Complete A -> B -> C run at the default desk resolution.

    Returns a dict with the stage end records, the handoff result, every
    record of the path (s = 0, the A steps, B, the C steps), the number of
    block rows each Newton factorization eliminated by cyclic reduction
    (`tails`, 0 for none) and the shared inputs, reused by most acceptance
    criteria.
    """
    cont = ContinuationOptions()
    tails = []
    with pytest.MonkeyPatch.context() as patch:
        factorize = solver.factorize

        def counted(*args):
            lu = factorize(*args)
            tails.append(0 if lu.lu.tail is None else lu.lu.tail.K)
            return lu

        patch.setattr(solver, "factorize", counted)
        init = embed_one_dim_wave(one_dim_cubic, default_grid, default_spec)
        corrected = newton_solve(init, default_params, default_spec, default_grid, newton_opts)
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
