"""Travelling-wave continuation for a reaction-diffusion strip coupled
to a line of fast diffusion.

The solver computes the propagation speed c and the wave profiles
(psi on the strip, phi on the line) along a three-stage homotopy: the
1-D Neumann front, the Wentzell boundary-value family (s from 0 to 1),
and the two-field exchange system (eps from a small eps0 to 1).  Every
qualitative property the continuous problem guarantees is re-checked
numerically on each converged state.
"""

from .analysis import (approximation_identity_mass, bessel_k0, k0_line_mass,
                       scan_symbol_zero_free, symbol_denominator)
from .continuation import (ContinuationOptions, ContinuationRecord, continue_exchange,
                           continue_wentzell, embed_one_dim_wave, handoff_to_system,
                           make_record, one_dim_start)
from .diagnostics import (DiagnosticsReport, DispersionQuery, check_bounds,
                          check_monotonicity, check_sandwich, dispersion_root,
                          fit_right_decay, left_decay_bound, run_diagnostics,
                          speed_identity, supersolution_rate)
from .grid import Grid, build_grid
from .model import (ModelParams, NonlinearityKind, NonlinearitySpec, c_max,
                    eval_nonlinearity, lipschitz_constant)
from .residual import (HomotopyFamily, WaveState, assemble_jacobian, assemble_residual,
                       field_views, state_to_vector, vector_to_state)
from .solver import (NewtonOptions, NewtonResult, OneDimWave, linear_solve, newton_solve,
                     one_dim_guess, solve_1d_ignition_shooting)

__all__ = [
    "ModelParams", "NonlinearityKind", "NonlinearitySpec", "eval_nonlinearity",
    "lipschitz_constant", "c_max",
    "Grid", "build_grid",
    "HomotopyFamily", "WaveState", "assemble_residual", "assemble_jacobian",
    "field_views", "state_to_vector", "vector_to_state",
    "NewtonOptions", "NewtonResult", "OneDimWave", "newton_solve", "linear_solve",
    "solve_1d_ignition_shooting", "one_dim_guess",
    "ContinuationOptions", "ContinuationRecord", "continue_wentzell", "continue_exchange",
    "handoff_to_system", "embed_one_dim_wave", "one_dim_start", "make_record",
    "DiagnosticsReport", "DispersionQuery", "run_diagnostics", "check_bounds",
    "check_monotonicity", "check_sandwich", "speed_identity", "left_decay_bound",
    "dispersion_root", "supersolution_rate", "fit_right_decay",
    "symbol_denominator", "scan_symbol_zero_free", "bessel_k0",
    "k0_line_mass", "approximation_identity_mass",
]

__version__ = "0.1.0"
