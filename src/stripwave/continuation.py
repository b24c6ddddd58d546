"""Homotopy driver: Neumann strip -> Wentzell -> exchange system.

Stage A raises the Wentzell strength s from 0 to 1 starting from the
y-uniform embedding of the 1-D front.  Stage B switches families at a
small exchange parameter eps0 using the first-order predictor
mu*phi = psi(.,0) + eps0 * d * dpsi/dy(.,0) (the exchange condition
solved for phi at first order in eps).  Stage C raises eps from eps0
to 1.

Natural-parameter continuation with a secant predictor is sufficient:
the wave speed is a single-valued function of the stage parameter (no
folds), so a Newton failure at the minimum step aborts loudly instead
of triggering arclength machinery.  Steps halve on failure and grow by
`GROWTH_FACTOR` (1.5x) when Newton converges with at most
`GROWTH_FACTORIZATIONS` Jacobian factorizations (the chord Newton reuses
one LU across iterations, so its factorizations, not its iterations,
measure what a step cost); an accepted step whose speed jumps by more than
`SPEED_JUMP_FRAC` relative is rejected and retried with half the step,
guarding against branch jumping.

Each march starts from a record, its restart point (a record holds the
step of the next trial and the previous accepted state), sends its sink
only the records of the steps it accepts, and returns its end record:
the start record itself when the target is already reached.  Every
record carries a full diagnostics report, and the decay-based extent
rule (x_right >= 8/gamma, |x_left| >= 8 max(d,D)/c) is re-checked as c
and gamma evolve.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import DiagnosticsReport, run_diagnostics
from .errors import (ExtentTooSmall, ParameterNotMonotone, SolverError, StepCollapse,
                     WrongFamily)
from .grid import Grid
from .model import ModelParams, NonlinearitySpec
from .residual import HomotopyFamily, WaveState, state_to_vector, vector_to_state
from .solver import NewtonOptions, OneDimWave, newton_solve

logger = logging.getLogger(__name__)

RecordSink = Callable[["ContinuationRecord"], None]

# a march ends once its parameter is within this of the target
PARAMETER_TOL = 1e-14


@dataclass(frozen=True)
class ContinuationOptions:
    min_step: float = 1e-4
    epsilon0: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon0 <= 0.1:
            raise ValueError(f"ContinuationOptions.epsilon0 must lie in (0, 0.1], "
                             f"got {self.epsilon0!r}")
        if not self.min_step > 0:
            raise ValueError(f"ContinuationOptions.min_step must be > 0, got {self.min_step!r}")


@dataclass(frozen=True)
class ContinuationRecord:
    stage: str
    state: WaveState
    residual_norm: float
    diagnostics: DiagnosticsReport
    step: float  # of the next trial
    prev_state: WaveState | None = None  # for the secant predictor; None at a march's start

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise ValueError(f"ContinuationRecord.step must be > 0, got {self.step!r}")
        prev = self.prev_state
        if prev is not None and prev.family.kind != self.family.kind:
            raise ValueError(f"ContinuationRecord.prev_state must be of the {self.family.kind} "
                             f"family, got {prev.family.kind}")
        if prev is not None and not prev.family.parameter < self.parameter:
            raise ValueError(f"ContinuationRecord.prev_state must lie below parameter "
                             f"{self.parameter!r}, got {prev.family.parameter!r}")

    @property
    def c(self) -> float:
        return self.state.c

    @property
    def family(self) -> HomotopyFamily:
        return self.state.family

    @property
    def parameter(self) -> float:
        return self.state.family.parameter


def embed_one_dim_wave(wave: OneDimWave, grid: Grid, spec: NonlinearitySpec) -> WaveState:
    """y-uniform embedding of the 1-D front, pre-translated so the
    anchor column already satisfies the phase condition."""
    target = (1.0 + spec.theta) / 2.0
    x_star = float(np.interp(target, wave.psi, wave.x))
    row = wave.evaluate(grid.x + x_star)
    psi = np.tile(row, (grid.ny, 1))
    return WaveState(c=wave.c, psi=psi, phi=None, family=HomotopyFamily.wentzell(0.0))


def handoff_to_system(wentzell_state: WaveState, epsilon0: float, params: ModelParams,
                      grid: Grid) -> WaveState:
    """First-order exchange predictor from a converged Wentzell(1) state.

    Keeps psi and c; sets mu*phi = psi(.,0) + eps0 * d * dpsi/dy(.,0)
    with the same one-sided top stencil the residual uses.  The result
    is a predictor, not a solution; Newton-correct it at exchange(eps0).
    """
    if not wentzell_state.family.is_wentzell:
        raise WrongFamily("handoff expects a Wentzell-family state")
    if not 0.0 < epsilon0 <= 0.1:
        raise ValueError(f"epsilon0 must lie in (0, 0.1], got {epsilon0}")
    psi = wentzell_state.psi
    dy_top = (3.0 * psi[-1, :] - 4.0 * psi[-2, :] + psi[-3, :]) / (2.0 * grid.hy)
    phi = (psi[-1, :] + epsilon0 * params.d * dy_top) / params.mu
    return WaveState(c=wentzell_state.c, psi=psi.copy(), phi=phi,
                     family=HomotopyFamily.exchange(epsilon0))


def check_extents(grid: Grid, params: ModelParams, c: float, gamma_pred: float) -> None:
    """Decay-based adequacy rule; gamma_pred may be NaN (check skipped)."""
    left_need = 8.0 * max(params.d, params.D) / c
    if abs(grid.x_left) < left_need:
        raise ExtentTooSmall(f"|x_left| = {abs(grid.x_left)} < {left_need:.2f} = 8 max(d,D)/c")
    if math.isfinite(gamma_pred) and gamma_pred > 0:
        right_need = 8.0 / gamma_pred
        if grid.x_right < right_need:
            raise ExtentTooSmall(f"x_right = {grid.x_right} < {right_need:.2f} = 8/gamma")


def make_record(stage: str, state: WaveState, residual_norm: float, params: ModelParams,
                spec: NonlinearitySpec, grid: Grid, step: float,
                prev_state: WaveState | None = None) -> ContinuationRecord:
    diag = run_diagnostics(state, params, spec, grid)
    check_extents(grid, params, state.c, diag.gamma_pred)
    return ContinuationRecord(stage=stage, state=state, residual_norm=residual_norm,
                              diagnostics=diag, step=step, prev_state=prev_state)


# step policy of _march (see the module docstring)
GROWTH_FACTOR = 1.5
GROWTH_FACTORIZATIONS = 4
SPEED_JUMP_FRAC = 0.2


def _march(start: ContinuationRecord, params: ModelParams, spec: NonlinearitySpec, grid: Grid,
           newton_opts: NewtonOptions, opts: ContinuationOptions, target: float,
           stage: str, sink: RecordSink | None) -> ContinuationRecord:
    if target < start.parameter - PARAMETER_TOL:
        raise ParameterNotMonotone(f"target {target} is below current parameter {start.parameter}")
    record, step = start, start.step
    while record.parameter < target - PARAMETER_TOL:
        state, prev, param = record.state, record.prev_state, record.parameter
        trial = min(param + step, target)
        u_pred = u = state_to_vector(state, grid)
        if prev is not None:
            factor = (trial - param) / (param - prev.family.parameter)
            u_pred = u + factor * (u - state_to_vector(prev, grid))
        pred_state = vector_to_state(u_pred, grid, state.family.with_parameter(trial))
        failed = None
        try:
            result = newton_solve(pred_state, params, spec, grid, newton_opts)
            if abs(result.state.c - state.c) > SPEED_JUMP_FRAC * abs(state.c):
                failed = (f"speed jump {state.c:.6f} -> {result.state.c:.6f} "
                          f"at {stage} parameter {trial:.6f}")
        except SolverError as exc:
            failed = str(exc)
        if failed is not None:
            step /= 2.0
            logger.info("step rejected (%s); retrying with step %.3g", failed, step)
            if step < opts.min_step:
                raise StepCollapse(f"continuation step below {opts.min_step} at "
                                   f"{stage} parameter {param:.6f}: {failed}")
            continue
        if result.factorizations <= GROWTH_FACTORIZATIONS:
            step *= GROWTH_FACTOR
        record = make_record(stage, result.state, result.residual_norm, params, spec, grid,
                             step, state)
        if sink is not None:
            sink(record)
        logger.info("%s parameter %.6f: c = %.8f (%d iterations, %d factorizations)", stage,
                    trial, record.c, result.iterations, result.factorizations)
    return record


def continue_wentzell(start: ContinuationRecord, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid, newton_opts: NewtonOptions, target_s: float,
                      opts: ContinuationOptions = ContinuationOptions(),
                      sink: RecordSink | None = None) -> ContinuationRecord:
    """March the Wentzell strength from the start record's s up to target_s."""
    if not start.family.is_wentzell:
        raise WrongFamily("continue_wentzell needs a Wentzell-family start")
    return _march(start, params, spec, grid, newton_opts, opts, target_s, "A", sink)


def continue_exchange(start: ContinuationRecord, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid, newton_opts: NewtonOptions, target_eps: float,
                      opts: ContinuationOptions = ContinuationOptions(),
                      sink: RecordSink | None = None) -> ContinuationRecord:
    """March the exchange parameter from the start record's eps up to target_eps."""
    if not start.family.is_exchange:
        raise WrongFamily("continue_exchange needs an exchange-family start")
    return _march(start, params, spec, grid, newton_opts, opts, target_eps, "C", sink)
