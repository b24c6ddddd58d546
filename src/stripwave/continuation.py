"""Homotopy driver: Neumann strip -> Wentzell -> exchange system.

Stage A raises the Wentzell strength s from 0 to 1 starting from the
y-uniform embedding of the 1-D front, corrected at s = 0 on three rows
and broadcast over y (`one_dim_start`).  Stage B switches families at a
small exchange parameter eps0 using the first-order predictor
mu*phi = psi(.,0) + eps0 * d * dpsi/dy(.,0) (the exchange condition
solved for phi at first order in eps).  Stage C raises eps from eps0
to 1.

Natural-parameter continuation with a secant predictor is sufficient:
the wave speed is a single-valued function of the stage parameter (no
folds), so a Newton failure at the minimum step aborts loudly instead
of triggering arclength machinery.  Steps halve on failure; an accepted
step grows by `FAST_GROWTH_FACTOR` (3x) when its chord Newton converged in
at most `FAST_ITERATIONS` iterations, and by `GROWTH_FACTOR` (1.5x)
otherwise.  The chord Newton factors about once per step whatever the
step, so its factorizations say nothing about how far the predictor
missed; its iteration count does: few iterations mean the secant predictor
landed well inside Newton's contraction region, and a longer step is
still cheap (the step-length adaptation of predictor-corrector
continuation, Allgower and Georg, *Introduction to Numerical Continuation
Methods*, SIAM 2003, ch. 6).  The growth reads only the step just solved
and travels in its record's `step`.  An accepted step whose speed jumps by
more than `SPEED_JUMP_FRAC` relative is rejected and retried with half
the step, guarding against branch jumping.

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
from .solver import NewtonOptions, NewtonResult, OneDimWave, newton_solve

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
        if not 0 < self.step < math.inf:
            raise ValueError(f"ContinuationRecord.step must be finite and > 0, got {self.step!r}")
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


def one_dim_start(wave: OneDimWave, params: ModelParams, spec: NonlinearitySpec, grid: Grid,
                  newton_opts: NewtonOptions) -> NewtonResult:
    """The Wentzell s = 0 solution on `grid`, corrected from the 1-D front `wave`.

    At s = 0 the strip has Neumann conditions top and bottom, so the
    y-uniform embedding of the discrete 1-D wave solves the problem on any
    ny.  Newton therefore corrects the embedding on the three-row grid over
    the same x, whose row 1 is the anchor row y = -L/2; that row, broadcast
    to `grid.ny` rows, starts Newton on `grid`.  When the broadcast has
    converged this is one residual evaluation, otherwise a correction: the
    result carries `grid`'s residual either way.
    """
    narrow = Grid(grid.x_left, grid.x_right, grid.L, grid.nx, 3)
    row = newton_solve(embed_one_dim_wave(wave, narrow, spec), params, spec, narrow,
                       newton_opts).state
    init = WaveState(c=row.c, psi=np.tile(row.psi[1], (grid.ny, 1)), phi=None,
                     family=row.family)
    return newton_solve(init, params, spec, grid, newton_opts)


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


# step policy of _march (see the module docstring).  Stage A steps take 3-13
# chord iterations, stage C steps 1-4.  Growth rules over the default config
# and one change each of D in {0.5, 1, 2}, theta in {0.05, 0.6}, mu in
# {0.2, 5}, L in {0.25, 4} and d = 2 on 481 x 11 (11 runs; factorizations
# summed, rejected steps), and the default run on 961 x 41 (factorizations,
# checked solves):
#     growth                            481 x 11     961 x 41
#     x1.5 on every step                125, 0       12, 46
#     x3 at <= 3 iterations, else x1.5  106, 0       10, 43
#     x4 at <= 3 iterations, else x1.5  106, 0       10, 43
#     x4 at <= 2 iterations, else x1.5  113, 0       11, 45
#     x3 at <= 4 iterations, else x1.5  100, 0       10, 43
#     x3 on every step                  97, 3        9, 36
# The three rejected steps of plain x3 are speed jumps of 21-23% in stage A
# (D = 0.5, mu = 0.2, L = 0.25).  On twelve more runs (D 0.25 and 8, theta
# 0.1, 0.2, 0.4 and 0.5, mu 0.5 and 2, L 0.5 and 2, d 0.5 and 4), x3 at <= 3
# iterations took 87 factorizations against 102 and rejected one step (a
# 22.5% jump at D = 0.25); x3 at <= 4 iterations rejected two there
FAST_ITERATIONS = 3
FAST_GROWTH_FACTOR = 3.0
GROWTH_FACTOR = 1.5
# an accepted step whose speed moves by more than this fraction is rejected.
# Largest relative change of c in one accepted step over the 23 runs above on
# 481 x 11, under the growth rule: 0.155 in stage A (D = 0.25), 0.0066 in
# stage C (L = 2); the steps it rejected there, under any rule of the table,
# jumped by 0.204-0.252
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
        fast = result.iterations <= FAST_ITERATIONS
        growth = FAST_GROWTH_FACTOR if fast else GROWTH_FACTOR
        step *= growth
        record = make_record(stage, result.state, result.residual_norm, params, spec, grid,
                             step, state)
        if sink is not None:
            sink(record)
        logger.info("%s parameter %.6f: c = %.8f (%d iterations, %d factorizations); next step "
                    "%.6g, x%g for %s %d iterations", stage, trial, record.c, result.iterations,
                    result.factorizations, step, growth, "<=" if fast else ">", FAST_ITERATIONS)
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
