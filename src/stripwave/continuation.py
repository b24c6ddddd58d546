"""Homotopy driver: Neumann strip -> Wentzell -> exchange system.

Stage A raises the Wentzell strength s from 0 to 1 starting from the
y-uniform embedding of the 1-D front, corrected at s = 0 on three rows
and broadcast over y (`one_dim_start`).  Stage B switches families at a
small exchange parameter eps0 using the first-order predictor
mu*phi = psi(.,0) + eps0 * d * dpsi/dy(.,0) (the exchange condition
solved for phi at first order in eps).  Stage C raises eps from eps0
to 1.

Natural-parameter continuation is sufficient: the wave speed is a
single-valued function of the stage parameter (no folds), so a failure at
the minimum step aborts loudly instead of triggering arclength machinery.
The paper proves the wave unique up to
translation and the phase condition fixes the translate, so a step cannot
jump to another branch: the only wrong state a trial can reach is a
non-physical discrete solution, which its record's certificates catch.
Each solved trial is therefore made into a record first, and a trial
whose Newton fails or whose record fails a certificate is rejected: its
step halves, and once it falls below `min_step` the march ends in
`StepCollapse`, naming the Newton error or the failed certificates.  An
accepted step grows by `STEP_GROWTH` (3x): the chord Newton factors about
once per step whatever the step, so a longer step is still cheap (the
step-length adaptation of predictor-corrector continuation, Allgower and
Georg, *Introduction to Numerical Continuation Methods*, SIAM 2003,
ch. 6).  The next step travels in the accepted record's `step`.

A Wentzell trial's Newton starts from a two-grid predictor (Xu, SIAM J.
Numer. Anal. 33, 1996) on grids with a coarse level (`coarse_level`: every
second column and `COARSE_ROWS` rows of the same window): the record's
state plus the bilinear prolongation of u_H(trial) - u_H(s), with c moved
by the same coarse increment, where u_H(s) is the record's injected state
solved on the coarse level at its s and u_H(trial) that solution solved
again at the trial.  A secant step misses the Wentzell path by enough that
the chord Newton contracts slowly; the two-grid predictor starts it inside
its quadratic region.  The secant through the record's previous state (the
record's state itself at a march's start) remains for stage C, where it
already lands within a few iterations, on grids without a coarse level,
and as the fallback when a coarse solve fails.  The predictor is a
function of the record alone, so nothing but the record is carried from
one step to the next.

Each march starts from a record, its restart point (a record holds the
step of the next trial and the previous accepted state), sends its sink
only the records of the steps it accepts, and returns its end record:
the start record itself when the target is already reached.  Every
record carries a full diagnostics report, and the decay-based extent
rule (x_right >= 8/gamma, |x_left| >= 8 max(d,D)/c) is re-checked as c
and gamma evolve, on every record that passes its certificates.
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
                  newton_opts: NewtonOptions, *, work: np.ndarray | None = None) -> NewtonResult:
    """The Wentzell s = 0 solution on `grid`, corrected from the 1-D front `wave`.

    At s = 0 the strip has Neumann conditions top and bottom, so the
    y-uniform embedding of the discrete 1-D wave solves the problem on any
    ny.  Newton therefore corrects the embedding on the three-row grid over
    the same x, whose row 1 is the anchor row y = -L/2; that row, broadcast
    to `grid.ny` rows, starts Newton on `grid`.  When the broadcast has
    converged this is one residual evaluation, otherwise a correction: the
    result carries `grid`'s residual either way.  Both Newton solves factor
    in `work` (`solver.factorize`).
    """
    narrow = Grid(grid.x_left, grid.x_right, grid.L, grid.nx, 3)
    row = newton_solve(embed_one_dim_wave(wave, narrow, spec), params, spec, narrow,
                       newton_opts, work=work).state
    init = WaveState(c=row.c, psi=np.tile(row.psi[1], (grid.ny, 1)), phi=None,
                     family=row.family)
    return newton_solve(init, params, spec, grid, newton_opts, work=work)


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
    """The record of `state`: the extent rule is checked once its certificates pass."""
    diag = run_diagnostics(state, params, spec, grid)
    if not diag.failed:
        check_extents(grid, params, state.c, diag.gamma_pred)
    return ContinuationRecord(stage=stage, state=state, residual_norm=residual_norm,
                              diagnostics=diag, step=step, prev_state=prev_state)


# an accepted step's growth (see the module docstring)
STEP_GROWTH = 3.0
# the rows of a Wentzell march's coarse level (`coarse_level`)
COARSE_ROWS = 5
# the fewest rows of a grid with a coarse level.  Stage A of the default run
# in process, the secant -> the two-grid predictor (wall ms, medians of 16
# alternating pairs, 8 from 41 rows on; one BLAS thread, shared 2-vCPU VM;
# 11 rows on a 3-row coarse level):
#     rows   481 columns            961 columns            1921 columns
#     11     23.3 -> 23.9 (+0.5)    43.4 -> 40.0 (-4.1)
#     13     39.4 -> 43.5 (+4.1)    75.4 -> 66.7 (-8.1)
#     17     49.8 -> 51.4 (+2.0)    92.0 -> 73.3 (-19)
#     21     60.4 -> 57.2 (-5.1)    99.6 -> 78.2 (-25)
#     41     149 -> 109 (-41)       247 -> 150 (-97)       468 -> 248 (-228)
# The coarse solves cost a few ms whatever ny, and save fine iterations whose
# cost grows like nx ny^2: from 21 rows on they pay on both widths
TWO_GRID_MIN_ROWS = 21


def coarse_level(grid: Grid) -> Grid | None:
    """The nested grid of every second column and `COARSE_ROWS` rows of
    `grid`'s window, anchor included, on which a Wentzell march predicts its
    trials; None when `grid` has too few rows or the nodes do not nest."""
    if (grid.ny < TWO_GRID_MIN_ROWS or (grid.nx - 1) % 2 or (grid.ny - 1) % (COARSE_ROWS - 1)
            or grid.anchor_ix % 2):
        return None
    return Grid(grid.x_left, grid.x_right, grid.L, (grid.nx - 1) // 2 + 1, COARSE_ROWS)


def _prolong(coarse: np.ndarray, ny: int) -> np.ndarray:
    """Bilinear prolongation of a field on a coarse level to `ny` rows and
    the columns between its columns."""
    rows, cols = coarse.shape
    fy = (ny - 1) // (rows - 1)
    along_x = np.empty((rows, 2 * cols - 1))
    along_x[:, ::2] = coarse
    along_x[:, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    w = (np.arange(fy) / fy)[:, None]
    out = np.empty((ny, along_x.shape[1]))
    out[:-1].reshape(rows - 1, fy, -1)[...] = (along_x[:-1, None] * (1.0 - w)
                                              + along_x[1:, None] * w)
    out[-1] = along_x[-1]
    return out


def _predict(record: ContinuationRecord, trial: float, base: NewtonResult | SolverError | None,
             params: ModelParams, spec: NonlinearitySpec, grid: Grid, coarse: Grid | None,
             newton_opts: NewtonOptions,
             work: np.ndarray | None) -> tuple[WaveState, NewtonResult | SolverError | None,
                                               str]:
    """The start of the trial at `trial` from `record`, u_H(s) for the
    record's retries, and how the start was made.

    `base` is u_H(s), the record's injected state solved on the coarse level,
    as a `NewtonResult` or the `SolverError` its solve raised; None before
    the record's first trial, which solves it.  Without a coarse level, or
    when a coarse solve fails, the start is the secant predictor.
    """
    state, prev, param = record.state, record.prev_state, record.parameter
    family = state.family.with_parameter(trial)
    if coarse is not None:
        if base is None:
            fy = (grid.ny - 1) // (coarse.ny - 1)
            injected = WaveState(c=state.c, psi=state.psi[::fy, ::2].copy(), phi=None,
                                 family=state.family)
            try:
                base = newton_solve(injected, params, spec, coarse, newton_opts, work=work)
            except SolverError as exc:
                base = exc
        failure = base
        if isinstance(base, NewtonResult):
            try:
                at_trial = newton_solve(WaveState(c=base.state.c, psi=base.state.psi, phi=None,
                                                  family=family), params, spec, coarse,
                                        newton_opts, work=work)
            except SolverError as exc:
                failure = exc
            else:
                psi = _prolong(at_trial.state.psi - base.state.psi, grid.ny)
                psi += state.psi
                how = (f"two-grid predictor, {base.iterations + at_trial.iterations} iterations "
                       f"and {base.factorizations + at_trial.factorizations} factorizations on "
                       f"{coarse.nx} x {coarse.ny}")
                return (WaveState(c=state.c + (at_trial.state.c - base.state.c), psi=psi,
                                  phi=None, family=family), base, how)
        logger.info("two-grid predictor failed on %d x %d (%s); secant predictor", coarse.nx,
                    coarse.ny, failure)
    u_pred = u = state_to_vector(state, grid)
    if prev is not None:
        factor = (trial - param) / (param - prev.family.parameter)
        u_pred = u + factor * (u - state_to_vector(prev, grid))
    return vector_to_state(u_pred, grid, family), base, "secant predictor"


def _march(start: ContinuationRecord, params: ModelParams, spec: NonlinearitySpec, grid: Grid,
           newton_opts: NewtonOptions, opts: ContinuationOptions, target: float,
           stage: str, sink: RecordSink | None, work: np.ndarray | None) -> ContinuationRecord:
    """March from `start` to `target`: each trial starts from `_predict`'s
    predictor, two-grid for a Wentzell march on a grid with a coarse level,
    otherwise the secant (module docstring).  Every Newton solve, on the grid
    and on its coarse level, factors in `work` (`solver.factorize`)."""
    if target < start.parameter - PARAMETER_TOL:
        raise ParameterNotMonotone(f"target {target} is below current parameter {start.parameter}")
    coarse = coarse_level(grid) if start.family.is_wentzell else None
    record, step, base = start, start.step, None
    while record.parameter < target - PARAMETER_TOL:
        state, param = record.state, record.parameter
        trial = min(param + step, target)
        pred_state, base, how = _predict(record, trial, base, params, spec, grid, coarse,
                                         newton_opts, work)
        try:
            result = newton_solve(pred_state, params, spec, grid, newton_opts, work=work)
        except SolverError as exc:
            reason = str(exc)
        else:
            solved = make_record(stage, result.state, result.residual_norm, params, spec, grid,
                                 STEP_GROWTH * step, state)
            failed = solved.diagnostics.failed
            reason = (f"record at parameter {trial:.6f}, c = {solved.c:.8f}, fails "
                      f"{', '.join(failed)}") if failed else None
        if reason is not None:
            step /= 2.0
            logger.info("step rejected (%s); retrying with step %.3g", reason, step)
            if step < opts.min_step:
                raise StepCollapse(f"continuation step below {opts.min_step} at "
                                   f"{stage} parameter {param:.6f}: {reason}")
            continue
        record, step, base = solved, solved.step, None
        if sink is not None:
            sink(record)
        logger.info("%s parameter %.6f: c = %.8f (%d iterations, %d factorizations; %s); next "
                    "step %.6g", stage, trial, record.c, result.iterations,
                    result.factorizations, how, step)
    return record


def continue_wentzell(start: ContinuationRecord, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid, newton_opts: NewtonOptions, target_s: float,
                      opts: ContinuationOptions = ContinuationOptions(),
                      sink: RecordSink | None = None, *,
                      work: np.ndarray | None = None) -> ContinuationRecord:
    """March the Wentzell strength from the start record's s up to target_s."""
    if not start.family.is_wentzell:
        raise WrongFamily("continue_wentzell needs a Wentzell-family start")
    return _march(start, params, spec, grid, newton_opts, opts, target_s, "A", sink, work)


def continue_exchange(start: ContinuationRecord, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid, newton_opts: NewtonOptions, target_eps: float,
                      opts: ContinuationOptions = ContinuationOptions(),
                      sink: RecordSink | None = None, *,
                      work: np.ndarray | None = None) -> ContinuationRecord:
    """March the exchange parameter from the start record's eps up to target_eps."""
    if not start.family.is_exchange:
        raise WrongFamily("continue_exchange needs an exchange-family start")
    return _march(start, params, spec, grid, newton_opts, opts, target_eps, "C", sink, work)
