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
whose Newton fails or whose record fails a certificate is rejected: it
leaves the record with half its step, and once that falls below `min_step`
the march ends in `StepCollapse`, naming the Newton error or the failed
certificates.  An accepted step grows by `STEP_GROWTH` (9x): the two-grid
predictor misses the trial by the coarse level's error in the step's
increment, not by the step's curvature, so a longer step costs the fine
Newton no more iterations (the step-length adaptation of
predictor-corrector continuation, Allgower and Georg, *Introduction to
Numerical Continuation Methods*, SIAM 2003, ch. 6).  The next step travels
in the accepted record's `step`.

A trial's Newton starts from a two-grid predictor (Xu, SIAM J. Numer.
Anal. 33, 1996) on grids with a coarse level (`coarse_level`: every second
column and 5 or 3 rows of the same window): the record's state plus the
prolongation of u_H(trial) - u_H(s), bilinear for psi and linear in x for
the line field phi, with c moved by the same coarse increment, where u_H(s)
is the record's injected state solved on the coarse level at its parameter
and u_H(trial) that solution solved again at the trial.  Both coarse solves
stop at a residual of max(tol_residual, `COARSE_TOL`): they only start the
fine Newton, whose start misses by the coarse level's error anyway.  Without
a coarse level, or when a coarse solve fails, the trial starts from the
record's own state.  The predictor is computed from the record alone for
every trial, so nothing but the record (its state and its step) is carried
from one trial to the next, retries included.

Each march starts from a record, its restart point, sends its sink
only the records of the steps it accepts, and returns its end record:
the start record itself when the target is already reached.  Every
record carries a full diagnostics report, and the decay-based extent
rule (x_right >= 8/gamma, |x_left| >= 8 max(d,D)/c) is re-checked as c
and gamma evolve, on every record that passes its certificates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diagnostics import DiagnosticsReport, run_diagnostics
from .errors import (ExtentTooSmall, ParameterNotMonotone, SolverError, StepCollapse,
                     WrongFamily)
from .grid import Grid
from .model import ModelParams, NonlinearitySpec
from .residual import HomotopyFamily, WaveState
from .solver import NewtonOptions, NewtonResult, OneDimWave, newton_solve

logger = logging.getLogger(__name__)

RecordSink = Callable[["ContinuationRecord"], None]

# a march ends once its parameter is within this of the target
PARAMETER_TOL = 1e-14
# the largest eps0 at which stage B hands the Wentzell state to the exchange system
EPSILON0_MAX = 0.1


@dataclass(frozen=True)
class ContinuationOptions:
    min_step: float = 1e-4
    epsilon0: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon0 <= EPSILON0_MAX:
            raise ValueError(f"ContinuationOptions.epsilon0 must lie in (0, {EPSILON0_MAX}], "
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

    def __post_init__(self) -> None:
        if not 0 < self.step < math.inf:
            raise ValueError(f"ContinuationRecord.step must be finite and > 0, got {self.step!r}")

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
    if not 0.0 < epsilon0 <= EPSILON0_MAX:
        raise ValueError(f"epsilon0 must lie in (0, {EPSILON0_MAX}], got {epsilon0}")
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
                spec: NonlinearitySpec, grid: Grid, step: float) -> ContinuationRecord:
    """The record of `state`: the extent rule is checked once its certificates pass."""
    diag = run_diagnostics(state, params, spec, grid)
    if not diag.failed:
        check_extents(grid, params, state.c, diag.gamma_pred)
    return ContinuationRecord(stage=stage, state=state, residual_norm=residual_norm,
                              diagnostics=diag, step=step)


# an accepted step's growth (see the module docstring)
STEP_GROWTH = 9.0
# the rows of a march's coarse level on a grid of at least COARSE_ROWS_FROM rows
# where they nest (`coarse_level`); 3 rows on other grids.  Stages A to C of the
# default run in process from its s = 0 start, on a 3-row -> a 5-row coarse level,
# the coarse solves stopping at COARSE_TOL (wall ms, medians of 12 alternating
# pairs, and the pairs in which 5 rows were faster; one BLAS thread, 2 vCPUs):
#     rows   481 columns                 961 columns
#     9      19.6 -> 21.4 (+1.8), 4      28.8 -> 30.1 (+1.3), 3
#     13     26.2 -> 27.4 (+1.1), 3      43.3 -> 43.8 (+0.5), 4
#     17     29.3 -> 31.0 (+1.7), 3      53.7 -> 54.1 (+0.4), 7
#     21     31.5 -> 33.1 (+1.6), 2      48.5 -> 47.1 (-1.4), 12
#     41     69.7 -> 70.4 (+0.8), 4      112.0 -> 107.8 (-4.2), 9
# Below 21 rows three are faster on both widths; from 21 on, five are faster on
# 961 columns, the default grid's, and 1-2 ms slower on 481
COARSE_ROWS = 5
COARSE_ROWS_FROM = 21
# the coarse level's Newton solves stop at a residual of max(tol_residual,
# COARSE_TOL): the predictor only starts the fine Newton.  Over the 23 scenarios
# of `scripts/scenario_scan.py` (tol_residual 1e-10): Newton iterations summed on
# the grid and on its coarse level, the scenarios that take more iterations on the
# grid than at 1e-10, and the largest relative change of a final c from 1e-10:
#     COARSE_TOL   481 x 11                 961 x 41
#     1e-10        287, 628                 250, 584
#     1e-8         287, 480, 0, 2e-14       250, 462, 0, 1e-13
#     1e-7         287, 412, 0, 5e-14       251, 386, 1, 1e-10
#     1e-6         287, 337, 0, 2e-13       250, 309, 0, 4e-12
#     1e-5         287, 257, 0, 5e-12       253, 254, 2, 2e-10
#     1e-4         290, 204, 3, 4e-11       263, 191, 10, 2e-10
# Factorizations on the grid, rejected trials and the s = 0 start were the same at
# every value; the coarse factorizations fell 160 -> 158 and 158 -> 157 at 1e-6
COARSE_TOL = 1e-6


def coarse_level(grid: Grid) -> Grid | None:
    """The nested grid of every second column and `COARSE_ROWS` or 3 rows of
    `grid`'s window, anchor included, on which a march predicts its trials;
    None when `grid` has fewer than 5 rows or its rows, columns or anchor do
    not nest."""
    if grid.ny < 5 or (grid.ny - 1) % 2 or (grid.nx - 1) % 2 or grid.anchor_ix % 2:
        return None
    rows = (COARSE_ROWS if grid.ny >= COARSE_ROWS_FROM and (grid.ny - 1) % (COARSE_ROWS - 1) == 0
            else 3)
    return Grid(grid.x_left, grid.x_right, grid.L, (grid.nx - 1) // 2 + 1, rows)


def _prolong_x(coarse: np.ndarray) -> np.ndarray:
    """Linear prolongation of rows on a coarse level's columns to the columns
    between them."""
    out = np.empty(coarse.shape[:-1] + (2 * coarse.shape[-1] - 1,))
    out[..., ::2] = coarse
    out[..., 1::2] = 0.5 * (coarse[..., :-1] + coarse[..., 1:])
    return out


def _prolong(coarse: np.ndarray, ny: int) -> np.ndarray:
    """Bilinear prolongation of a field on a coarse level to `ny` rows and
    the columns between its columns."""
    rows = coarse.shape[0]
    fy = (ny - 1) // (rows - 1)
    along_x = _prolong_x(coarse)
    w = (np.arange(fy) / fy)[:, None]
    out = np.empty((ny, along_x.shape[1]))
    out[:-1].reshape(rows - 1, fy, -1)[...] = (along_x[:-1, None] * (1.0 - w)
                                              + along_x[1:, None] * w)
    out[-1] = along_x[-1]
    return out


def _predict(record: ContinuationRecord, trial: float, params: ModelParams,
             spec: NonlinearitySpec, grid: Grid,
             newton_opts: NewtonOptions) -> tuple[WaveState, str]:
    """The start of the trial at `trial` from `record`, and how it was made:
    the two-grid predictor (module docstring), both coarse solves made here,
    or the record's own state without a coarse level or when one fails."""
    state = record.state
    family = state.family.with_parameter(trial)
    coarse = coarse_level(grid)
    if coarse is not None:
        coarse_opts = replace(newton_opts, tol_residual=max(newton_opts.tol_residual, COARSE_TOL))
        fy = (grid.ny - 1) // (coarse.ny - 1)
        injected = WaveState(c=state.c, psi=state.psi[::fy, ::2].copy(),
                             phi=None if state.phi is None else state.phi[::2].copy(),
                             family=state.family)
        try:
            base = newton_solve(injected, params, spec, coarse, coarse_opts)
            at_trial = newton_solve(replace(base.state, family=family), params, spec, coarse,
                                    coarse_opts)
        except SolverError as exc:
            logger.info("two-grid predictor failed on %d x %d (%s); the record's state",
                        coarse.nx, coarse.ny, exc)
        else:
            new, old = at_trial.state, base.state
            psi = _prolong(new.psi - old.psi, grid.ny) + state.psi
            phi = None if state.phi is None else _prolong_x(new.phi - old.phi) + state.phi
            how = (f"two-grid predictor, {base.iterations + at_trial.iterations} iterations "
                   f"and {base.factorizations + at_trial.factorizations} factorizations on "
                   f"{coarse.nx} x {coarse.ny}")
            return WaveState(c=state.c + (new.c - old.c), psi=psi, phi=phi, family=family), how
    return replace(state, family=family), "the record's state"


def _march(start: ContinuationRecord, params: ModelParams, spec: NonlinearitySpec, grid: Grid,
           newton_opts: NewtonOptions, opts: ContinuationOptions, target: float,
           stage: str, sink: RecordSink | None) -> ContinuationRecord:
    """March from `start` to `target` with the record as its only state: an
    accepted trial's record replaces it and goes to the sink, and a rejected
    trial halves its step, so a retry is the trial a march from that record
    would make (module docstring)."""
    if target < start.parameter - PARAMETER_TOL:
        raise ParameterNotMonotone(f"target {target} is below current parameter {start.parameter}")
    record = start
    while record.parameter < target - PARAMETER_TOL:
        param, step = record.parameter, record.step
        trial = min(param + step, target)
        pred_state, how = _predict(record, trial, params, spec, grid, newton_opts)
        try:
            result = newton_solve(pred_state, params, spec, grid, newton_opts)
        except SolverError as exc:
            reason = str(exc)
        else:
            solved = make_record(stage, result.state, result.residual_norm, params, spec, grid,
                                 STEP_GROWTH * step)
            failed = solved.diagnostics.failed
            reason = (f"record at parameter {trial:.6f}, c = {solved.c:.8f}, fails "
                      f"{', '.join(failed)}") if failed else None
        if reason is not None:
            step /= 2.0
            logger.info("step rejected (%s); retrying with step %.3g", reason, step)
            if step < opts.min_step:
                raise StepCollapse(f"continuation step below {opts.min_step} at "
                                   f"{stage} parameter {param:.6f}: {reason}")
            record = replace(record, step=step)
            continue
        record = solved
        if sink is not None:
            sink(record)
        logger.info("%s parameter %.6f: c = %.8f (%d iterations, %d factorizations; %s); next "
                    "step %.6g", stage, trial, record.c, result.iterations,
                    result.factorizations, how, record.step)
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
