"""Chord Newton solve of the bordered system and the 1-D shooting oracle.

Newton iterates on the flat dof vector; each accepted step strictly
decreases the residual infinity norm by the Armijo rule.  Linear systems
are solved by direct sparse LU (deterministic, robust for the bordered
nonsymmetric matrix at desk scale) with one step of iterative refinement.

The Jacobian is factored at the first iterate and its LU is reused for
later steps (the chord method; Kelley 2003, *Solving Nonlinear Equations
with Newton's Method*).  A step made with a fresh LU gets the full Armijo
backtracking line search.  A step made with a stale LU is tried at full
length only: if it fails the Armijo test it is discarded and the Jacobian
is refactored at the same iterate.  An accepted step that leaves the
residual above `REFRESH_RATIO` times its previous value also triggers a
refactorization before the next step.  The LU lives inside one
`newton_solve` call, so no solver state outlives a solve.

The shooting oracle integrates the 1-D front equation
-d psi'' + c psi' = f(psi) from the exact ignition tail
psi(x) = theta exp(c x / d) (x <= 0), classifying each trial speed as
overshoot (psi passes 1 with psi' > 0, speed too large) or undershoot
(psi' vanishes below 1, speed too small) and bisecting.  Trajectories
that exhaust the integration window are classified as undershoot: only
at-or-below-critical speeds linger.  One RK4 stepper serves the
classification and the profile pass, each with its own stop rule.  The
bisection runs at `COARSE` times the RK4 step h; its final bracket is
then classified once more at h.  When h confirms it (lower end
undershoots, upper end overshoots), it is the bracket a bisection at h
finds, provided the classification at h is monotone in c; otherwise
the bisection is redone at h.  The upper-end doubling and the profile
pass run at h.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BracketNotFound, LinearSolveFailed, MaxItersExceeded,
                     NegativeSpeed, StepUnderflow)
from .grid import Grid
from .model import ModelParams, NonlinearitySpec, c_max, scalar_reaction
from .model import eval_nonlinearity  # noqa: F401 (not called; kept for perfbench/tracer.py)
from .residual import WaveState, assemble_jacobian, assemble_residual, state_to_vector, vector_to_state

logger = logging.getLogger(__name__)

_ARMIJO_SLOPE = 1e-4
# an accepted step that leaves more than this fraction of the residual
# refactors the Jacobian before the next step
REFRESH_RATIO = 0.25
# the shooting bisection runs at COARSE times the RK4 step, then confirms its
# final bracket at the step itself.  At 4x, 8x and 16x the step, bisections to
# tol = 1e-11 ended in the fine step's bracket in all six cases tried (cubic at
# theta 0.05, 0.3, 0.9 with d = 1 and 0.45 with d = 2.5, the oracle at theta
# 0.25 and 0.9); at 32x two cubic brackets moved by 5e-12 and 7e-12, which
# would send those runs back to the bisection at the step itself
COARSE = 16


@dataclass(frozen=True)
class NewtonOptions:
    tol_residual: float = 1e-10
    max_iters: int = 50
    damping: float = 0.5
    min_step: float = 1e-8

    def __post_init__(self) -> None:
        if not self.tol_residual > 0:
            raise ValueError(f"NewtonOptions.tol_residual must be > 0, got {self.tol_residual!r}")
        if not self.max_iters >= 1:
            raise ValueError(f"NewtonOptions.max_iters must be >= 1, got {self.max_iters!r}")
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"NewtonOptions.damping must lie in (0, 1), got {self.damping!r}")
        if not self.min_step > 0:
            raise ValueError(f"NewtonOptions.min_step must be > 0, got {self.min_step!r}")


@dataclass
class NewtonResult:
    state: WaveState
    iterations: int
    residual_norm: float
    factorizations: int


@dataclass
class OneDimWave:
    """Front of the 1-D reduction: speed, sampled profile, threshold.

    The profile starts at x = 0 with psi(0) = theta; the tail
    theta*exp(c x / d) is exact for x <= 0 and is evaluated analytically.
    """

    c: float
    x: np.ndarray
    psi: np.ndarray
    theta: float
    d: float = 1.0

    def evaluate(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        tail = self.theta * np.exp(self.c / self.d * np.minimum(xq, 0.0))
        body = np.interp(xq, self.x, self.psi, left=self.theta, right=1.0)
        return np.where(xq <= 0.0, tail, body)


@dataclass
class Factorization:
    """Sparse LU of a square matrix, made by `factorize`."""

    J: sp.csc_matrix
    lu: spla.SuperLU
    j_norm: float  # |J|_inf, for the backward-error test

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution with relative residual <= 1e-12 against the factored matrix.

        One iterative-refinement step is applied when the first solve leaves
        a larger residual.  Raises LinearSolveFailed otherwise.
        """
        J = self.J
        if J.shape[0] != rhs.shape[0]:
            raise LinearSolveFailed("rhs length does not match matrix")
        try:
            x = self.lu.solve(rhs)
        except RuntimeError as exc:
            raise LinearSolveFailed(str(exc)) from exc
        if not np.all(np.isfinite(x)):
            raise LinearSolveFailed("factorization produced non-finite solution")

        # backward-error test: |J x - rhs| <= 1e-12 (|J| |x| + |rhs|), inf-norms
        def backward_error(sol: np.ndarray) -> float:
            scale = self.j_norm * np.abs(sol).max() + np.abs(rhs).max()
            if scale == 0.0:
                return 0.0
            return float(np.abs(J @ sol - rhs).max() / scale)

        if backward_error(x) > 1e-12:
            x = x + self.lu.solve(rhs - J @ x)
            err = backward_error(x)
            if err > 1e-12:
                raise LinearSolveFailed(f"relative linear residual {err:.3e} exceeds 1e-12 "
                                        "after refinement")
        return x


def factorize(J: sp.spmatrix) -> Factorization:
    """Direct sparse LU of J.  Raises LinearSolveFailed on structural or
    numerical singularity."""
    if J.shape[0] != J.shape[1]:
        raise LinearSolveFailed(f"matrix is not square: {J.shape}")
    Jc = J.tocsc()
    try:
        lu = spla.splu(Jc)
    except RuntimeError as exc:
        raise LinearSolveFailed(str(exc)) from exc
    return Factorization(J=Jc, lu=lu, j_norm=float(np.abs(Jc).sum(axis=1).max()))


def linear_solve(J: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """One solve with a fresh factorization of J (see `Factorization.solve`)."""
    return factorize(J).solve(rhs)


def newton_solve(init: WaveState, params: ModelParams, spec: NonlinearitySpec,
                 grid: Grid, opts: NewtonOptions = NewtonOptions()) -> NewtonResult:
    """Chord Newton iteration on the bordered system (see the module docstring).

    Deterministic given its inputs.  Raises MaxItersExceeded,
    LinearSolveFailed, StepUnderflow, or NegativeSpeed (converged speed
    c <= 0 signals a spurious root).
    """
    u = state_to_vector(init, grid)
    family = init.family

    def res_of(vec: np.ndarray) -> np.ndarray:
        return assemble_residual(vector_to_state(vec, grid, family), params, spec, grid)

    R = res_of(u)
    norm = float(np.abs(R).max())
    iterations = factorizations = 0
    lu = None
    while not norm <= opts.tol_residual:  # a NaN residual is never converged
        if iterations >= opts.max_iters:
            raise MaxItersExceeded(f"residual {norm:.3e} after {opts.max_iters} iterations")
        fresh = lu is None
        if fresh:
            lu = factorize(assemble_jacobian(vector_to_state(u, grid, family), params, spec,
                                             grid))
            factorizations += 1
        du = lu.solve(-R)
        lam = 1.0
        while True:
            u_trial = u + lam * du
            R_trial = res_of(u_trial)
            norm_trial = float(np.abs(R_trial).max())
            armijo = norm_trial <= (1.0 - _ARMIJO_SLOPE * lam) * norm  # False for NaN
            if armijo or not fresh:
                break
            lam *= opts.damping
            if lam < opts.min_step:
                raise StepUnderflow(f"line search stalled at residual {norm:.3e}")
        if not armijo:
            lu = None  # a stale step failed the Armijo test: refactor at the same iterate
            continue
        if norm_trial > REFRESH_RATIO * norm:
            lu = None  # slow progress: refactor at the new iterate
        u, R, norm = u_trial, R_trial, norm_trial
        iterations += 1

    out = vector_to_state(u, grid, family)
    if out.c <= 0.0:
        raise NegativeSpeed(f"converged to c = {out.c:.6e}")
    peclet = out.c * grid.hx / params.d
    if peclet >= 2.0:
        logger.warning("cell Peclet number c*hx/d = %.3f >= 2; centered convection may oscillate", peclet)
    return NewtonResult(state=out, iterations=iterations, residual_norm=norm,
                        factorizations=factorizations)


def _rk4(c: float, d: float, f, theta: float, h: float, n_steps: int):
    """Yield (psi, psi') after each RK4 step of d psi'' = c psi' - f(psi) from x = 0."""
    psi, dpsi = theta, c * theta / d
    # the first stage is evaluated on the active reaction branch; the
    # trajectory leaves u = theta immediately and f is defined one-sidedly
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


def _classify(trajectory) -> int:
    """+1 overshoot, -1 undershoot for one shooting trajectory."""
    for psi, dpsi in trajectory:
        if psi > 1.0 and dpsi > 0.0:
            return 1
        if dpsi <= 0.0:
            return 1 if psi >= 1.0 else -1
    return -1


def _bisect(lo: float, hi: float, tol: float, classify_at) -> tuple[float, float]:
    """Shrink [lo, hi] to width <= tol; `classify_at(mid)` is +1 (overshoot) or -1."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if classify_at(mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def solve_1d_ignition_shooting(d: float, spec: NonlinearitySpec, tol: float) -> OneDimWave:
    """Front speed and profile of -d psi'' + c psi' = f(psi) by bisection.

    The initial speed bracket is [tol, c_max]; when the reaction term
    violates the premise of the closed-form bound (the discontinuous
    oracle nonlinearity does) the upper end is grown by doubling, at the
    fine step h, until it overshoots.  The bisection runs at the coarse
    step `COARSE * h`, and its final bracket is then confirmed at h: the
    lower end must undershoot and the upper end overshoot (an upper end
    that is still the starting one is known to overshoot and is not
    integrated again).

    Every midpoint the bisection visits lies at or below the final lower
    end or at or above the final upper end.  So if the classification at
    h is monotone in c, which bisection assumes anyway, a confirmed
    bracket means every coarse decision matched the fine one: the bracket,
    c and the profile are the same floats as from a bisection at h.  An
    unconfirmed bracket is logged and the bisection is redone at h, where
    the lower end is checked to undershoot only if no midpoint did.  A
    confirmation lower end that is still `c_floor` and does not undershoot
    raises at once: under that monotonicity the bisection at h would reach
    the same end.
    |c - c*| <= tol on return.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c_bound = c_max(ModelParams(d=d, D=d, mu=1.0, L=1.0), spec)
    h = 1e-3 * d / c_bound
    x_max = max(200.0 * d / c_bound, 100.0)
    n_steps = int(x_max / h)
    theta, f = spec.theta, scalar_reaction(spec)

    def classify_at(step: float, count: int):
        return lambda c: _classify(_rk4(c, d, f, theta, step, count))

    fine = classify_at(h, n_steps)
    c_floor = max(tol, 1e-10)
    hi_start = c_bound
    grow = 0
    while fine(hi_start) != 1:
        hi_start *= 2.0
        grow += 1
        if grow > 20:
            raise BracketNotFound("no overshooting speed found while doubling the upper bracket")
    lo, hi = _bisect(c_floor, hi_start, tol, classify_at(COARSE * h, n_steps // COARSE))
    lo_undershoots = fine(lo) == -1
    if lo == c_floor and not lo_undershoots:
        raise BracketNotFound(f"lower bracket end c = {lo:.3e} does not undershoot")
    if not lo_undershoots or (hi != hi_start and fine(hi) != 1):
        logger.info("shooting: bracket [%r, %r] from step %g is not confirmed at step %g; "
                    "bisecting again at step %g", lo, hi, COARSE * h, h, h)
        lo, hi = _bisect(c_floor, hi_start, tol, fine)
        if lo == c_floor and fine(lo) != -1:
            raise BracketNotFound(f"lower bracket end c = {lo:.3e} does not undershoot")
    c_star = 0.5 * (lo + hi)

    xs, ps = [0.0], [theta]
    for psi, dpsi in _rk4(c_star, d, f, theta, h, n_steps):
        if psi <= ps[-1]:
            break  # turn-around of the near-critical trajectory; keep the profile increasing
        xs.append(xs[-1] + h)
        ps.append(min(psi, 1.0))
        if 1.0 - psi < 1e-13 or dpsi <= 0.0:
            break
    return OneDimWave(c=c_star, x=np.array(xs), psi=np.clip(np.array(ps), 0.0, 1.0),
                      theta=theta, d=d)
