"""Chord Newton solve of the bordered system and the 1-D shooting oracle.

Newton iterates on the flat dof vector; each accepted step strictly
decreases the residual infinity norm by the Armijo rule.  Linear systems
are solved by a direct LU (deterministic, robust for the bordered
nonsymmetric matrix at desk scale), and every solve passes one shared
backward-error test, with one step of iterative refinement when needed.

Newton factors its Jacobian J in one of two ways, chosen by the grid.
J's natural order (`residual.field_views`) is banded: every entry
outside its last row and column lies within m = (N - 1) // nx of the
diagonal.  When m <= `BAND_MAX_WIDTH`, J is factored as a LAPACK band
matrix (`dgbtrf`, partial pivoting).  The border (the c column b, and
the phase row e_a^T, a single 1 at the anchor a) is removed as follows
(Govaerts 2000, *Numerical Methods for Bifurcations of Dynamical
Equilibria*): the phase row gives x_a = r_N, so the anchor column of J
is moved to the right-hand side and replaced by e_a.  The band matrix
left, A~, is well conditioned because pinning the anchor removes the
near-null translation mode, and J x = r becomes
(A~ + (b - e_a) e_a^T) z = r - J[:, a] r_N with z_a = dc, which one
rank-1 (Sherman-Morrison) correction solves.  Where each entry of J goes (`band_map`) is worked
out once per cached Jacobian pattern (its `bands`).  Wider grids use
SuperLU (COLAMD ordering), whose fill grows more slowly than the band's
N (3m + 1) entries.

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
from scipy.linalg import lapack

from .errors import (BracketNotFound, LinearSolveFailed, MaxItersExceeded,
                     NegativeSpeed, StepUnderflow)
from .grid import Grid
from .model import ModelParams, NonlinearitySpec, c_max, scalar_reaction
from .model import eval_nonlinearity  # noqa: F401 (not called; kept for perfbench/tracer.py)
from .residual import (WaveState, assemble_jacobian, assemble_residual, cached_pattern,
                       state_to_vector, vector_to_state)

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
# `factorize(J, nx)` uses the band LU when the half-bandwidth m = (N - 1) // nx
# is at most this, and SuperLU above it.  One factorization and one solve of a
# Wentzell(1) Jacobian, each grid in a fresh process with one BLAS thread on a
# shared 2-vCPU VM, SuperLU -> band (a range where repeats differed):
#     grid        factor s                 solve s                peak RSS MB
#     481 x 11    0.011 -> 0.005           0.0008 -> 0.0007        68 ->  67
#     961 x 21    0.069 -> 0.030           0.005 -> 0.004          83 ->  82
#     961 x 41    0.15-0.19 -> 0.085-0.095 0.008-0.011 -> 0.011   110 -> 118
#     3841 x 41   0.62-0.78 -> 0.46-0.53   0.03-0.05 -> 0.04-0.06 251 -> 280
#     961 x 61    0.25-0.35 -> 0.22-0.25   0.015-0.018 -> 0.023-0.026  140 -> 171
#     961 x 81    0.47 -> 0.42             0.026 -> 0.037         176 -> 242
#     1921 x 81   1.14 -> 0.90             0.054 -> 0.082         289 -> 420
#     961 x 161   1.85 -> 1.76             0.057 -> 0.118         342 -> 701
# The band array alone holds N (3m + 1) doubles, 2.4 GB on the 3841 x 161
# refinement grid, where SuperLU peaks at 1.2 GB.  The band factors clearly
# faster up to m = 42; from ny = 61 on it gains little, solves slower and
# needs 1.2 to 2 times the memory.
BAND_MAX_WIDTH = 48


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


def band_map(indptr: np.ndarray, indices: np.ndarray, nx: int) -> tuple:
    """(m, a, dst, rows_a) of a bordered CSC J on an `nx`-column grid (see
    `BorderedBandLU`): J.data[k] goes to dst[k] in the band storage of A~ (the
    phase entry to A~[a, a]), b, or column a (rows rows_a) of J, in turn."""
    n = indptr.size - 2  # unknowns besides c
    m = n // nx
    if m * nx != n:
        raise ValueError(f"a {n + 1}-row Jacobian does not fit a grid with nx = {nx}")
    rows, cols = indices.astype(np.intp), np.repeat(np.arange(n + 1), np.diff(indptr))
    phase = rows == n
    if phase.sum() != 1 or cols[phase][0] == n:
        raise ValueError("the last row of J is not a unit phase row")
    a = int(cols[phase][0])
    at_a, border = (cols == a) & ~phase, cols == n
    if np.abs(rows - cols)[~(border | phase)].max() > m:
        raise ValueError(f"J has entries outside the half-bandwidth {m}")
    # LAPACK band storage, column-major with ldab = 3m + 1: A~[r, c] goes to
    # ab[2m + r - c, c]; the first m rows are workspace for the pivoting fill
    ldab = 3 * m + 1
    dst = np.where(border | at_a, n * ldab + rows, cols * ldab + 2 * m + rows - cols)
    dst[at_a] = n * (ldab + 1) + np.arange(at_a.sum())
    dst[phase] = a * ldab + 2 * m  # A~[a, a] = 1, the phase row's entry
    return m, a, dst.astype(np.int32), rows[at_a]


class BorderedBandLU:
    """Band LU of a bordered Jacobian (module docstring).

    `J` is the CSC Jacobian of an `nx`-column grid (`assemble_jacobian`); its
    last row must be the phase row, a single 1, and the rest of J banded
    (ValueError otherwise).  Raises LinearSolveFailed when the band matrix
    is exactly singular or the rank-1 correction has a zero denominator.
    """

    def __init__(self, J: sp.csc_matrix, nx: int) -> None:
        bands = getattr(cached_pattern(J), "bands", {})  # a cached pattern keeps its maps
        m, a, dst, rows_a = (bands.get(nx)
                             or bands.setdefault(nx, band_map(J.indptr, J.indices, nx)))
        n, ldab = J.shape[0] - 1, 3 * m + 1
        buf = np.zeros(n * (ldab + 1) + rows_a.size)
        buf[dst] = J.data
        ab, b = buf[:n * ldab], buf[n * ldab:n * (ldab + 1)]
        if ab[a * ldab + 2 * m] != 1.0:
            raise ValueError("the last row of J is not a unit phase row")
        self.col_a = rows_a, buf[n * (ldab + 1):]  # column a of J, moved to the right-hand side
        self.lu, self.piv, info = lapack.dgbtrf(ab.reshape(n, ldab).T, m, m,
                                                    overwrite_ab=1)
        if info > 0:
            raise LinearSolveFailed(f"band factor is exactly singular: U({info}, {info}) = 0")
        self.m, self.a = m, a
        b[a] -= 1.0
        self.w = self._band_solve(b)  # A~^{-1} (b - e_a)
        self.denom = 1.0 + self.w[a]
        if self.denom == 0.0:
            raise LinearSolveFailed("bordered matrix is singular (rank-1 correction "
                                    "has a zero denominator)")

    def _band_solve(self, rhs: np.ndarray) -> np.ndarray:
        return lapack.dgbtrs(self.lu, self.m, self.m, rhs, self.piv, overwrite_b=1)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with J x = rhs, to the band LU's accuracy (no backward-error test)."""
        r_phase = rhs[-1]  # the phase row fixes x at the anchor
        r = rhs[:-1].copy()
        rows_a, vals_a = self.col_a
        r[rows_a] -= vals_a * r_phase
        y = self._band_solve(r)
        z = y - self.w * (y[self.a] / self.denom)
        x = np.append(z, z[self.a])  # z_a is dc
        x[self.a] = r_phase
        return x


@dataclass
class Factorization:
    """LU of a square matrix, made by `factorize`: a `BorderedBandLU` or a
    SuperLU.  The backward-error test of `solve` is the same for both."""

    J: sp.csc_matrix
    lu: BorderedBandLU | sp.linalg.SuperLU
    j_norm: float  # |J|_inf, for the backward-error test

    @property
    def kind(self) -> str:
        return "band" if isinstance(self.lu, BorderedBandLU) else "superlu"

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


def factorize(J: sp.spmatrix, nx: int | None = None) -> Factorization:
    """LU of J.  Raises LinearSolveFailed on structural or numerical singularity.

    Given `nx`, J must be a bordered Jacobian of an `nx`-column grid
    (`assemble_jacobian`); it is factored as a band (`BorderedBandLU`) when
    its half-bandwidth (N - 1) // nx is at most `BAND_MAX_WIDTH`.  Otherwise,
    and for a general J (no `nx`), SuperLU factors it.
    """
    if J.shape[0] != J.shape[1]:
        raise LinearSolveFailed(f"matrix is not square: {J.shape}")
    Jc = J.tocsc()
    Jc.sum_duplicates()
    # the row sums of |J| in column order, as `abs(Jc).sum(axis=1)` adds them
    j_norm = float(np.bincount(Jc.indices, np.abs(Jc.data), Jc.shape[0]).max())
    if nx is not None and (Jc.shape[0] - 1) // nx <= BAND_MAX_WIDTH:
        return Factorization(J=Jc, lu=BorderedBandLU(Jc, nx), j_norm=j_norm)
    import scipy.sparse.linalg as spla  # here: only wide grids and general matrices need it
    try:
        lu = spla.splu(Jc)
    except RuntimeError as exc:
        raise LinearSolveFailed(str(exc)) from exc
    return Factorization(J=Jc, lu=lu, j_norm=j_norm)


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
                                             grid), grid.nx)
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
