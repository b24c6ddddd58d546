"""Chord Newton solve of the bordered system and the 1-D shooting oracle.

Newton iterates on the flat dof vector; each accepted step strictly
decreases the residual infinity norm by the Armijo rule.  Linear systems
are solved by a direct LU (deterministic, robust for the bordered
nonsymmetric matrix at desk scale): `factorize` returns a `BorderedBandLU`,
whose `solve` passes its own backward-error test, with one step of
iterative refinement when needed.

Newton factors its Jacobian J as a band matrix on every grid.  J comes
from `assemble_jacobian` as a `residual.Jacobian`: its seven diagonals,
at offsets 0, +-1, +-2 and +-m in its natural order (`residual.field_views`),
its c column b and its anchor.  Every entry outside J's last row and column
lies within m (`J.m`) of the diagonal, so J is factored as a LAPACK band
matrix (`dgbtrf`, partial pivoting), filled by one strided slice per
diagonal, each row scaled by 1/max|row| (row equilibration, as LAPACK's
dgbequ; Higham 2002, ch. 9).  Unscaled, pivoting on the default run reached
up to 41 rows past the weak one-sided boundary rows; scaled, one.  U then
has m + p superdiagonals at most, p the pivots' reach, and the solve reads
only those.  The border (b, and the phase row e_a^T, a single 1 at the anchor
a = `J.anchor`) is removed as follows (Govaerts 2000, *Numerical
Methods for Bifurcations of Dynamical Equilibria*): the phase row gives
x_a = r_N, so the anchor column of J is moved to the right-hand side and
replaced by e_a.  The band matrix left, A~, is well conditioned because
pinning the anchor removes the near-null translation mode, and J x = r becomes
(A~ + (b - e_a) e_a^T) z = r - J[:, a] r_N with z_a = dc, which one
rank-1 (Sherman-Morrison) correction solves.  Its w = A~^{-1} (b - e_a) is
the second column of the first solve's band solve.  The band holds about
N (3m + 1) entries, so its memory grows like nx ny^2.  It is the head of one
array per thread, which grows to the largest band factored in that thread
and never shrinks; each factorization rewrites every band entry LAPACK
reads, so the array is memory, not solver state.

Left of the front the reaction vanishes (f = f' = 0 for psi <= theta), so
A~ is block tridiagonal there with one (L, D, U) per block row of m
unknowns: on the default 961 x 41 grid its block rows 1 .. T, T of 604 to
627, are bit-identical after the Dirichlet block row 0, a diagonal.  A
`CyclicTail` solves row 0 by one division and eliminates all T rows,
exactly, by block cyclic reduction (Buzbee, Golub and Nielson, SIAM J.
Numer. Anal. 7, 1970; Heller, SIAM J. Numer. Anal. 13, 1976) of any
number of rows (Sweet, SIAM J. Numer. Anal. 14, 1977): each of the
bit_length(T) levels eliminates every other remaining block row with the
inverses of one or two m x m blocks, applied as matrix products, and leaves
a Schur complement on the diagonal block of row T + 1.  The band LU then
factors only the unknowns from block column T + 1 on (333 to 350 of 961
block columns on the default grid), and a solve reduces the right-hand side
level by level, runs the band solve, and back-substitutes.  `cyclic_tail`
reads T from J's diagonals and takes T = 0 when m < `TAIL_MIN_WIDTH`.  The
discrete problem is the same, solved with less arithmetic; it differs from
a band LU of all of A~ at roundoff.

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
at-or-below-critical speeds linger.  Every trajectory is one call of one
RK4 stepper, `_trajectory`, which serves the classification and the profile
pass, each with its own stop rule.  The shooting is interpreter-bound, so
the stepper is one loop with the reaction written inline, one expression for
both kinds, instead of a generator and a reaction closure called per stage:
the same arithmetic, in the same order, in about two thirds of the time.  The
bisection climbs a ladder of steps, `LADDER * COARSE` times, `COARSE`
times and once the RK4 step h: it bisects on the coarsest rung, and each
finer rung classifies the final bracket once more.  When a rung confirms
it (lower end undershoots, upper end overshoots), it is the bracket a
bisection at that rung finds, provided the classification there is
monotone in c; otherwise the bisection is redone at that rung.  The
upper-end doubling and the profile pass run on the last rung, h.
`one_dim_guess`, only a start for Newton, is the same shooting on a ladder of
its own, `GUESS_LADDER * LADDER * COARSE` and `LADDER * COARSE` times h, and
bisects only to `GUESS_TOL`: the discrete 1-D speed Newton finds lies further
than that from the shot speed.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (BracketNotFound, LinearSolveFailed, MaxItersExceeded,
                     NegativeSpeed, StepUnderflow)
from .grid import Grid
from .model import ModelParams, NonlinearityKind, NonlinearitySpec, c_max
from .model import eval_nonlinearity  # noqa: F401 (not called; kept for perfbench/tracer.py)
from .residual import (SELF, Jacobian, WaveState, assemble_jacobian, assemble_residual,
                       state_to_vector, vector_to_state)

logger = logging.getLogger(__name__)


def _load_flapack():
    """scipy's compiled LAPACK wrappers, `scipy.linalg._flapack`: the very
    objects `scipy.linalg.lapack` re-exports, loaded from their file without
    importing the scipy package, whose import is most of a run's start-up.
    The module is registered under its own name, so a later `import
    scipy.linalg` reuses it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        # finding the scipy package, and a file in it, executes none of scipy
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("stripwave needs scipy", name="scipy")
        linalg = [os.path.join(path, "linalg") for path in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(name, linalg)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


lapack = _load_flapack()

_ARMIJO_SLOPE = 1e-4
# an accepted step that leaves more than this fraction of the residual
# refactors the Jacobian before the next step.  The default run A -> B -> C in
# process (no file output, the guess included) at other ratios: factorizations
# and checked solves, on the grid + on the coarse level, and wall ms, median
# (quartiles) of 20 alternating rounds, one BLAS thread, shared 2-vCPU VM:
#     ratio   961 x 41                        481 x 11
#     0.1     6 + 9, 13 + 17, 119 (113-129)   6 + 9, 16 + 19, 26.5 (26.1-28.6)
#     0.25    6 + 9, 13 + 17, 119 (113-134)   6 + 9, 16 + 19, 26.9 (26.3-27.4)
#     0.5     6 + 8, 13 + 21, 121 (116-131)   6 + 8, 16 + 23, 27.1 (26.5-29.1)
#     inf     6 + 8, 13 + 21, 124 (114-134)   6 + 8, 16 + 23, 26.9 (26.1-28.6)
# Only the coarse level's Newton refreshes; the walls differ by less than their
# spread, and the final c moves by at most 2e-14 relative.  Over the 23 scenarios
# of `scripts/scenario_scan.py`, inf against 0.25 leaves the grid's factorizations
# and iterations the same; on the coarse level factorizations go 158 -> 144
# (481 x 11) and 157 -> 144 (961 x 41), iterations 337 -> 385 and 309 -> 354, and
# a final c moves by at most 2.5e-13 relative
REFRESH_RATIO = 0.25
# the middle rung of the shooting ladder (module docstring), the oracle's first
# confirmation.  At 4x, 8x and 16x the step, bisections to tol = 1e-11 ended in
# the fine step's bracket in all six cases tried (cubic at theta 0.05, 0.3, 0.9
# with d = 1 and 0.45 with d = 2.5, the oracle at theta 0.25 and 0.9); at 32x two
# cubic brackets moved by 5e-12 and 7e-12, which would send those runs back to
# the bisection at the step itself
COARSE = 16
# the shooting bisects at LADDER * COARSE times the RK4 step.  The oracle's first
# two rungs, with the growth and the profile at COARSE, over both kinds x theta
# 0.05, 0.3, 0.6, 0.9 x d 0.5, 1, 2.5 (24 cases): brackets confirmed at COARSE,
# and RK4 steps per call (growth, bisection, confirmation and profile; the mean
# of 24):
#     LADDER   tol = 1e-9                tol = 1e-11
#     1        -      26.6k              -      37.1k   (bisection at COARSE)
#     2        24/24  16.3k              20/24  30.2k
#     4        23/24  11.9k              15/24  29.9k
#     8        16/24  18.1k              12/24  29.5k
# A bracket that is not confirmed costs a bisection at COARSE.  Every such result
# and every `solve_1d_ignition_shooting` result was the same floats as with a
# bisection at COARSE (and h); no bracket was confirmed that differed
LADDER = 4
# `one_dim_guess` bisects to a bracket of max(tol, GUESS_TOL): its speed is only
# Newton's start, and the discrete 1-D speed Newton finds lies 4e-5 to 2e-4 from
# it.  Over the 23 scenarios of `scripts/scenario_scan.py`, the number whose s = 0
# start takes more Newton iterations on three rows (481 or 961 columns) than from
# the two-rung guess at tol = 1e-9 it replaced (none took fewer), and the time of
# the guess for the default cubic and summed over the 10 distinct (d, theta)
# (median of 5 calls, ms; 21 and 258 for the two-rung guess):
#     GUESS_TOL   481   961   default   sum
#     1e-9        0     0     13.1      116
#     1e-8        0     0     8.5       85
#     1e-7        0     15    5.5       64
#     1e-6        3     19    4.6       48
#     1e-5        6     21    4.1       53
# One more iteration on 961 x 3 costs about 0.5 ms
GUESS_TOL = 1e-7
# `one_dim_guess` bisects at GUESS_LADDER times its step, `LADDER * COARSE * h`,
# and confirms the bracket at its step.  Over both kinds x theta 0.05, 0.3, 0.4,
# 0.5, 0.6, 0.9 x d 0.5, 1, 2, 2.5, 4 at tol = 1e-9 (60 cases): brackets not
# confirmed, RK4 steps per call (the mean of 60), and the time of the guess for the
# default cubic and summed over the 60 (median of 3 calls, ms, one core):
#     GUESS_LADDER   unconfirmed   steps   default   sum
#     1              -             4.4k    4.14      201   (bisection at its step)
#     2              1             3.0k    2.83      143
#     3              1             2.4k    2.10      115
#     4              6             2.5k    5.46      123
#     6              18            3.2k    5.12      152
# The unconfirmed case at 2 and 3 is the cubic at theta 0.05, d = 2; at 4 the
# default cubic is one.  Every guess was the same floats as the bisection at its step
GUESS_LADDER = 3
# `cyclic_tail` takes K = 0 below this m.  One factorization and one solve of
# `BorderedBandLU` on a Wentzell(1) and an exchange(0.05) Jacobian of the
# embedded front on [-160, 80], K = 0 -> tail (the best of 5 calls, median of
# 5 interleaved rounds, one BLAS thread, shared 2-vCPU VM, ms):
#     grid        m       K     factor                      solve
#     481 x 11    11, 12  313   2.1 -> 2.7, 3.0 -> 3.1      0.48 -> 1.00, 0.76 -> 1.07
#     961 x 11    11, 12  627   5.7 -> 4.6, 7.4 -> 5.2      1.30 -> 1.64, 1.56 -> 1.71
#     961 x 15    15, 16  627   10.6 -> 6.6, 8.9 -> 6.3     2.17 -> 2.20, 2.01 -> 2.24
#     961 x 21    21, 22  627   15.2 -> 7.1, 13.9 -> 9.9    2.62 -> 2.22, 2.85 -> 2.78
#     961 x 31    31, 32  627   37.7 -> 15.4, 28.4 -> 13.3  6.67 -> 3.69, 6.08 -> 3.72
#     961 x 41    41, 42  627   55.5 -> 22.9, 53.7 -> 22.7  8.58 -> 5.67, 8.79 -> 5.89
# Each level costs a few m x m calls, whatever m.  Below m = 21 the solve,
# which Newton runs about four times per factorization, is up to twice as slow
# with the tail (481 x 11, where the factorization gains nothing); from m = 21
# on the factorization is 29-59% faster and the solve no slower.
TAIL_MIN_WIDTH = 21


@dataclass(frozen=True)
class NewtonOptions:
    tol_residual: float = 1e-10
    max_iters: int = 50
    damping: float = 0.5
    min_step: float = 1e-8

    def __post_init__(self) -> None:
        if not 0 < self.tol_residual < math.inf:
            raise ValueError(f"NewtonOptions.tol_residual must lie in (0, inf), got {self.tol_residual!r}")
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


def _block_row(J: Jacobian, i: int) -> np.ndarray:
    """Block row i of J as a dense (m, 3m) array: its blocks in block columns
    i - 1, i and i + 1, in turn."""
    m = J.m
    out = np.zeros((m, 3 * m))
    j = np.arange(m)
    rows, cols = np.tile(j, 7), (m + j + J.offsets[:, None]).ravel()
    out[rows, cols] = J.diags[:, i * m:(i + 1) * m].ravel()
    return out


class CyclicTail:
    """The elimination (module docstring) of block rows 0 .. K of A~, for
    any K >= 0: the Dirichlet block row 0, diag(d0), by one division, then
    block cyclic reduction of the rows 1 .. K, equal to tridiag(L, D, U).  L
    is also the left block of row K + 1, the boundary row, which leads the
    band part.

    Level l works on the live rows K + 1 - j 2^l, j = 1 .. n with n = K >> l,
    and eliminates those with j odd, so the row next to the boundary row
    goes at every level and `schur` is what the levels take from its
    diagonal block.  The live rows share one (L, D, U) at each level, but the
    first, j = n, has no left neighbour left: once a level keeps it (n
    even), it carries its own diagonal block, inverted at the level that
    eliminates it (n odd).  While every level eliminates it (K = 2^p - 1),
    it stays equal to the others.  A level keeps the inverses of its blocks
    and applies them as matrix products, to its own L and U and in `reduce`:
    at m = 42 a GEMM ran 3 to 6 times as fast as dgetrs on 8 to 300 columns.

    A level whose D or first block LAPACK's dgetrf reports exactly singular
    ends the reduction there: at K = 2^l - 1, with the levels before it.
    For that K each of them eliminates the first row with D, and row 2^l's
    Schur complement is the sum of their updates from the left, so the
    shorter tail is exact too.
    """

    def __init__(self, d0: np.ndarray, L: np.ndarray, D: np.ndarray | None,
                 U: np.ndarray | None, K: int) -> None:
        self.d0, self.L, self.K, self.levels = d0, L, K, []
        self.schur = np.zeros_like(L)
        first = None  # the first live row's own diagonal block, once it differs from D
        for l in range(K.bit_length()):
            n = K >> l
            inv = DL = DU = own = None
            if n > 1 or first is None:  # a row with the blocks (L, D, U) is eliminated
                inv = _inverse(D)
                if inv is None:
                    break
                DL, DU = inv @ L, inv @ U
                LDU = LFU = L @ DU
            if first is not None and n % 2:  # the first row is eliminated, with its own block
                first_inv = _inverse(first)
                if first_inv is None:
                    break
                own = first_inv, first_inv @ U
                LFU = L @ own[1]
            # D^{-1}, the blocks, D^{-1} L, D^{-1} U, and the first row's F^{-1} and F^{-1} U
            self.levels.append((inv, L, U, DL, DU, own))
            self.schur += LFU if n == 1 else LDU  # the boundary row's left neighbour
            if n > 1:
                UDL = U @ DL
                if n % 2:  # the row after the eliminated first row comes first
                    first = None if first is None else D - LFU - UDL
                else:  # the first row is kept, without the left neighbour's update
                    first = (D if first is None else first) - UDL
                L, D, U = -(L @ DL), D - LDU - UDL, -(U @ DU)
        else:
            return
        self.K = 2 ** len(self.levels) - 1  # a singular level l; `schur` has its levels only
        self.levels = [level[:5] + (None,) for level in self.levels]

    def _columns(self, r: np.ndarray) -> np.ndarray:
        """Blocks 1 .. K + 1 of r as the columns of an (m, K + 1) view, one
        for each row of a (k, n) r."""
        m = self.d0.size
        return r[..., m:(self.K + 2) * m].reshape(r.shape[:-1] + (self.K + 1, m)).swapaxes(-1, -2)

    def _split(self, l: int, R: np.ndarray) -> tuple:
        """The columns of `_columns` that level l keeps (the boundary row's
        last) and those it eliminates, as views, and s = 1 when it keeps its
        first row, 0 when it eliminates it."""
        h, n = 1 << l, self.K >> l
        first, s = self.K - n * h, 1 - n % 2
        return R[..., first + (1 - s) * h::2 * h], R[..., first + s * h:self.K:2 * h], s

    def reduce(self, r: np.ndarray) -> None:
        """Solve block row 0 and reduce blocks 1 .. K + 1 of r in place, level
        by level: block K + 1 is then the band part's first right-hand side.
        Each eliminated block is left as its diagonal block's inverse times
        it, which `back_substitute` starts from.  r is one right-hand side or
        a (k, n) array of k, reduced together."""
        m, R = self.d0.size, self._columns(r)
        r[..., :m] /= self.d0
        R[..., :1] -= self.L @ r[..., :m, None]  # row 1's left block times the Dirichlet block
        for l, (inv, L, U, _, _, own) in enumerate(self.levels):
            kept, gone, s = self._split(l, R)
            if own is not None:  # the first row, eliminated with its own block
                gone[..., :1] = own[0] @ gone[..., :1]
            if inv is not None:
                j = 0 if own is None else 1
                gone[..., j:] = inv @ gone[..., j:]
            kept[..., s:] -= L @ gone
            kept[..., :-1] -= U @ gone[..., 1 - s:]

    def back_substitute(self, r: np.ndarray) -> None:
        """The eliminated blocks 1 .. K of r, in place, once `reduce` ran and
        block K + 1 holds its solution."""
        R = self._columns(r)
        for l in reversed(range(len(self.levels))):
            inv, _, _, DL, DU, own = self.levels[l]
            X, gone, s = self._split(l, R)
            if own is not None:  # the first row: no left neighbour, its own block
                gone[..., :1] -= own[1] @ X[..., :1]
            if inv is not None:
                j = 0 if own is None else 1
                gone[..., j:] -= DU @ X[..., s + j:]
                gone[..., 1 - s:] -= DL @ X[..., :-1]


def _inverse(block: np.ndarray) -> np.ndarray | None:
    """The inverse of a square block, None when dgetrf reports it exactly
    singular; solved from I, as dgetri's left 10-100 times the backward error."""
    lu, piv, info = lapack.dgetrf(block)
    return None if info else lapack.dgetrs(lu, piv, np.eye(block.shape[0]), overwrite_b=1)[0]


def cyclic_tail(J: Jacobian) -> CyclicTail:
    """The elimination of block rows 0 .. K of a `Jacobian` J (anchor column
    a >= m).  ValueError unless block row 0 is a diagonal, as
    `assemble_jacobian` writes it, and LinearSolveFailed for a zero on it.
    When m >= `TAIL_MIN_WIDTH`, K is the largest with rows 1 .. K equal,
    L v_{i-1} + D v_i + U v_{i+1}, and row K + 1's left block L; otherwise
    K = 0.

    Read from J's diagonals reshaped to (7, nx, m), where block row i is
    [:, i]: rows 1 .. K are equal where their diagonals are.  The anchor
    column, e_a in A~ but not in J, lies in none of their blocks, nor in row
    K + 1's left block: K <= a // m - 2.
    """
    m, a = J.m, J.anchor
    V = J.diags.reshape(7, -1, m)
    if np.delete(V[:, 0], SELF, axis=0).any():
        raise ValueError("block row 0 of J is not a diagonal")
    d0 = V[SELF, 0].copy()
    if not d0.all():
        raise LinearSolveFailed("band factor is exactly singular: block row 0 has a zero")
    L, D, U = np.hsplit(_block_row(J, 1), 3)
    K = 0
    if m >= TAIL_MIN_WIDTH and a >= 3 * m:
        same = (V[:, 2:a // m - 1] == V[:, 1:2]).all(axis=(0, 2))  # rows 2 .. a // m - 2
        K = 1 + int(same.argmin() if not same.all() else same.size)  # rows 1 .. K are equal
        if not (_block_row(J, K + 1)[:, :m] == L).all():
            K -= 1
    return CyclicTail(d0, L, D, U, K)


class BorderedBandLU:
    """Band LU of a bordered Jacobian (module docstring), made by `factorize`,
    with the backward-error test of every solve.

    `J` is a `Jacobian` as `assemble_jacobian` returns it, whose `m` and
    anchor a lie past block column 0 (ValueError otherwise).  Raises
    LinearSolveFailed when the band matrix is exactly singular, and the
    first solve raises it when the rank-1 correction has a zero denominator:
    w = A~^{-1} (b - e_a) is the second column of that solve's band solve.
    Block rows 0 .. K are eliminated first (`tail`, a `CyclicTail`), and the
    band holds only the unknowns from `start` = (K + 1) m on: one strided
    slice of each of J's diagonals, each row times `scale` (1/max|row|), at
    the head of this thread's array (`_workspace`), sized for J's band
    without a tail and m floats more.  dgbtrs solves with U's `reach`
    superdiagonals past m, on the view `u` of the band shifted by m - `reach`
    rows.  `j_norm` and the backward-error test are of the unscaled J;
    `j_norm` sums block rows 0, 1 and K on, and rows 2 .. K - 1, which have
    row 1's diagonals, as row 1's diagonal sums plus their largest |b| at each
    position.  An LU whose band a later factorization in its thread has taken
    refuses to solve.
    """

    def __init__(self, J: Jacobian) -> None:
        if not isinstance(J, Jacobian):
            raise ValueError("J is not a Jacobian as assemble_jacobian returns it")
        n, m, a = J.b.size, J.m, J.anchor
        if a < m:
            raise ValueError(f"the anchor of J, column {a}, lies in block column 0")
        self.J, self.tail = J, cyclic_tail(J)
        K = self.tail.K
        start, ldab = (K + 1) * m, 3 * m + 1
        nb = n - start
        # |J|_inf: the row sums of |J|, each added in column order as a CSC row sum
        # adds it, and the phase row's 1; made before the band, so its temporaries
        # do not raise the peak memory
        size = np.abs(J.diags[:, start - m:])
        sums = size.sum(axis=0)
        sums += np.abs(J.b[start - m:])
        head = np.abs(J.diags[:, :min(K, 2) * m]).sum(axis=0)
        norms = [sums.max(), (head + np.abs(J.b[:head.size])).max(initial=0.0)]
        if K > 2:
            norms.append((head[m:] + np.abs(J.b[2 * m:K * m]).reshape(-1, m).max(axis=0)).max())
        self.j_norm = float(max(np.max(norms), 1.0))
        # the scale of each row from K on, 1 / max|row| over J's diagonals, 1 for a
        # zero row: scale[i] is row K m + i's
        size = size.max(axis=0)
        size[size == 0.0] = 1.0
        scale = np.divide(1.0, size, out=size)
        work = _workspace(ldab * (n - m) + m)  # the band of J without a tail
        # LAPACK band storage of A~ from `start` on, each row scaled, column-major:
        # A~[r, r + o] goes to ab[2m - o, r + o - start]; dgbtrf writes its pivoting
        # fill into the first m rows without reading them.  Diagonal o > 0 of row K,
        # the last eliminated, lands in the corner above the band's row 0 (LAPACK's
        # unused `*` entries, which dgbtrf and dgbtrs never read)
        ab = work[:ldab * nb].reshape((ldab, nb), order="F")
        ab[m:] = 0.0
        for row, o in zip(J.diags, J.offsets):
            np.multiply(row[start - o:n - max(o, 0)], scale[m - o:m + nb - max(o, 0)],
                        out=ab[2 * m - o, :nb - max(-o, 0)])
        rows_a = a - J.offsets  # column a of J, moved to the right-hand side
        self.col_a = rows_a, J.diags[np.arange(7), rows_a]
        self.scale = scale[m:]  # the band's rows'
        ab[m:, a - start] = 0.0
        ab[2 * m, a - start] = self.scale[a - start]  # A~[a, a], the phase row's entry
        r, c = np.indices((m, m))
        # the tail's Schur complement, into block row K + 1
        ab[2 * m + r - c, c] -= self.scale[:m, None] * self.tail.schur
        self.lu, self.piv, info = lapack.dgbtrf(ab, m, m, overwrite_ab=1)
        if info > 0:
            raise LinearSolveFailed(f"band factor is exactly singular: U({info}, {info}) = 0")
        # the owner's token, in an unused corner entry: no live LU has the same id
        self.lu[0, 0] = self.token = float(id(self))
        # U has m + p superdiagonals at most, p the pivots' reach (0-based): dgbtrs
        # with ku = p reads it from the band shifted by m - p rows, past the zeros
        self.reach = p = int((self.piv - np.arange(nb, dtype=self.piv.dtype)).max())
        self.u = work[m - p:m - p + ldab * nb].reshape((ldab, nb), order="F")
        self.m, self.a, self.start = m, a, start
        self.w = self.denom = None  # made by the first solve

    def _band_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A~^{-1} rhs, in place, for one right-hand side or a (k, n) array of k."""
        if self.lu[0, 0] != self.token:
            raise RuntimeError("the band workspace was taken by a later factorization")
        self.tail.reduce(rhs)
        band = rhs[..., self.start:]
        # the scaled columns, Fortran-ordered, for dgbtrs to solve in place
        b = np.empty(band.shape[::-1], order="F")
        np.multiply(band, self.scale, out=b.T)
        band[...] = lapack.dgbtrs(self.u, self.m, self.reach, b, self.piv, overwrite_b=1)[0].T
        self.tail.back_substitute(rhs)
        return rhs

    def _bordered_solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with J x = rhs, to the band LU's accuracy (no backward-error test).
        The first also makes w = A~^{-1} (b - e_a), as a second column."""
        r_phase = rhs[-1]  # the phase row fixes x at the anchor
        first = self.w is None
        x = np.empty((1 + first, rhs.size))
        z = x[:, :-1]  # the right-hand sides, then A~^{-1} of them, then z in row 0, in place
        z[0] = rhs[:-1]
        rows_a, vals_a = self.col_a
        z[0, rows_a] -= vals_a * r_phase
        if first:
            z[1] = self.J.b
            z[1, self.a] -= 1.0
        self._band_solve(z)
        if first:
            self.denom = 1.0 + z[1, self.a]
            if self.denom == 0.0:  # w stays unmade: every solve refuses
                raise LinearSolveFailed("bordered matrix is singular (rank-1 correction "
                                        "has a zero denominator)")
            self.w = z[1]
        x, z = x[0], z[0]
        z -= self.w * (z[self.a] / self.denom)
        x[-1] = z[self.a]  # z_a is dc
        x[self.a] = r_phase
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution with relative residual <= 1e-12 against the factored matrix.

        One iterative-refinement step is applied when the first solve leaves
        a larger residual.  Raises LinearSolveFailed otherwise.
        """
        J = self.J
        if J.shape[0] != rhs.shape[0]:
            raise LinearSolveFailed("rhs length does not match matrix")
        # max|rhs| and max|x| are NaN or inf exactly when an entry is
        rhs_max = np.abs(rhs).max()
        if not math.isfinite(rhs_max):
            raise LinearSolveFailed("non-finite right-hand side")
        x = self._bordered_solve(rhs)
        x_max = np.abs(x).max()
        if not math.isfinite(x_max):
            raise LinearSolveFailed("factorization produced non-finite solution")

        # backward-error test: |J x - rhs| <= 1e-12 (|J| |x| + |rhs|), inf-norms
        def backward_error(sol: np.ndarray, sol_max: float) -> float:
            scale = self.j_norm * sol_max + rhs_max
            if scale == 0.0:
                return 0.0
            r = J @ sol
            r -= rhs
            return float(np.abs(r, out=r).max() / scale)

        if backward_error(x, x_max) > 1e-12:
            r = J @ x
            x = x + self._bordered_solve(np.subtract(rhs, r, out=r))
            err = backward_error(x, np.abs(x).max())
            if err > 1e-12:
                raise LinearSolveFailed(f"relative linear residual {err:.3e} exceeds 1e-12 "
                                        "after refinement")
        return x


_local = threading.local()


def _workspace(size: int) -> np.ndarray:
    """This thread's band array, replaced by one of `size` floats when it is
    shorter.  A page takes memory once a band reaches it."""
    work = getattr(_local, "work", None)
    if work is None or work.size < size:
        work = _local.work = np.empty(size)
    return work


def factorize(J: Jacobian) -> BorderedBandLU:
    """The `BorderedBandLU` of J, a Jacobian as `assemble_jacobian` returns
    it, whose `solve` checks its own backward error.  Raises
    LinearSolveFailed when J is singular, ValueError for any other matrix.
    """
    return BorderedBandLU(J)


def linear_solve(J: Jacobian, rhs: np.ndarray) -> np.ndarray:
    """One checked solve with a fresh factorization of J (`factorize`, then
    `BorderedBandLU.solve`)."""
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
            u_trial = u + du if lam == 1.0 else u + lam * du
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


def _trajectory(c: float, d: float, spec: NonlinearitySpec, h: float, n_steps: int,
                profile: bool = False):
    """One shooting trajectory: up to `n_steps` RK4 steps of h of
    d psi'' = c psi' - f(psi) from psi = theta, psi' = c theta / d at x = 0.

    Without `profile` it returns the trajectory's class: +1 overshoot (psi
    passes 1 with psi' > 0, or psi' vanishes at or above 1), -1 undershoot
    (psi' vanishes below 1, or the window is exhausted).  With `profile` it
    returns the lists (x, psi) of the increasing profile from (0, theta),
    psi capped at 1: it stops before a step that does not increase psi (the
    turn-around of a near-critical trajectory), and after one that reaches
    1 to within 1e-13 or ends with psi' <= 0.
    """
    theta, fp1 = spec.theta, spec.fprime_at_one
    # f is written inline, once per stage: f = (u - theta)^k (1 - u) on (theta, 1],
    # k = 2 for the cubic and 0 for the oracle, where (u - theta) ** 0 is exactly
    # 1.0, so f is 1.0 - u to the bit
    k = 2 if spec.kind is NonlinearityKind.SMOOTH_CUBIC else 0
    half, sixth = 0.5 * h, h / 6.0
    psi, dpsi = theta, c * theta / d
    # the first stage is evaluated on the active reaction branch; the
    # trajectory leaves u = theta immediately and f is defined one-sidedly
    u = math.nextafter(theta, 1.0)
    x, xs, ps = 0.0, [0.0], [theta]
    for _ in range(n_steps):
        f = fp1 * (u - 1.0) if u > 1.0 else (u - theta) ** k * (1.0 - u) if u > theta else 0.0
        a1 = (c * dpsi - f) / d
        p2, dp2 = psi + half * dpsi, dpsi + half * a1
        f = fp1 * (p2 - 1.0) if p2 > 1.0 else (p2 - theta) ** k * (1.0 - p2) if p2 > theta else 0.0
        a2 = (c * dp2 - f) / d
        p3, dp3 = psi + half * dp2, dpsi + half * a2
        f = fp1 * (p3 - 1.0) if p3 > 1.0 else (p3 - theta) ** k * (1.0 - p3) if p3 > theta else 0.0
        a3 = (c * dp3 - f) / d
        p4, dp4 = psi + h * dp3, dpsi + h * a3
        f = fp1 * (p4 - 1.0) if p4 > 1.0 else (p4 - theta) ** k * (1.0 - p4) if p4 > theta else 0.0
        a4 = (c * dp4 - f) / d
        psi, dpsi = (psi + sixth * (dpsi + 2.0 * dp2 + 2.0 * dp3 + dp4),
                     dpsi + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        if profile:
            if psi <= ps[-1]:
                break
            x += h
            xs.append(x)
            ps.append(min(psi, 1.0))
            if 1.0 - psi < 1e-13 or dpsi <= 0.0:
                break
        elif psi > 1.0 and dpsi > 0.0:
            return 1
        elif dpsi <= 0.0:
            return 1 if psi >= 1.0 else -1
        u = psi
    return (xs, ps) if profile else -1


def _bisect(lo: float, hi: float, tol: float, classify_at) -> tuple[float, float]:
    """Shrink [lo, hi] to width <= tol, or until lo and hi are adjacent
    doubles; `classify_at(mid)` is +1 (mid lies above the root) or -1."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # below the resolution of doubles the bracket no longer shrinks
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
    fine step h, until it overshoots.  The bisection runs at the coarsest
    step `LADDER * COARSE * h`, and its final bracket is then confirmed at
    `COARSE * h` and at h: the lower end must undershoot and the upper end
    overshoot (an end that is still the starting one is not integrated
    again).

    Every midpoint a bisection visits lies at or below its final lower end
    or at or above its final upper end.  So if the classification at the
    finer step is monotone in c, which bisection assumes anyway, a
    confirmed bracket means every coarse decision matched the finer one:
    the bracket is the one a bisection at the finer step finds, and at h
    the bracket, c and the profile are the same floats as from a bisection
    at h.  An unconfirmed bracket is logged and the bisection is redone at
    that step, where the lower end is checked to undershoot only if no
    midpoint did.  A lower end that is still `c_floor` and does not
    undershoot at h raises at once: under that monotonicity the bisection
    at h would reach the same end.
    |c - c*| <= max(tol, one spacing of doubles at c) on return.
    """
    return _shoot(d, spec, _checked_tol(tol), (LADDER * COARSE, COARSE, 1))


def one_dim_guess(d: float, spec: NonlinearitySpec, tol: float) -> OneDimWave:
    """A guess of the 1-D front for Newton: the shooting of
    `solve_1d_ignition_shooting` on a two-rung ladder whose finer rung is the
    oracle's first, `LADDER * COARSE * h`.  Its upper end is grown at that
    step, its bracket bisected to width max(tol, `GUESS_TOL`) at
    `GUESS_LADDER` times that step and confirmed at that step (or bisected
    again there, logged as not confirmed), its lower end checked and its
    profile integrated at that step: the floats of a plain bisection at
    `LADDER * COARSE * h`.

    Raises ValueError for a tol outside (0, inf), checked before the floor,
    and BracketNotFound as the oracle does, the lower end checked at
    `LADDER * COARSE * h`.  Its speed is not the oracle's: a caller must not
    report it, only correct it (`continuation.one_dim_start`).
    """
    step = LADDER * COARSE
    return _shoot(d, spec, max(_checked_tol(tol), GUESS_TOL), (GUESS_LADDER * step, step))


def _checked_tol(tol: float) -> float:
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol!r}")
    return tol


def _shoot(d: float, spec: NonlinearitySpec, tol: float, factors: tuple) -> OneDimWave:
    """The shooting of `solve_1d_ignition_shooting` and of `one_dim_guess`:
    one RK4 loop, one bisection ladder and one profile pass.

    The rungs are the steps `factors` times h, coarsest first.  The
    bisection runs on the first rung; each finer rung confirms the bracket
    of the rung before it, or bisects again.  The upper end is grown, the
    lower end checked and the profile integrated on the last rung, the step
    of the result."""
    c_bound = c_max(ModelParams(d=d, D=d, mu=1.0, L=1.0), spec)
    h = 1e-3 * d / c_bound
    x_max = max(200.0 * d / c_bound, 100.0)
    n_steps = int(x_max / h)

    def classify_at(step: float, count: int):
        return lambda c: _trajectory(c, d, spec, step, count)

    rungs = [(k * h, n_steps // k) for k in factors]
    step, count = rungs[-1]
    last = classify_at(step, count)
    c_floor = max(tol, 1e-10)
    hi_start = c_bound
    grow = 0
    while last(hi_start) != 1:
        hi_start *= 2.0
        grow += 1
        if grow > 20:
            raise BracketNotFound("no overshooting speed found while doubling the upper bracket")
    for i, rung in enumerate(rungs):
        at = classify_at(*rung)
        if i > 0:
            if (lo == c_floor or at(lo) == -1) and (hi == hi_start or at(hi) == 1):
                continue
            logger.info("shooting: bracket [%r, %r] from step %g is not confirmed at step %g; "
                        "bisecting again at step %g", lo, hi, rungs[i - 1][0], rung[0], rung[0])
        lo, hi = _bisect(c_floor, hi_start, tol, at)
        if lo == c_floor and last(lo) != -1:
            raise BracketNotFound(f"lower bracket end c = {lo:.3e} does not undershoot")
    c_star = 0.5 * (lo + hi)

    xs, ps = _trajectory(c_star, d, spec, step, count, profile=True)
    return OneDimWave(c=c_star, x=np.array(xs), psi=np.clip(np.array(ps), 0.0, 1.0),
                      theta=spec.theta, d=d)
