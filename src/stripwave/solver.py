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
rank-1 (Sherman-Morrison) correction solves.  Where each entry of J goes
(`band_map`) is worked out once per cached Jacobian pattern and K below
(its `bands`).  Wider grids use SuperLU (COLAMD ordering), whose fill
grows more slowly than the band's N (3m + 1) entries.

Left of the front the reaction vanishes (f = f' = 0 for psi <= theta), so
A~ is block tridiagonal there with one (L, D, U) per block row of m
unknowns: on the default 961 x 41 grid its block rows 1 .. T, T of about
620, are bit-identical after the Dirichlet block row 0, a diagonal.  A
`CyclicTail` solves row 0 by one division and eliminates rows 1 .. K,
K = 2^p - 1 <= T with p >= 0, exactly by block cyclic reduction (Buzbee,
Golub and Nielson, SIAM J. Numer. Anal. 7, 1970; Heller, SIAM J. Numer.
Anal. 13, 1976): each of p levels eliminates every other remaining block
row with one m x m LU, and leaves a Schur complement on the diagonal block
of row K + 1.  The band LU then factors only the unknowns from block
column K + 1 on, and a solve reduces the right-hand side level by level,
runs the band solve, and back-substitutes.  `cyclic_tail` reads T from
J's values (K = 511 of 961 columns on the default grid) and takes p = 0
when m < `TAIL_MIN_WIDTH`.  The discrete problem is the same, solved with
less arithmetic; it differs from a band LU of all of A~ at roundoff.

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
# `cyclic_tail` takes p = 0 below this m.  One factorization and one solve of
# `BorderedBandLU` on a Wentzell(1) and an exchange(0.05) Jacobian of the
# embedded front on [-160, 80], p = 0 -> tail (the best of 5 calls, median of
# 5 interleaved rounds, one BLAS thread, shared 2-vCPU VM, ms):
#     grid        m       K     factor                      solve
#     481 x 11    11, 12  255   2.9 -> 3.2, 3.5 -> 3.5      0.46 -> 0.74, 0.49 -> 0.74
#     961 x 11    11, 12  511   3.9 -> 3.4, 4.9 -> 4.1      0.56 -> 0.73, 0.82 -> 0.79
#     961 x 15    15, 16  511   11.7 -> 8.2, 9.6 -> 7.5     1.54 -> 1.63, 1.39 -> 1.59
#     961 x 21    21, 22  511   18.3 -> 11.5, 20.1 -> 13.0  2.39 -> 2.35, 2.54 -> 2.32
#     961 x 31    31, 32  511   43.6 -> 25.5, 33.6 -> 21.9  6.4 -> 4.5, 5.8 -> 4.7
#     961 x 41    41, 42  511   61.3 -> 36.3, 66.2 -> 37.9  10.4 -> 7.6, 11.0 -> 7.7
# Each level costs a few m x m calls, whatever m.  Below m = 21 the solve,
# which Newton runs about four times per factorization, is up to 60% slower
# with the tail (481 x 11, where the factorization gains nothing); from m = 21
# on the factorization is at least 35% faster and the solve no slower.
TAIL_MIN_WIDTH = 21
# `factorize(J, nx)` uses the band LU when the half-bandwidth m = (N - 1) // nx
# is at most this, and SuperLU above it.  One factorization and one solve of a
# Wentzell(1) Jacobian of the embedded front (x_right = 80), each (grid, LU)
# pair in a fresh process with one BLAS thread on a shared 2-vCPU VM, band
# with its tail -> SuperLU (the range of 3 processes; peak RSS of the process):
#     grid, x_left      K     factor s                 solve ms            peak MB
#     961 x 81, -160    511   0.21-0.23 -> 0.52-0.56   25-28 -> 22-25      150-156 -> 170
#     961 x 161, -160   511   0.87-0.98 -> 2.06-2.25   75-96 -> 57-61      383 -> 323
#     1921 x 81, -160   1023  0.42-0.52 -> 1.01-1.12   41-53 -> 44-48      244 -> 279
#     3841 x 161, -160  2047  3.70-3.76 -> 7.08-7.32   279-307 -> 229-238  1304 -> 1113
#     961 x 81, -20     127   0.35-0.41 -> 0.50-0.60   36-44 -> 25-29      213 -> 170
#     961 x 161, -20    127   1.66-1.72 -> 1.69-2.18   116-127 -> 59-68    610 -> 322
# With the default window the band factors about twice as fast at every width
# and needs less memory up to ny = 81.  With a short window (x_left = -20, 127
# tail columns) it factors at most a third faster, solves about twice as slowly
# and needs up to 1.9 times the memory.  So the rule below is right for short
# windows and conservative for long ones; a rule on m and K together waits for
# a benchmark workload on each side of it.
BAND_MAX_WIDTH = 48


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


def _anchor(indptr: np.ndarray, indices: np.ndarray, m: int) -> int:
    """The anchor a, the one column of a bordered CSC J's last row, the phase
    row; ValueError unless a lies between block column 0 and the c column."""
    at = np.flatnonzero(indices == indptr.size - 2)
    a = int(np.searchsorted(indptr, at[0], side="right")) - 1 if at.size == 1 else -1
    if not m <= a < indptr.size - 2:
        raise ValueError("the last row of J is not a unit phase row past block column 0")
    return a


def band_map(indptr: np.ndarray, indices: np.ndarray, nx: int, K: int) -> tuple:
    """(dst, rows_a) of a bordered CSC J on an `nx`-column grid whose block
    rows 0 .. K a `CyclicTail` eliminates (see `BorderedBandLU`): J.data[k]
    goes to dst[k] in the band storage of A~ on the unknowns from (K + 1) m
    on (the phase entry to A~[a, a]), b, or column a (rows rows_a) of J, in
    turn, and to one last scratch slot when it is an entry of A~ in an
    earlier row or column.  b and column a are laid out on all N - 1
    unknowns."""
    n = indptr.size - 2  # unknowns besides c
    m = n // nx
    a = _anchor(indptr, indices, m)
    rows, cols = indices.astype(np.intp), np.repeat(np.arange(n + 1), np.diff(indptr))
    phase = rows == n
    at_a, border = (cols == a) & ~phase, cols == n
    band = ~(border | at_a | phase)
    if np.abs(rows - cols)[band].max() > m:
        raise ValueError(f"J has entries outside the half-bandwidth {m}")
    # LAPACK band storage, column-major with ldab = 3m + 1: A~[r, c] goes to
    # ab[2m + r - c, c - start]; the first m rows are workspace for the pivoting fill
    start, ldab = (K + 1) * m, 3 * m + 1
    nb = (n - start) * ldab
    dst = np.where(band, (cols - start) * ldab + 2 * m + rows - cols, nb + rows)
    dst[band & ((rows < start) | (cols < start))] = nb + n + at_a.sum()
    dst[at_a] = nb + n + np.arange(at_a.sum())
    dst[phase] = (a - start) * ldab + 2 * m  # A~[a, a] = 1, the phase row's entry
    return dst.astype(np.int32), rows[at_a]


def _block_column(J: sp.csc_matrix, j: int, m: int) -> np.ndarray:
    """Block column j of J as a dense (3m, m) array: its blocks in block rows
    j - 1, j and j + 1, in turn (`J`'s entries lie within m of the diagonal)."""
    lo, hi = J.indptr[j * m], J.indptr[(j + 1) * m]
    out = np.zeros((3 * m, m))
    out[J.indices[lo:hi] - (j - 1) * m,
        np.repeat(np.arange(m), np.diff(J.indptr[j * m:(j + 1) * m + 1]))] = J.data[lo:hi]
    return out


class CyclicTail:
    """The elimination (module docstring) of block rows 0 .. K of A~: the
    Dirichlet block row 0, diag(d0), by one division, then block cyclic
    reduction of the rows 1 .. K, K = 2^p - 1 with p >= 0, equal to
    tridiag(L, D, U).  L is also the left block of row K + 1, which leads
    the band part.

    Level l couples the unknowns at multiples of h = 2^l by one (L, D, U)
    and eliminates the odd multiples; `schur` is what the levels take from
    row K + 1's diagonal block.  A level whose D is exactly singular ends the
    reduction there, with p the levels that factored: row 2^l's Schur
    complement is the sum over levels 0 .. l - 1, so the shorter tail is
    exact too.
    """

    def __init__(self, d0: np.ndarray, L: np.ndarray, D: np.ndarray | None,
                 U: np.ndarray | None, p: int) -> None:
        self.d0, self.L, self.levels = d0, L, []
        self.schur = np.zeros_like(L)
        for _ in range(p):
            lu, piv, info = lapack.dgetrf(D)
            if info != 0:
                break
            DL, DU = np.hsplit(lapack.dgetrs(lu, piv, np.hstack([L, U]))[0], 2)
            self.levels.append((lu, piv, L, U))
            LDU = L @ DU
            self.schur += LDU
            L, D, U = -(L @ DL), D - LDU - U @ DL, -(U @ DU)
        self.K = 2 ** len(self.levels) - 1

    def _columns(self, r: np.ndarray) -> np.ndarray:
        """Blocks 1 .. K + 1 of r as the columns of an (m, K + 1) view."""
        m = self.d0.size
        return r[m:(self.K + 2) * m].reshape(self.K + 1, m).T

    def reduce(self, r: np.ndarray) -> None:
        """Solve block row 0 and reduce blocks 1 .. K + 1 of r in place, level
        by level: block K + 1 is then the band part's first right-hand side."""
        m, R = self.d0.size, self._columns(r)
        r[:m] /= self.d0
        R[:, 0] -= self.L @ r[:m]  # row 1's left block times the Dirichlet block
        for l, (lu, piv, L, U) in enumerate(self.levels):
            h = 1 << l
            Y = lapack.dgetrs(lu, piv, R[:, h - 1::2 * h])[0]
            R[:, 2 * h - 1::2 * h] -= L @ Y
            R[:, 2 * h - 1:self.K:2 * h] -= U @ Y[:, 1:]

    def back_substitute(self, r: np.ndarray) -> None:
        """The eliminated blocks 1 .. K of r, in place, once `reduce` ran and
        block K + 1 holds its solution."""
        R = self._columns(r)
        for l in reversed(range(len(self.levels))):
            lu, piv, L, U = self.levels[l]
            h = 1 << l
            X = R[:, 2 * h - 1::2 * h]
            B = R[:, h - 1::2 * h] - U @ X
            B[:, 1:] -= L @ X[:, :-1]
            R[:, h - 1::2 * h] = lapack.dgetrs(lu, piv, B)[0]


def cyclic_tail(J: sp.csc_matrix, m: int, a: int) -> CyclicTail:
    """The elimination of block rows 0 .. K of a bordered CSC J (anchor
    column a >= m).  Block row 0 must be a diagonal with no off-diagonal
    block (ValueError otherwise, LinearSolveFailed for a zero on it).  When
    m >= `TAIL_MIN_WIDTH`, K = 2^p - 1 is the largest with K <= T, where rows
    1 .. T are equal: L v_{i-1} + D v_i + U v_{i+1}; otherwise K = 0.

    Read from J's values: rows 1 .. T are equal when rows 1 and 2 are
    (block columns 0, 1 and 2) and block columns 2 .. T + 1 repeat.  The
    anchor column, which holds the phase entry, ends any such run, and
    block column K, one of them, holds row K + 1's left block.  T = 0 when
    the anchor lies in block column 1 or 2.
    """
    c0 = _block_column(J, 0, m)
    d0 = np.diag(c0[m:2 * m]).copy()
    lo, hi = J.indptr[m], J.indptr[2 * m]  # row 0's entries in block column 1 must be 0
    if (c0[m:2 * m] != np.diag(d0)).any() or J.data[lo:hi][J.indices[lo:hi] < m].any():
        raise ValueError("block row 0 of J is not a diagonal")
    if not d0.all():
        raise LinearSolveFailed("band factor is exactly singular: block row 0 has a zero")
    T, D, U = 0, None, None
    if m >= TAIL_MIN_WIDTH and a >= 3 * m:
        c1, c2 = _block_column(J, 1, m), _block_column(J, 2, m)
        D, U = c2[m:2 * m], c2[:m]
        if (c0[2 * m:] == c2[2 * m:]).all() and (c1[m:] == c2[m:]).all():
            nx, ptr = (J.shape[0] - 1) // m, J.indptr
            starts = ptr[:nx * m + 1:m]
            size = starts[3] - starts[2]
            counts = np.diff(ptr[:nx * m + 1]).reshape(nx, m)
            same = (np.diff(starts)[3:] == size) & (counts[3:] == counts[2]).all(axis=1)
            end = 3 + (same.argmin() if not same.all() else same.size)
            data = J.data[starts[3]:starts[end]].reshape(-1, size)
            rows = (J.indices[starts[3]:starts[end]].reshape(-1, size)
                    - m * np.arange(3, end)[:, None])
            same = ((data == J.data[starts[2]:starts[3]]).all(axis=1)
                    & (rows == J.indices[starts[2]:starts[3]] - 2 * m).all(axis=1))
            T = 1 + int(same.argmin() if not same.all() else same.size)
    return CyclicTail(d0, c0[2 * m:], D, U, (T + 1).bit_length() - 1)


class BorderedBandLU:
    """Band LU of a bordered Jacobian (module docstring).

    `J` is the CSC Jacobian of an `nx`-column grid (`assemble_jacobian`); its
    last row must be the phase row, a single 1, its block row 0 a Dirichlet
    diagonal, and the rest of J banded (ValueError otherwise).  Raises
    LinearSolveFailed when the band matrix is exactly singular or the rank-1
    correction has a zero denominator.  Block rows 0 .. K are eliminated
    first (`tail`, a `CyclicTail`), and the band holds only the unknowns from
    `start` = (K + 1) m on.
    """

    def __init__(self, J: sp.csc_matrix, nx: int) -> None:
        n, m = J.shape[0] - 1, (J.shape[0] - 1) // nx
        if m * nx != n:
            raise ValueError(f"a {n + 1}-row Jacobian does not fit a grid with nx = {nx}")
        a = _anchor(J.indptr, J.indices, m)
        self.tail = cyclic_tail(J, m, a)
        start, ldab, key = (self.tail.K + 1) * m, 3 * m + 1, (nx, self.tail.K)
        nb = n - start
        bands = getattr(cached_pattern(J), "bands", {})  # a cached pattern keeps its maps
        dst, rows_a = (bands.get(key)
                       or bands.setdefault(key, band_map(J.indptr, J.indices, nx, self.tail.K)))
        buf = np.zeros(nb * ldab + n + rows_a.size + 1)
        buf[dst] = J.data
        ab, b = buf[:nb * ldab].reshape(nb, ldab).T, buf[nb * ldab:nb * ldab + n]
        if ab[2 * m, a - start] != 1.0:
            raise ValueError("the last row of J is not a unit phase row")
        r, c = np.indices((m, m))
        ab[2 * m + r - c, c] -= self.tail.schur  # the tail's Schur complement, into block row K + 1
        self.col_a = rows_a, buf[nb * ldab + n:-1]  # column a of J, moved to the right-hand side
        self.lu, self.piv, info = lapack.dgbtrf(ab, m, m, overwrite_ab=1)
        if info > 0:
            raise LinearSolveFailed(f"band factor is exactly singular: U({info}, {info}) = 0")
        self.m, self.a, self.start = m, a, start
        b[a] -= 1.0
        self.w = self._band_solve(b)  # A~^{-1} (b - e_a)
        self.denom = 1.0 + self.w[a]
        if self.denom == 0.0:
            raise LinearSolveFailed("bordered matrix is singular (rank-1 correction "
                                    "has a zero denominator)")

    def _band_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A~^{-1} rhs; overwrites rhs."""
        self.tail.reduce(rhs)
        rhs[self.start:] = lapack.dgbtrs(self.lu, self.m, self.m, rhs[self.start:], self.piv,
                                         overwrite_b=1)[0]
        self.tail.back_substitute(rhs)
        return rhs

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
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol!r}")
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
