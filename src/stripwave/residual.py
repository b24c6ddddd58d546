"""Nonlinear residual and analytic sparse Jacobian of the discretized
travelling-wave problem.

Unknowns are the strip field psi (and the line field phi for the
exchange family) together with the speed c, closed by the phase
condition psi(0, -L/2) = (1 + theta)/2.  Residual rows, in dof order:

* interior nodes:   -d * (5-point Laplacian) + c * centered d/dx - f(psi)
* bottom row y=-L:  one-sided second-order d/dy psi = 0
* top row y=0:
    - Wentzell(s):  d dpsi/dy - (s/mu) (D psi_xx - c psi_x)
    - Exchange(eps): d dpsi/dy - (mu phi - psi)/eps
* line rows (exchange only): -D phi'' + c phi' - (psi(.,0) - mu phi)/eps
* x-truncation columns: Dirichlet psi = 0, mu phi = 0 at x_left and
  psi = 1, mu phi = 1 at x_right
* last row: the phase condition.

The one-sided 3-point normal derivative at both y-boundaries is the
ghost-point elimination in closed form: writing the centered derivative
with a ghost node and eliminating the ghost against the quadratic
interpolant through the three boundary-adjacent rows yields exactly the
(3, -4, 1)/(2 hy) stencil, so no ghost unknowns are stored.  Convection
uses centered differences to keep second order; the solver warns when
the cell Peclet number c*hx/d reaches 2.  The Jacobian's sparsity structure
(`JacobianPattern`) is built once per grid and family; each assembly computes
only the values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatch
from .grid import DofLayout, Grid, dof_layout
from .model import ModelParams, NonlinearitySpec, eval_nonlinearity

WENTZELL = "wentzell"
EXCHANGE = "exchange"
_PATTERNS: dict[tuple, JacobianPattern] = {}  # by key, the newest last (`JacobianPattern`)


@dataclass(frozen=True)
class HomotopyFamily:
    """Which problem family is being solved, with its parameter.

    Wentzell carries s in [0, 1] (s = 0 is the Neumann strip problem);
    exchange carries eps in (0, 1], the inverse coupling strength of the
    strip/line mass transfer.
    """

    kind: str
    parameter: float

    def __post_init__(self) -> None:
        if self.kind == WENTZELL:
            if not 0.0 <= self.parameter <= 1.0:
                raise ValueError(f"Wentzell parameter s must lie in [0, 1], got {self.parameter}")
        elif self.kind == EXCHANGE:
            if not 0.0 < self.parameter <= 1.0:
                raise ValueError(f"exchange parameter eps must lie in (0, 1], got {self.parameter}")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @classmethod
    def wentzell(cls, s: float) -> "HomotopyFamily":
        return cls(kind=WENTZELL, parameter=float(s))

    @classmethod
    def exchange(cls, epsilon: float) -> "HomotopyFamily":
        return cls(kind=EXCHANGE, parameter=float(epsilon))

    @property
    def is_exchange(self) -> bool:
        return self.kind == EXCHANGE

    @property
    def is_wentzell(self) -> bool:
        return self.kind == WENTZELL

    def with_parameter(self, value: float) -> "HomotopyFamily":
        return HomotopyFamily(kind=self.kind, parameter=float(value))


@dataclass
class WaveState:
    """One travelling-wave candidate: speed, fields, family tag.

    psi has shape (ny, nx); phi has shape (nx,) and is present exactly
    for the exchange family.
    """

    c: float
    psi: np.ndarray
    phi: np.ndarray | None
    family: HomotopyFamily

    def check_consistent(self, grid: Grid) -> None:
        if self.psi.shape != (grid.ny, grid.nx):
            raise ShapeMismatch(f"psi shape {self.psi.shape} does not match grid ({grid.ny}, {grid.nx})")
        if self.family.is_exchange:
            if self.phi is None or self.phi.shape != (grid.nx,):
                raise ShapeMismatch("exchange state needs phi of shape (nx,)")
        elif self.phi is not None:
            raise ShapeMismatch("Wentzell state must not carry a line field")


def state_to_vector(state: WaveState, grid: Grid) -> np.ndarray:
    state.check_consistent(grid)
    layout = dof_layout(grid, state.family)
    u = np.empty(layout.total)
    u[: grid.n_strip] = state.psi.ravel()
    if layout.line_offset is not None:
        u[layout.line_offset : layout.line_offset + grid.nx] = state.phi
    u[layout.c_index] = state.c
    return u


def vector_to_state(u: np.ndarray, grid: Grid, family: HomotopyFamily) -> WaveState:
    layout = dof_layout(grid, family)
    if u.shape != (layout.total,):
        raise ShapeMismatch(f"vector length {u.shape} does not match layout total {layout.total}")
    psi = u[: grid.n_strip].reshape(grid.ny, grid.nx).copy()
    phi = None
    if layout.line_offset is not None:
        phi = u[layout.line_offset : layout.line_offset + grid.nx].copy()
    return WaveState(c=float(u[layout.c_index]), psi=psi, phi=phi, family=family)


def _layout_checked(state: WaveState, grid: Grid) -> DofLayout:
    state.check_consistent(grid)
    return dof_layout(grid, state.family)


def assemble_residual(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid) -> np.ndarray:
    """Residual vector of length dof_layout(grid, state.family).total."""
    layout = _layout_checked(state, grid)
    psi, phi, c = state.psi, state.phi, state.c
    d, D, mu = params.d, params.D, params.mu
    hx, hy = grid.hx, grid.hy
    nx = grid.nx

    R = np.zeros(layout.total)
    Rs = R[: grid.n_strip].reshape(grid.ny, grid.nx)

    f_val, _ = eval_nonlinearity(psi, spec)
    lap = ((psi[1:-1, :-2] - 2.0 * psi[1:-1, 1:-1] + psi[1:-1, 2:]) / hx**2
           + (psi[:-2, 1:-1] - 2.0 * psi[1:-1, 1:-1] + psi[2:, 1:-1]) / hy**2)
    dx = (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * hx)
    Rs[1:-1, 1:-1] = -d * lap + c * dx - f_val[1:-1, 1:-1]

    Rs[0, 1:-1] = (-3.0 * psi[0, 1:-1] + 4.0 * psi[1, 1:-1] - psi[2, 1:-1]) / (2.0 * hy)

    dy_top = (3.0 * psi[-1, 1:-1] - 4.0 * psi[-2, 1:-1] + psi[-3, 1:-1]) / (2.0 * hy)
    if state.family.is_wentzell:
        s = state.family.parameter
        dxx_top = (psi[-1, :-2] - 2.0 * psi[-1, 1:-1] + psi[-1, 2:]) / hx**2
        dx_top = (psi[-1, 2:] - psi[-1, :-2]) / (2.0 * hx)
        Rs[-1, 1:-1] = d * dy_top - (s / mu) * (D * dxx_top - c * dx_top)
    else:
        eps = state.family.parameter
        Rs[-1, 1:-1] = d * dy_top - (mu * phi[1:-1] - psi[-1, 1:-1]) / eps

    Rs[:, 0] = psi[:, 0]
    Rs[:, -1] = psi[:, -1] - 1.0

    if layout.line_offset is not None:
        eps = state.family.parameter
        Rl = R[layout.line_offset : layout.line_offset + nx]
        Rl[1:-1] = (-D * (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / hx**2
                    + c * (phi[2:] - phi[:-2]) / (2.0 * hx)
                    - (psi[-1, 1:-1] - mu * phi[1:-1]) / eps)
        Rl[0] = mu * phi[0]
        Rl[-1] = mu * phi[-1] - 1.0

    R[layout.c_index] = psi[grid.anchor_iy, grid.anchor_ix] - (1.0 + spec.theta) / 2.0
    return R


@dataclass(frozen=True, eq=False)
class JacobianPattern:
    """The structure of `assemble_jacobian`'s CSC matrix, built at the first
    assembly on a grid and family kind and kept in `_PATTERNS` for the two
    newest (nx, ny, anchor, family kind): read-only integer arrays and no
    values.  CSC data slot k takes block entry order[k]."""

    sizes: tuple[int, ...]  # entries per block, in the order the blocks are written
    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray
    bands: dict = field(default_factory=dict)  # `solver.band_map` by nx, made when first used


def _build_pattern(n: int, index: list) -> JacobianPattern:
    """The pattern of the n x n matrix whose blocks have the (rows, cols) `index`."""
    keys = [np.ravel(cc * n + r) for r, cc in index]  # column-major position of each entry
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    if (key[1:] == key[:-1]).any():
        raise ValueError("two blocks of the Jacobian write one entry")
    arrays = [a.astype(np.int32) for a in (np.searchsorted(key, np.arange(n + 1) * n), key % n, order)]
    for array in arrays:
        array.flags.writeable = False
    return JacobianPattern(tuple(k.size for k in keys), *arrays)


def cached_pattern(J: sp.csc_matrix) -> JacobianPattern | None:
    """The cached pattern whose arrays `J` holds (scipy keeps a view of the indices)."""
    return next((p for p in _PATTERNS.values()
                 if J.indptr is p.indptr and np.may_share_memory(J.indices, p.indices)), None)


def assemble_jacobian(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid) -> sp.csc_matrix:
    """Exact analytic derivative of assemble_residual.

    Bordered structure: the final column holds the derivative with
    respect to c (the centered x-derivatives of the fields on rows that
    carry convection) and the final row the phase condition (a single 1
    at the anchor node, 0 in the c column).  Each block is an index (a
    function giving its rows and columns, called only to build the pattern)
    and values; no two blocks write one entry.
    """
    layout = _layout_checked(state, grid)
    psi, phi, c = state.psi, state.phi, state.c
    d, D, mu = params.d, params.D, params.mu
    hx, hy = grid.hx, grid.hy
    nx, ny = grid.nx, grid.ny
    N = layout.total
    c_col = layout.c_index

    _, f_prime = eval_nonlinearity(psi, spec)

    blocks: list[tuple] = []

    def put(index, v) -> None:
        blocks.append((index, v))

    def r_int() -> np.ndarray:  # the interior rows
        return np.arange(1, ny - 1)[:, None] * nx + np.arange(1, nx - 1)

    put(lambda: (r_int(), r_int()), (2.0 * d / hx**2 + 2.0 * d / hy**2) - f_prime[1:-1, 1:-1])
    put(lambda: (r_int(), r_int() - 1), -d / hx**2 - c / (2.0 * hx))
    put(lambda: (r_int(), r_int() + 1), -d / hx**2 + c / (2.0 * hx))
    put(lambda: (r_int(), r_int() - nx), -d / hy**2)
    put(lambda: (r_int(), r_int() + nx), -d / hy**2)
    put(lambda: (r_int(), c_col), (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * hx))

    i = np.arange(1, nx - 1)
    r_bot = i  # j = 0
    put(lambda: (r_bot, i), -3.0 / (2.0 * hy))
    put(lambda: (r_bot, nx + i), 4.0 / (2.0 * hy))
    put(lambda: (r_bot, 2 * nx + i), -1.0 / (2.0 * hy))

    top = ny - 1
    r_top = top * nx + i
    put(lambda: (r_top, (top - 1) * nx + i), -4.0 * d / (2.0 * hy))
    put(lambda: (r_top, (top - 2) * nx + i), d / (2.0 * hy))
    if state.family.is_wentzell:
        s = state.family.parameter
        put(lambda: (r_top, r_top), 3.0 * d / (2.0 * hy) + (s / mu) * 2.0 * D / hx**2)
        put(lambda: (r_top, r_top - 1), -(s / mu) * D / hx**2 - (s / mu) * c / (2.0 * hx))
        put(lambda: (r_top, r_top + 1), -(s / mu) * D / hx**2 + (s / mu) * c / (2.0 * hx))
        put(lambda: (r_top, c_col), (s / mu) * (psi[-1, 2:] - psi[-1, :-2]) / (2.0 * hx))
    else:
        eps = state.family.parameter
        put(lambda: (r_top, r_top), 3.0 * d / (2.0 * hy) + 1.0 / eps)
        put(lambda: (r_top, layout.line_offset + i), -mu / eps)

    j = np.arange(ny)
    put(lambda: (j * nx, j * nx), 1.0)
    put(lambda: (j * nx + nx - 1, j * nx + nx - 1), 1.0)

    if layout.line_offset is not None:
        eps = state.family.parameter
        off = layout.line_offset
        r_line = off + i
        put(lambda: (r_line, off + i), 2.0 * D / hx**2 + mu / eps)
        put(lambda: (r_line, off + i - 1), -D / hx**2 - c / (2.0 * hx))
        put(lambda: (r_line, off + i + 1), -D / hx**2 + c / (2.0 * hx))
        put(lambda: (r_line, top * nx + i), -1.0 / eps)
        put(lambda: (r_line, c_col), (phi[2:] - phi[:-2]) / (2.0 * hx))
        put(lambda: (off, off), mu)
        put(lambda: (off + nx - 1, off + nx - 1), mu)

    put(lambda: (N - 1, grid.anchor_iy * nx + grid.anchor_ix), 1.0)

    key = (nx, ny, grid.anchor_ix, state.family.kind)  # ny fixes the anchor's row
    pattern = _PATTERNS[key] = (_PATTERNS.pop(key, None)
                                or _build_pattern(N, [index() for index, _ in blocks]))
    if len(_PATTERNS) > 2:
        del _PATTERNS[next(iter(_PATTERNS))]
    vals = np.concatenate([np.broadcast_to(np.ravel(v), size)
                           for (_, v), size in zip(blocks, pattern.sizes)])
    return sp.csc_matrix((vals[pattern.order], pattern.indices, pattern.indptr), shape=(N, N))
