"""Nonlinear residual and analytic sparse Jacobian of the discretized
travelling-wave problem.

Unknowns are the strip field psi (and the line field phi for the
exchange family) together with the speed c, closed by the phase
condition psi(0, -L/2) = (1 + theta)/2.  This module owns their one order
in the flat vector (`field_views`): column by column, strip node (i, j) at
i*m + j and line node i at i*m + ny, with m = ny (Wentzell) or ny + 1
(exchange), and c last.  A row's coupling to its own column, its line node
and its x-neighbours then lies within m of the diagonal, so J is banded
apart from its last row and column.  Residual rows, one per unknown:

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
from .grid import Grid
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


def field_views(u: np.ndarray, grid: Grid, family: HomotopyFamily) -> tuple:
    """(psi, phi) as views of the flat vector u: psi of shape (ny, nx), phi of
    shape (nx,), or None for the Wentzell family.  Writes go through to u."""
    cols = u[:-1].reshape(grid.nx, grid.ny + family.is_exchange)
    return cols[:, :grid.ny].T, (cols[:, grid.ny] if family.is_exchange else None)


def _size(grid: Grid, family: HomotopyFamily) -> int:
    return grid.nx * (grid.ny + family.is_exchange) + 1


def state_to_vector(state: WaveState, grid: Grid) -> np.ndarray:
    state.check_consistent(grid)
    u = np.empty(_size(grid, state.family))
    psi, phi = field_views(u, grid, state.family)
    psi[...] = state.psi
    if phi is not None:
        phi[...] = state.phi
    u[-1] = state.c
    return u


def vector_to_state(u: np.ndarray, grid: Grid, family: HomotopyFamily) -> WaveState:
    n = _size(grid, family)
    if u.shape != (n,):
        raise ShapeMismatch(f"vector length {u.shape} does not match the {n} unknowns")
    psi, phi = field_views(u, grid, family)
    return WaveState(c=float(u[-1]), psi=psi.copy(), phi=None if phi is None else phi.copy(),
                     family=family)


def assemble_residual(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid) -> np.ndarray:
    """Residual vector, one row per unknown in the order of `field_views`."""
    state.check_consistent(grid)
    psi, phi, c = state.psi, state.phi, state.c
    d, D, mu = params.d, params.D, params.mu
    hx, hy = grid.hx, grid.hy

    R = np.zeros(_size(grid, state.family))
    Rs, Rl = field_views(R, grid, state.family)

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

    if Rl is not None:
        eps = state.family.parameter
        Rl[1:-1] = (-D * (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / hx**2
                    + c * (phi[2:] - phi[:-2]) / (2.0 * hx)
                    - (psi[-1, 1:-1] - mu * phi[1:-1]) / eps)
        Rl[0] = mu * phi[0]
        Rl[-1] = mu * phi[-1] - 1.0

    R[-1] = psi[grid.anchor_iy, grid.anchor_ix] - (1.0 + spec.theta) / 2.0
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
    # `solver.band_map` by nx and `solver.restrict_band_map` by (nx, K), made when first used
    bands: dict = field(default_factory=dict)


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
    at the anchor node, 0 in the c column).  Each block is an index (its
    rows and columns, read only to build the pattern) and values; no two
    blocks write one entry.
    """
    state.check_consistent(grid)
    psi, phi, c = state.psi, state.phi, state.c
    d, D, mu = params.d, params.D, params.mu
    hx, hy = grid.hx, grid.hy
    N = _size(grid, state.family)
    c_col = N - 1
    # the position of each unknown, laid out as its field: the index blocks
    # below take the same slices as the residual's stencils
    Ps, Pl = field_views(np.arange(N), grid, state.family)

    _, f_prime = eval_nonlinearity(psi, spec)

    blocks: list[tuple] = []

    def put(index: tuple, v) -> None:
        blocks.append((index, v))

    r_int = Ps[1:-1, 1:-1]
    put((r_int, r_int), (2.0 * d / hx**2 + 2.0 * d / hy**2) - f_prime[1:-1, 1:-1])
    put((r_int, Ps[1:-1, :-2]), -d / hx**2 - c / (2.0 * hx))
    put((r_int, Ps[1:-1, 2:]), -d / hx**2 + c / (2.0 * hx))
    put((r_int, Ps[:-2, 1:-1]), -d / hy**2)
    put((r_int, Ps[2:, 1:-1]), -d / hy**2)
    put((r_int, c_col), (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * hx))

    r_bot = Ps[0, 1:-1]
    put((r_bot, r_bot), -3.0 / (2.0 * hy))
    put((r_bot, Ps[1, 1:-1]), 4.0 / (2.0 * hy))
    put((r_bot, Ps[2, 1:-1]), -1.0 / (2.0 * hy))

    r_top = Ps[-1, 1:-1]
    put((r_top, Ps[-2, 1:-1]), -4.0 * d / (2.0 * hy))
    put((r_top, Ps[-3, 1:-1]), d / (2.0 * hy))
    if state.family.is_wentzell:
        s = state.family.parameter
        put((r_top, r_top), 3.0 * d / (2.0 * hy) + (s / mu) * 2.0 * D / hx**2)
        put((r_top, Ps[-1, :-2]), -(s / mu) * D / hx**2 - (s / mu) * c / (2.0 * hx))
        put((r_top, Ps[-1, 2:]), -(s / mu) * D / hx**2 + (s / mu) * c / (2.0 * hx))
        put((r_top, c_col), (s / mu) * (psi[-1, 2:] - psi[-1, :-2]) / (2.0 * hx))
    else:
        eps = state.family.parameter
        put((r_top, r_top), 3.0 * d / (2.0 * hy) + 1.0 / eps)
        put((r_top, Pl[1:-1]), -mu / eps)

    put((Ps[:, 0], Ps[:, 0]), 1.0)
    put((Ps[:, -1], Ps[:, -1]), 1.0)

    if Pl is not None:
        eps = state.family.parameter
        r_line = Pl[1:-1]
        put((r_line, r_line), 2.0 * D / hx**2 + mu / eps)
        put((r_line, Pl[:-2]), -D / hx**2 - c / (2.0 * hx))
        put((r_line, Pl[2:]), -D / hx**2 + c / (2.0 * hx))
        put((r_line, r_top), -1.0 / eps)
        put((r_line, c_col), (phi[2:] - phi[:-2]) / (2.0 * hx))
        put((Pl[0], Pl[0]), mu)
        put((Pl[-1], Pl[-1]), mu)

    put((N - 1, Ps[grid.anchor_iy, grid.anchor_ix]), 1.0)

    key = (grid.nx, grid.ny, grid.anchor_ix, state.family.kind)  # ny fixes the anchor's row
    pattern = _PATTERNS[key] = (_PATTERNS.pop(key, None)
                                or _build_pattern(N, [index for index, _ in blocks]))
    if len(_PATTERNS) > 2:
        del _PATTERNS[next(iter(_PATTERNS))]
    vals = np.concatenate([np.broadcast_to(np.ravel(v), size)
                           for (_, v), size in zip(blocks, pattern.sizes)])
    return sp.csc_matrix((vals[pattern.order], pattern.indices, pattern.indptr), shape=(N, N))
