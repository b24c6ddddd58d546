"""Nonlinear residual and analytic banded Jacobian of the discretized
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
the cell Peclet number c*hx/d reaches 2.  Every stencil couples a row to
the nodes at offsets -m, -2, -1, 0, 1, 2 and m from it in this order, so
J is stored as those seven diagonals, its c column and its anchor
(`Jacobian`), each term written by the same field-shaped slices as the
residual's.  f = 0 for psi <= theta and f' = 0 for psi < theta, so f (f') is
evaluated only from the first interior column with an interior node above
(at or above) theta: the oracle's f'(theta) is -1.  x - 0 = x, so the rows
left of it keep the bits of the full-array forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .grid import Grid
from .model import ModelParams, NonlinearitySpec, reaction, reaction_derivative
from .model import eval_nonlinearity  # noqa: F401 (not called; kept for perfbench/tracer.py)

WENTZELL = "wentzell"
EXCHANGE = "exchange"
# the diagonals of `Jacobian`, at the offsets -m, -2, -1, 0, 1, 2 and m: a
# node's x-neighbours (LEFT, RIGHT) and the nodes below and above it in its column
LEFT, DOWN2, DOWN, SELF, UP, UP2, RIGHT = range(7)


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


def _node_views(v: np.ndarray, grid: Grid, family: HomotopyFamily) -> tuple:
    """(strip, line) views of v's last axis, one entry per node in the order
    of `field_views`: of shape (..., ny, nx) and (..., nx), or None for the
    Wentzell family."""
    cols = v.reshape(*v.shape[:-1], grid.nx, grid.ny + family.is_exchange)
    line = cols[..., grid.ny] if family.is_exchange else None
    return cols[..., :grid.ny].swapaxes(-1, -2), line


def field_views(u: np.ndarray, grid: Grid, family: HomotopyFamily) -> tuple:
    """(psi, phi) as views of the flat vector u: psi of shape (ny, nx), phi of
    shape (nx,), or None for the Wentzell family.  Writes go through to u."""
    return _node_views(u[:-1], grid, family)


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


def _quiet(psi: np.ndarray, below, theta: float) -> int:
    """The number of leading interior columns whose interior nodes all have
    below(psi, theta): np.less_equal for f = 0, np.less for f' = 0.  A NaN
    node ends them."""
    quiet = below(psi[1:-1, 1:-1].max(axis=0), theta)
    return quiet.size if quiet.all() else int(quiet.argmin())


def assemble_residual(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid) -> np.ndarray:
    """Residual vector, one row per unknown in the order of `field_views`."""
    state.check_consistent(grid)
    psi, phi, c = state.psi, state.phi, state.c
    d, D, mu = params.d, params.D, params.mu
    hx, hy = grid.hx, grid.hy

    R = np.zeros(_size(grid, state.family))
    Rs, Rl = field_views(R, grid, state.family)

    # -d * lap + c * dx - f in place, in the full-array expression's order
    left, right = psi[1:-1, :-2], psi[1:-1, 2:]
    lap = np.multiply(psi[1:-1, 1:-1], 2.0)
    tmp = np.subtract(psi[:-2, 1:-1], lap)
    np.subtract(left, lap, out=lap)
    lap += right
    lap /= hx**2
    tmp += psi[2:, 1:-1]
    tmp /= hy**2
    lap += tmp
    lap *= -d
    np.subtract(right, left, out=tmp)
    tmp /= 2.0 * hx
    tmp *= c
    lap += tmp
    k = _quiet(psi, np.less_equal, spec.theta)
    lap[:, k:] -= reaction(psi[1:-1, 1 + k:-1], spec)
    Rs[1:-1, 1:-1] = lap

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
class Jacobian:
    """The bordered N x N Jacobian of `assemble_jacobian`, stored as its
    stencil.  Outside the phase row, J[r, r + offsets[k]] is `diags[k, r]`
    (the diagonals `LEFT` .. `RIGHT`) and J[r, N - 1] is `b[r]`, the
    derivative with respect to c; the phase row is e_a^T, a single 1 at the
    anchor a.  A slot no stencil term writes, or whose column lies outside
    J, holds 0."""

    diags: np.ndarray  # (7, N - 1)
    b: np.ndarray  # (N - 1,)
    m: int  # unknowns per grid column, J's half-bandwidth outside its last row and column
    anchor: int  # the phase row's one column
    nnz: int  # the stencil's slots, b's and the phase entry included, whatever their values

    @property
    def offsets(self) -> np.ndarray:
        return np.array([-self.m, -2, -1, 0, 1, 2, self.m])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.b.size + 1,) * 2

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """J x, each row summed in column order, as a CSC product adds it."""
        n, m = self.b.size, self.m
        xp = np.zeros(n + 2 * m)  # x without c, between m zeros at each end
        xp[m:m + n] = x[:n]
        y = np.empty(n + 1)
        out, tmp = y[:n], np.empty(n)  # each term goes through one temporary
        np.multiply(self.diags[0], xp[:n], out=out)
        for row, o in zip(self.diags[1:], self.offsets[1:]):
            np.multiply(row, xp[m + o:m + o + n], out=tmp)
            out += tmp
        np.multiply(self.b, x[n], out=tmp)
        out += tmp
        y[n] = x[self.anchor]
        return y


def assemble_jacobian(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                      grid: Grid) -> Jacobian:
    """Exact analytic derivative of assemble_residual, as a `Jacobian`.

    Bordered structure: the final column holds the derivative with
    respect to c (the centered x-derivatives of the fields on rows that
    carry convection) and the final row the phase condition (a single 1
    at the anchor node, 0 in the c column).  Each stencil term is written
    into its diagonal, or into the c column, through the residual's
    field-shaped slices of its rows; no two terms write one slot.
    """
    state.check_consistent(grid)
    psi, phi, c = state.psi, state.phi, state.c
    d, D, mu = params.d, params.D, params.mu
    hx, hy = grid.hx, grid.hy
    N = _size(grid, state.family)
    m = (N - 1) // grid.nx
    # the seven diagonals, then the c column (row C), each laid out as the fields of its rows
    out = np.zeros((8, N - 1))
    S, Ln = _node_views(out, grid, state.family)
    C = 7
    slots = 1  # the phase row's entry

    def put(view: np.ndarray, v) -> None:
        nonlocal slots
        view[...] = v
        slots += view.size

    put(S[SELF, 1:-1, 1:-1], 2.0 * d / hx**2 + 2.0 * d / hy**2)
    k = _quiet(psi, np.less, spec.theta)
    S[SELF, 1:-1, 1 + k:-1] -= reaction_derivative(psi[1:-1, 1 + k:-1], spec)
    put(S[LEFT, 1:-1, 1:-1], -d / hx**2 - c / (2.0 * hx))
    put(S[RIGHT, 1:-1, 1:-1], -d / hx**2 + c / (2.0 * hx))
    put(S[DOWN, 1:-1, 1:-1], -d / hy**2)
    put(S[UP, 1:-1, 1:-1], -d / hy**2)
    put(S[C, 1:-1, 1:-1], (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2.0 * hx))

    put(S[SELF, 0, 1:-1], -3.0 / (2.0 * hy))
    put(S[UP, 0, 1:-1], 4.0 / (2.0 * hy))
    put(S[UP2, 0, 1:-1], -1.0 / (2.0 * hy))

    put(S[DOWN, -1, 1:-1], -4.0 * d / (2.0 * hy))
    put(S[DOWN2, -1, 1:-1], d / (2.0 * hy))
    if state.family.is_wentzell:
        s = state.family.parameter
        put(S[SELF, -1, 1:-1], 3.0 * d / (2.0 * hy) + (s / mu) * 2.0 * D / hx**2)
        put(S[LEFT, -1, 1:-1], -(s / mu) * D / hx**2 - (s / mu) * c / (2.0 * hx))
        put(S[RIGHT, -1, 1:-1], -(s / mu) * D / hx**2 + (s / mu) * c / (2.0 * hx))
        put(S[C, -1, 1:-1], (s / mu) * (psi[-1, 2:] - psi[-1, :-2]) / (2.0 * hx))
    else:
        eps = state.family.parameter
        put(S[SELF, -1, 1:-1], 3.0 * d / (2.0 * hy) + 1.0 / eps)
        put(S[UP, -1, 1:-1], -mu / eps)  # the line node follows the top node

    put(S[SELF, :, 0], 1.0)
    put(S[SELF, :, -1], 1.0)

    if Ln is not None:
        eps = state.family.parameter
        put(Ln[SELF, 1:-1], 2.0 * D / hx**2 + mu / eps)
        put(Ln[LEFT, 1:-1], -D / hx**2 - c / (2.0 * hx))
        put(Ln[RIGHT, 1:-1], -D / hx**2 + c / (2.0 * hx))
        put(Ln[DOWN, 1:-1], -1.0 / eps)  # the top node precedes the line node
        put(Ln[C, 1:-1], (phi[2:] - phi[:-2]) / (2.0 * hx))
        put(Ln[SELF, :1], mu)
        put(Ln[SELF, -1:], mu)

    return Jacobian(out[:C], out[C], m, grid.anchor_ix * m + grid.anchor_iy, slots)
