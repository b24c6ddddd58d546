"""Truncated computational domain and degree-of-freedom layout.

The strip R x (-L, 0) is truncated to [x_left, x_right] x [-L, 0] and
discretized on a uniform tensor grid.  Node (i, j) sits at
(x_left + i*hx, -L + j*hy); j = 0 is the bottom boundary y = -L and
j = ny-1 the top boundary y = 0.  The phase-condition anchor
(x, y) = (0, -L/2) must coincide with a node, which build_grid enforces
rather than silently shifting it.

Strip unknowns are stored row-major with x fastest (index = j*nx + i),
followed by the line field (exchange family only), with the wave speed c
as the final unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AnchorNotOnGrid, BadExtent
from .model import ModelParams

if TYPE_CHECKING:
    from .residual import HomotopyFamily

_ANCHOR_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    x_left: float
    x_right: float
    L: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 3:
            raise ValueError(f"Grid.nx must be >= 3, got {self.nx}")
        if self.ny < 2:
            raise ValueError(f"Grid.ny must be >= 2, got {self.ny}")
        if not self.x_left < self.x_right:
            raise ValueError("Grid requires x_left < x_right")
        if self.L <= 0:
            raise ValueError("Grid.L must be positive")

    @property
    def hx(self) -> float:
        return (self.x_right - self.x_left) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.L / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(-self.L, 0.0, self.ny)

    @property
    def n_strip(self) -> int:
        return self.nx * self.ny

    @property
    def anchor_ix(self) -> int:
        """x-index of the anchor column x = 0."""
        ratio = -self.x_left / self.hx
        i = int(round(ratio))
        if not 0 <= i < self.nx or abs(ratio - i) > _ANCHOR_RTOL:
            raise AnchorNotOnGrid(f"x = 0 is not a grid node (x_left={self.x_left}, hx={self.hx})")
        return i

    @property
    def anchor_iy(self) -> int:
        """y-index of the anchor row y = -L/2; requires ny odd."""
        if (self.ny - 1) % 2 != 0:
            raise AnchorNotOnGrid(f"y = -L/2 is not a grid node (ny={self.ny} gives no midline node)")
        return (self.ny - 1) // 2

    def node_index(self, i: int, j: int) -> int:
        """Flat strip index of node (i, j); x varies fastest."""
        return j * self.nx + i

    def node_coords(self, index: int) -> tuple[int, int]:
        """Inverse of node_index."""
        return index % self.nx, index // self.nx


@dataclass(frozen=True)
class DofLayout:
    """Offsets of the unknown blocks in the flat solution vector."""

    line_offset: int | None
    c_index: int
    total: int


def build_grid(params: ModelParams, x_left: float, x_right: float, nx: int, ny: int) -> Grid:
    """Construct a grid whose nodes contain x = 0 and y = -L/2.

    Raises
    ------
    BadExtent
        If the truncation does not straddle the front (x_left >= 0 or
        x_right <= 0).
    AnchorNotOnGrid
        If 0 is not representable in x or -L/2 in y with the requested
        node counts.  The grid is never shifted to compensate.
    """
    if not (x_left < 0.0 < x_right):
        raise BadExtent(f"need x_left < 0 < x_right, got [{x_left}, {x_right}]")
    g = Grid(x_left=float(x_left), x_right=float(x_right), L=params.L, nx=int(nx), ny=int(ny))
    g.anchor_ix
    g.anchor_iy
    return g


def dof_layout(grid: Grid, family: "HomotopyFamily") -> DofLayout:
    """Flat layout: strip field first (x fastest), line field (exchange
    family only), then c last."""
    n = grid.n_strip
    if family.is_exchange:
        return DofLayout(line_offset=n, c_index=n + grid.nx, total=n + grid.nx + 1)
    return DofLayout(line_offset=None, c_index=n, total=n + 1)
