"""Truncated computational domain.

The strip R x (-L, 0) is truncated to [x_left, x_right] x [-L, 0] and
discretized on a uniform tensor grid.  Node (i, j) sits at
(x_left + i*hx, -L + j*hy); j = 0 is the bottom boundary y = -L and
j = ny-1 the top boundary y = 0.  The phase-condition anchor
(x, y) = (0, -L/2) must coincide with a node, which build_grid enforces
rather than silently shifting it.  The order of the unknowns on the grid
is `residual`'s (`residual.field_views`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnchorNotOnGrid, BadExtent
from .model import ModelParams

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
        for name in ("x_left", "x_right"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"Grid.{name} must be finite, got {getattr(self, name)!r}")
        if not self.x_left < self.x_right:
            raise ValueError("Grid requires x_left < x_right")
        if not 0 < self.L < np.inf:
            raise ValueError(f"Grid.L must be positive and finite, got {self.L!r}")

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

