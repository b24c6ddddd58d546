"""Physical parameters and the ignition nonlinearity.

The strip problem couples a reaction-diffusion field psi on
Omega_L = R x (-L, 0) (diffusivity d) with a line field phi on y = 0
(diffusivity D, exchange ratio mu).  The reaction term f is of ignition
type: zero on [0, theta] and at 1, positive in between, with f'(1) < 0.
Outside [0, 1] it is extended by zero on the left and by its tangent at
1 on the right, so f < 0 for u > 1.

Two concrete nonlinearities are provided:

* ``SMOOTH_CUBIC``: f(u) = (u - theta)^2 (1 - u) on (theta, 1].  C^1 at
  the ignition threshold, the workhorse for production runs.
* ``PIECEWISE_LINEAR_ORACLE``: f(u) = 1 - u on (theta, 1].  Discontinuous
  at theta, so it sits outside the smoothness assumptions of the model,
  but the 1-D front speed has the closed form c = sqrt(d) (1-theta)/sqrt(theta),
  which makes it a verification fixture.  Newton solves against it use the
  one-sided derivative f'(theta+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class NonlinearityKind(str, Enum):
    SMOOTH_CUBIC = "smooth_cubic"
    PIECEWISE_LINEAR_ORACLE = "piecewise_linear_oracle"


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the strip/line system.

    Attributes
    ----------
    d : strip diffusivity (> 0)
    D : line diffusivity (> 0)
    mu : exchange ratio (> 0)
    L : strip depth (> 0); the strip is R x (-L, 0)
    """

    d: float
    D: float
    mu: float
    L: float

    def __post_init__(self) -> None:
        for name in ("d", "D", "mu", "L"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"ModelParams.{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Ignition reaction term: kind plus threshold theta in (0, 1)."""

    kind: NonlinearityKind
    theta: float

    def __post_init__(self) -> None:
        if not (isinstance(self.theta, (int, float)) and 0.0 < self.theta < 1.0):
            raise ValueError(f"NonlinearitySpec.theta must lie in (0, 1), got {self.theta!r}")
        if not isinstance(self.kind, NonlinearityKind):
            raise ValueError(f"NonlinearitySpec.kind must be a NonlinearityKind, got {self.kind!r}")

    @property
    def fprime_at_one(self) -> float:
        """One-sided derivative f'(1), negative for ignition terms."""
        if self.kind is NonlinearityKind.SMOOTH_CUBIC:
            return -((1.0 - self.theta) ** 2)
        return -1.0


def reaction(u: np.ndarray, spec: NonlinearitySpec) -> np.ndarray:
    """f(u) for an ndarray u, with the extension convention: f = 0 for
    u <= theta (hence for u < 0 as well) and f = f'(1) (u - 1) for u > 1.
    The branch of (theta, 1] is evaluated in place over every node, then
    the nodes outside it are overwritten."""
    theta = spec.theta
    if spec.kind is NonlinearityKind.SMOOTH_CUBIC:
        f = u - theta
        f **= 2
        f *= 1.0 - u
    else:
        f = 1.0 - u
    f = np.asarray(f)  # a 0-d u gives numpy scalars
    f[u <= theta] = 0.0
    over = u > 1.0
    f[over] = spec.fprime_at_one * (u[over] - 1.0)
    return f


def reaction_derivative(u: np.ndarray, spec: NonlinearitySpec) -> np.ndarray:
    """The one-sided derivative f'(u) for an ndarray u, with the extension
    convention of `reaction`, evaluated the same way; at the ignition kink
    u = theta the right derivative."""
    theta = spec.theta
    if spec.kind is NonlinearityKind.SMOOTH_CUBIC:
        v = u - theta
        fp = 2.0 * v
        fp *= 1.0 - u
        v **= 2
        fp -= v
    else:
        fp = np.full(np.shape(u), -1.0)
    fp = np.asarray(fp)
    # strict '<' keeps f'(theta) = right derivative at the kink; NaN takes f'(1)
    fp[u < theta] = 0.0
    fp[~(u <= 1.0)] = spec.fprime_at_one
    return fp


def eval_nonlinearity(u, spec: NonlinearitySpec):
    """Evaluate f(u) and its one-sided derivative f'(u) (`reaction` and
    `reaction_derivative`).

    Accepts a scalar or ndarray and returns matching shapes: floats for a
    scalar.
    """
    u_arr = np.asarray(u, dtype=float)
    f, fp = reaction(u_arr, spec), reaction_derivative(u_arr, spec)
    if np.ndim(u) == 0:
        return float(f), float(fp)
    return f, fp


def lipschitz_constant(spec: NonlinearitySpec) -> float:
    """sup over [0, 1] of |f'(u)|, one-sided at kinks: |f'(1)| = -f'(1).

    For both kinds |f'| peaks at u = 1.  With v = u - theta and
    a = 1 - theta the cubic has f' = 2v(a - v) - v^2, which ranges over
    [-a^2, a^2/3]; the oracle has |f'| = 1.  A new NonlinearityKind needs
    its own closed-form Lipschitz constant here, as it needs its own
    branch in fprime_at_one.
    """
    return -spec.fprime_at_one


def c_max(params: ModelParams, spec: NonlinearitySpec) -> float:
    """Closed-form upper bound on the wave speed.

    Equals 2 sqrt(d Lip f) when D <= 2d and sqrt(D^2/(D-d) Lip f)
    otherwise; the two branches agree at D = 2d.  Lip f = |f'(1)|, in
    closed form from lipschitz_constant.  Valid for reaction terms
    satisfying f(u) <= Lip f * u, which the discontinuous oracle
    nonlinearity deliberately violates.
    """
    lip = lipschitz_constant(spec)
    d, D = params.d, params.D
    if D <= 2.0 * d:
        return 2.0 * math.sqrt(d * lip)
    return math.sqrt(D * D / (D - d) * lip)
