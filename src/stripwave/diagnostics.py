"""Machine-checkable certificates for converged wave states.

Every qualitative property the continuous problem guarantees is turned
into a numeric check with an explicit tolerance:

* bounds: 0 <= psi <= 1 and 0 <= mu*phi <= 1 (each to 1e-8)
* monotonicity: psi and phi increase in x (forward differences >= -1e-6)
* sandwich: inf psi <= mu*phi <= sup psi (exchange family, 1e-8)
* speed identity: c * (L + s/mu) = integral of f(psi) over the strip
  (Wentzell; the exchange denominator is L + 1/mu for every eps)
* left decay: psi <= theta * exp(r (x - x_theta)) with r = c/max(d, D)
* right decay: the rate gamma of 1 - psi solves a transcendental
  dispersion relation; the fitted rate should approximate it.

The dispersion relation substitutes exp(-gamma x) cosh(beta (y+L)) into
the linearization about psi = 1, giving
beta(gamma) = sqrt(-f'(1)/d - gamma (gamma + c/d)) and

    Wentzell:  s (D g^2 + c g) = mu d beta tanh(beta L)
    exchange:  D g^2 + c g = mu d beta tanh(beta L) / (1 + eps d beta tanh(beta L))

with the full f'(1).  The comparison-function construction that proves
the decay halves the linearization, so the same relations built with
f'(1)/2 give a guaranteed lower bound on the decay rate
(`supersolution_rate`).  A record carries only the first, `gamma_pred`;
the lower bound is tabulated by `scripts/dispersion_curves.py` and checked
against the fitted rate by acceptance criterion 07.  The two relations
are algebraically identical at (eps -> 0, s = 1), which is asserted as
pure algebra, not on solutions.

Each check returns a bool, and left_decay_bound its largest excess over
the bound: a record carries only the verdicts and the few numbers of its
DiagnosticsReport.  A helper raises only for a caller error (a Wentzell
state given to the sandwich check, c <= 0 or f'(1) >= 0 in a dispersion
query).  A state on which its quantity is undefined gets the value a record
carries for it: inf for the left-decay excess, NaN for a rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import WrongFamily
from .grid import Grid
from .model import ModelParams, NonlinearitySpec, c_max, reaction
from .model import eval_nonlinearity  # noqa: F401 (not called; kept for perfbench/tracer.py)
from .residual import WENTZELL, WaveState
from .solver import _bisect

BOUNDS_TOL = 1e-8
MONOTONE_TOL = 1e-6
SANDWICH_TOL = 1e-8
LEFT_DECAY_TOL = 1e-8
FIT_UPPER = 1e-2
FIT_LOWER = 1e-8
# the verdicts of a DiagnosticsReport, each a certificate a record must pass
CERTIFICATES = ("bounds_ok", "monotone_ok", "sandwich_ok", "left_decay_ok")


@dataclass
class DiagnosticsReport:
    bounds_ok: bool
    monotone_ok: bool
    sandwich_ok: bool
    left_decay_ok: bool
    speed_identity_gap: float
    gamma_fit: float
    gamma_pred: float
    cmax_margin: float
    min_psi: float
    max_psi: float
    min_dx_psi: float

    @property
    def failed(self) -> list[str]:
        """The names of the certificates this report fails, in field order."""
        return [name for name in CERTIFICATES if not getattr(self, name)]


@dataclass(frozen=True)
class DispersionQuery:
    """Inputs of the right-decay dispersion relation."""

    c: float
    params: ModelParams
    family_kind: str          # "wentzell" or "exchange"
    parameter: float          # s in [0,1] or eps >= 0 (eps = 0 is the limit relation)
    fprime1: float            # f'(1) < 0

    def __post_init__(self) -> None:
        if self.fprime1 >= 0:
            raise ValueError("dispersion needs f'(1) < 0")
        if self.c <= 0:
            raise ValueError("dispersion needs c > 0")


class DispersionRoot(NamedTuple):
    gamma: float
    gamma_lim: float


def check_bounds(state: WaveState, params: ModelParams) -> bool:
    """0 <= psi <= 1 and, on an exchange state, 0 <= mu*phi <= 1, each to 1e-8."""
    fields = [state.psi] if state.phi is None else [state.psi, params.mu * state.phi]
    return all(f.min() >= -BOUNDS_TOL and f.max() <= 1.0 + BOUNDS_TOL for f in fields)


def check_monotonicity(state: WaveState) -> bool:
    """All forward x-differences of psi (every row) and of phi >= -1e-6."""
    fields = [state.psi] if state.phi is None else [state.psi, state.phi]
    # x is the last axis of both fields
    return all(np.diff(f).min() >= -MONOTONE_TOL for f in fields)


def check_sandwich(state: WaveState, params: ModelParams) -> bool:
    """inf psi - 1e-8 <= mu*phi(x) <= sup psi + 1e-8 for every x."""
    if not state.family.is_exchange:
        raise WrongFamily("sandwich check applies to exchange states only")
    scaled = params.mu * state.phi
    return bool(state.psi.min() - scaled.min() <= SANDWICH_TOL
                and scaled.max() - state.psi.max() <= SANDWICH_TOL)


def speed_identity(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                   grid: Grid) -> float:
    """Estimate c from the integral identity and return the estimate.

    Trapezoidal quadrature of f(psi) over the truncated strip divided by
    (L + s/mu) for the Wentzell family or (L + 1/mu) for the exchange
    family (the exchange denominator is eps-independent: the 1/eps
    boundary flux integrates to c/mu for every eps).
    """
    f_val = reaction(state.psi, spec)
    wx = np.full(grid.nx, grid.hx)
    wx[0] = wx[-1] = grid.hx / 2.0
    wy = np.full(grid.ny, grid.hy)
    wy[0] = wy[-1] = grid.hy / 2.0
    integral = float(wy @ f_val @ wx)
    if state.family.is_wentzell:
        denom = params.L + state.family.parameter / params.mu
    else:
        denom = params.L + 1.0 / params.mu
    return integral / denom


def left_decay_bound(state: WaveState, params: ModelParams, grid: Grid,
                     theta: float) -> float:
    """Largest excess of psi over theta * exp(r (x - x_theta)); the bound
    holds when it is at most 1e-8.  inf when no column has max_y psi <= theta.

    x_theta is the rightmost column whose maximum over y stays at or
    below the ignition threshold; the rate is r = c / max(d, D), the
    comparison-function rate (the true tail decays at least this fast,
    so the inequality must hold on converged states).
    """
    psi = state.psi
    below = np.nonzero(psi.max(axis=0) <= theta)[0]
    if below.size == 0:
        return math.inf
    i_theta = int(below[-1])
    r = state.c / max(params.d, params.D)
    x = grid.x
    bound = theta * np.exp(r * (x[: i_theta + 1] - x[i_theta]))
    return float((psi[:, : i_theta + 1] - bound[None, :]).max())


def dispersion_root(q: DispersionQuery) -> DispersionRoot:
    """Bisection root of the right-decay dispersion relation.

    beta uses the full f'(1); gamma_lim is the positive root of beta = 0,
    i.e. of d g^2 + c g + f'(1) = 0.  At s = 0 the Wentzell relation
    forces beta = 0, so the root is gamma_lim itself, the rate of the
    1-D linearization.  Returns the root, NaN when the bracket does not
    straddle one, together with gamma_lim.
    """
    d, D, mu, L = q.params.d, q.params.D, q.params.mu, q.params.L
    c, fp1 = q.c, q.fprime1
    gamma_lim = (-c + math.sqrt(c * c - 4.0 * d * fp1)) / (2.0 * d)

    if q.family_kind == WENTZELL and q.parameter == 0.0:
        return DispersionRoot(gamma=gamma_lim, gamma_lim=gamma_lim)

    def beta(g: float) -> float:
        val = -fp1 / d - g * (g + c / d)
        return math.sqrt(val) if val > 0.0 else 0.0

    def gap(g: float) -> float:
        b = beta(g)
        bt = d * b * math.tanh(b * L)
        if q.family_kind == WENTZELL:
            return q.parameter * (D * g * g + c * g) - mu * bt
        return (D * g * g + c * g) - mu * bt / (1.0 + q.parameter * bt)

    lo, hi = 1e-14 * gamma_lim, gamma_lim * (1.0 - 1e-14)
    if not (gap(lo) < 0.0 < gap(hi)):
        return DispersionRoot(gamma=math.nan, gamma_lim=gamma_lim)
    lo, hi = _bisect(lo, hi, 0.0, lambda g: 1 if gap(g) > 0.0 else -1)  # to adjacent doubles
    return DispersionRoot(gamma=0.5 * (lo + hi), gamma_lim=gamma_lim)


def supersolution_rate(q: DispersionQuery) -> DispersionRoot:
    """Same relation built with f'(1)/2: the guaranteed decay lower bound
    coming from the halved-linearization comparison function, with
    gamma_lim = (sqrt(c^2 - 2 d f'(1)) - c)/(2d)."""
    half = DispersionQuery(c=q.c, params=q.params, family_kind=q.family_kind,
                           parameter=q.parameter, fprime1=q.fprime1 / 2.0)
    return dispersion_root(half)


def fit_right_decay(state: WaveState, grid: Grid) -> float:
    """Least-squares decay rate of 1 - psi along the bottom boundary.

    Fits log(1 - psi(x, -L)) over nodes with 1e-8 < 1 - psi < 1e-2 and
    x <= x_right - 5 hx (keeping clear of the Dirichlet truncation),
    returning the negated slope, or NaN when fewer than 3 nodes qualify.
    """
    one_minus = 1.0 - state.psi[0, :]
    x = grid.x
    mask = (one_minus > FIT_LOWER) & (one_minus < FIT_UPPER) & (x <= grid.x_right - 5.0 * grid.hx)
    if int(mask.sum()) < 3:
        return math.nan
    slope = np.polyfit(x[mask], np.log(one_minus[mask]), 1)[0]
    return float(-slope)


def run_diagnostics(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                    grid: Grid) -> DiagnosticsReport:
    """Full per-record report: a quantity undefined on `state` reports what
    its helper returns for it, so a left-decay verdict of False or a NaN rate."""
    psi = state.psi
    return DiagnosticsReport(
        bounds_ok=check_bounds(state, params),
        monotone_ok=check_monotonicity(state),
        sandwich_ok=check_sandwich(state, params) if state.family.is_exchange else True,
        left_decay_ok=left_decay_bound(state, params, grid, spec.theta) <= LEFT_DECAY_TOL,
        speed_identity_gap=abs(speed_identity(state, params, spec, grid) - state.c) / abs(state.c),
        gamma_fit=fit_right_decay(state, grid),
        gamma_pred=dispersion_root(DispersionQuery(
            c=state.c, params=params, family_kind=state.family.kind,
            parameter=state.family.parameter, fprime1=spec.fprime_at_one)).gamma,
        cmax_margin=c_max(params, spec) - state.c,
        min_psi=float(psi.min()),
        max_psi=float(psi.max()),
        min_dx_psi=float(np.diff(psi, axis=1).min()),
    )
