"""Machine-checkable certificates for converged wave states.

Every qualitative property the continuous problem guarantees is turned
into a numeric check with an explicit tolerance:

* bounds: 0 < psi, mu*phi < 1 (to 1e-8)
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
f'(1)/2 give a guaranteed lower bound on the decay rate; both are
reported.  The two relations are algebraically identical at
(eps -> 0, s = 1), which is asserted as pure algebra, not on solutions.

Checks never raise on mere failure; they return report fragments.  Only
preconditions that make a check meaningless raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, NoRoot, ThresholdNotCrossed, WindowEmpty, WrongFamily
from .grid import Grid
from .model import ModelParams, NonlinearitySpec, c_max, eval_nonlinearity
from .residual import WaveState

BOUNDS_TOL = 1e-8
MONOTONE_TOL = 1e-6
SANDWICH_TOL = 1e-8
LEFT_DECAY_TOL = 1e-8
FIT_UPPER = 1e-2
FIT_LOWER = 1e-8


@dataclass
class CheckResult:
    ok: bool
    worst_value: float
    worst_node: tuple[int, ...] | None
    info: dict = field(default_factory=dict)


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
    def all_ok(self) -> bool:
        return self.bounds_ok and self.monotone_ok and self.sandwich_ok and self.left_decay_ok


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


def check_bounds(state: WaveState) -> CheckResult:
    """Field bounds min psi >= -1e-8, max psi <= 1 + 1e-8, worst node
    recorded; the line field is covered by check_bounds_line (it needs mu)."""
    psi = state.psi
    lo = float(psi.min())
    hi = float(psi.max())
    ok = lo >= -BOUNDS_TOL and hi <= 1.0 + BOUNDS_TOL
    if 1.0 - hi < lo:  # the worse violation side
        worst = np.unravel_index(int(np.argmax(psi)), psi.shape)
        worst_value = hi
    else:
        worst = np.unravel_index(int(np.argmin(psi)), psi.shape)
        worst_value = lo
    info = {"min_psi": lo, "max_psi": hi}
    return CheckResult(ok=ok, worst_value=worst_value, worst_node=tuple(int(v) for v in worst), info=info)


def check_bounds_line(state: WaveState, params: ModelParams) -> CheckResult:
    if state.phi is None:
        return CheckResult(ok=True, worst_value=math.nan, worst_node=None)
    scaled = params.mu * state.phi
    lo, hi = float(scaled.min()), float(scaled.max())
    ok = lo >= -BOUNDS_TOL and hi <= 1.0 + BOUNDS_TOL
    worst_idx = int(np.argmax(scaled)) if 1.0 - hi < lo else int(np.argmin(scaled))
    return CheckResult(ok=ok, worst_value=hi if 1.0 - hi < lo else lo,
                       worst_node=(worst_idx,), info={"min_mu_phi": lo, "max_mu_phi": hi})


def check_monotonicity(state: WaveState) -> CheckResult:
    """All forward x-differences of psi (every row) and of phi >= -1e-6."""
    dpsi = np.diff(state.psi, axis=1)
    min_d = float(dpsi.min())
    worst = np.unravel_index(int(np.argmin(dpsi)), dpsi.shape)
    info = {"min_dx_psi": min_d}
    ok = min_d >= -MONOTONE_TOL
    if state.phi is not None:
        dphi = np.diff(state.phi)
        min_dphi = float(dphi.min())
        info["min_dx_phi"] = min_dphi
        if min_dphi < min_d:
            worst = (int(np.argmin(dphi)),)
            min_d = min_dphi
        ok = ok and min_dphi >= -MONOTONE_TOL
    return CheckResult(ok=ok, worst_value=min_d, worst_node=tuple(int(v) for v in worst), info=info)


def check_sandwich(state: WaveState, params: ModelParams) -> CheckResult:
    """inf psi - 1e-8 <= mu*phi(x) <= sup psi + 1e-8 for every x."""
    if not state.family.is_exchange:
        raise WrongFamily("sandwich check applies to exchange states only")
    scaled = params.mu * state.phi
    lo, hi = float(state.psi.min()), float(state.psi.max())
    below = lo - scaled
    above = scaled - hi
    worst_excess = float(np.maximum(below, above).max())
    worst_idx = int(np.argmax(np.maximum(below, above)))
    return CheckResult(ok=worst_excess <= SANDWICH_TOL, worst_value=worst_excess,
                       worst_node=(worst_idx,), info={"inf_psi": lo, "sup_psi": hi})


def speed_identity(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                   grid: Grid) -> float:
    """Estimate c from the integral identity and return the estimate.

    Trapezoidal quadrature of f(psi) over the truncated strip divided by
    (L + s/mu) for the Wentzell family or (L + 1/mu) for the exchange
    family (the exchange denominator is eps-independent: the 1/eps
    boundary flux integrates to c/mu for every eps).
    """
    f_val, _ = eval_nonlinearity(state.psi, spec)
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
                     theta: float) -> CheckResult:
    """Pointwise check of psi <= theta * exp(r (x - x_theta)) + 1e-8.

    x_theta is the rightmost column whose maximum over y stays at or
    below the ignition threshold; the rate is r = c / max(d, D), the
    comparison-function rate (the true tail decays at least this fast,
    so the inequality must hold on converged states).
    """
    psi = state.psi
    col_max = psi.max(axis=0)
    below = np.nonzero(col_max <= theta)[0]
    if below.size == 0:
        raise ThresholdNotCrossed("max_y psi exceeds theta at every column; extent too small")
    i_theta = int(below[-1])
    r = state.c / max(params.d, params.D)
    x = grid.x
    bound = theta * np.exp(r * (x[: i_theta + 1] - x[i_theta]))
    excess = psi[:, : i_theta + 1] - bound[None, :]
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
    worst_value = float(excess[worst])
    return CheckResult(ok=worst_value <= LEFT_DECAY_TOL, worst_value=worst_value,
                       worst_node=tuple(int(v) for v in worst),
                       info={"x_theta": float(x[i_theta]), "rate": r})


def dispersion_root(q: DispersionQuery) -> DispersionRoot:
    """Bisection root of the right-decay dispersion relation.

    beta uses the full f'(1); gamma_lim is the positive root of beta = 0,
    i.e. of d g^2 + c g + f'(1) = 0.  At s = 0 the Wentzell relation
    forces beta = 0, so the root is gamma_lim itself, the rate of the
    1-D linearization.  Returns the root together with gamma_lim.
    """
    d, D, mu, L = q.params.d, q.params.D, q.params.mu, q.params.L
    c, fp1 = q.c, q.fprime1
    gamma_lim = (-c + math.sqrt(c * c - 4.0 * d * fp1)) / (2.0 * d)

    if q.family_kind == "wentzell" and q.parameter == 0.0:
        return DispersionRoot(gamma=gamma_lim, gamma_lim=gamma_lim)

    def beta(g: float) -> float:
        val = -fp1 / d - g * (g + c / d)
        return math.sqrt(val) if val > 0.0 else 0.0

    def gap(g: float) -> float:
        b = beta(g)
        bt = d * b * math.tanh(b * L)
        if q.family_kind == "wentzell":
            return q.parameter * (D * g * g + c * g) - mu * bt
        return (D * g * g + c * g) - mu * bt / (1.0 + q.parameter * bt)

    lo, hi = 1e-14 * gamma_lim, gamma_lim * (1.0 - 1e-14)
    if not (gap(lo) < 0.0 < gap(hi)):
        raise NoRoot(f"dispersion bracket does not straddle: gap({lo:.3e})={gap(lo):.3e}, "
                     f"gap({hi:.3e})={gap(hi):.3e}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
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
    returning the negated slope.
    """
    one_minus = 1.0 - state.psi[0, :]
    x = grid.x
    mask = (one_minus > FIT_LOWER) & (one_minus < FIT_UPPER) & (x <= grid.x_right - 5.0 * grid.hx)
    if int(mask.sum()) < 3:
        raise WindowEmpty("fewer than 3 nodes with 1e-8 < 1 - psi < 1e-2 before the cutoff")
    slope = np.polyfit(x[mask], np.log(one_minus[mask]), 1)[0]
    return float(-slope)


def translation_collapse(a: WaveState, b: WaveState, grid: Grid) -> tuple[float, float]:
    """Optimal x-shift aligning two states and the residual sup distance.

    Integer-node search seeded by the midline half-crossing positions,
    then quadratic refinement of the shift; fractional shifts evaluate
    psi_a by linear interpolation, with the constant tails 0 and 1
    re-imposed outside the grid.
    """
    if a.psi.shape != b.psi.shape:
        raise GridMismatch(f"states have different shapes {a.psi.shape} vs {b.psi.shape}")
    if a.family != b.family:
        raise GridMismatch(f"states have different families {a.family} vs {b.family}")

    nx = grid.nx

    def shifted(psi: np.ndarray, k: int) -> np.ndarray:
        out = np.empty_like(psi)
        if k >= 0:
            out[:, : nx - k] = psi[:, k:]
            out[:, nx - k :] = 1.0
        else:
            out[:, -k:] = psi[:, :k]
            out[:, : -k] = 0.0
        return out

    def sup_dist_int(k: int) -> float:
        return float(np.abs(shifted(a.psi, k) - b.psi).max())

    row_a = a.psi[grid.anchor_iy, :]
    row_b = b.psi[grid.anchor_iy, :]
    mid = 0.5 * (row_a.min() + row_a.max())
    k0 = int(np.argmin(np.abs(row_a - mid))) - int(np.argmin(np.abs(row_b - mid)))

    best_k, best_v = k0, sup_dist_int(k0)
    improved = True
    while improved:
        improved = False
        for k in (best_k - 1, best_k + 1):
            if abs(k) < nx:
                v = sup_dist_int(k)
                if v < best_v:
                    best_k, best_v, improved = k, v, True

    vm = sup_dist_int(best_k - 1) if abs(best_k - 1) < nx else best_v
    vp = sup_dist_int(best_k + 1) if abs(best_k + 1) < nx else best_v
    denom = vm - 2.0 * best_v + vp
    delta = 0.5 * (vm - vp) / denom if denom > 0 else 0.0
    delta = float(np.clip(delta, -1.0, 1.0))

    x = grid.x

    def sup_dist_frac(shift_nodes: float) -> float:
        xq = x + shift_nodes * grid.hx
        worst = 0.0
        for j in range(grid.ny):
            va = np.interp(xq, x, a.psi[j, :], left=0.0, right=1.0)
            worst = max(worst, float(np.abs(va - b.psi[j, :]).max()))
        return worst

    shift_nodes = best_k + delta
    value = sup_dist_frac(shift_nodes)
    if best_v < value:  # quadratic refinement is a heuristic; keep the better point
        shift_nodes, value = float(best_k), best_v
    return shift_nodes * grid.hx, value


def run_diagnostics(state: WaveState, params: ModelParams, spec: NonlinearitySpec,
                    grid: Grid) -> DiagnosticsReport:
    """Full per-record report.  Never raises: a check whose precondition
    fails reports False, a number that cannot be computed NaN."""
    b = check_bounds(state)
    m = check_monotonicity(state)
    try:
        left_decay_ok = left_decay_bound(state, params, grid, theta=spec.theta).ok
    except ThresholdNotCrossed:
        left_decay_ok = False
    try:
        gamma_pred = dispersion_root(DispersionQuery(
            c=state.c, params=params, family_kind=state.family.kind,
            parameter=state.family.parameter, fprime1=spec.fprime_at_one)).gamma
    except NoRoot:
        gamma_pred = math.nan
    try:
        gamma_fit = fit_right_decay(state, grid)
    except WindowEmpty:
        gamma_fit = math.nan
    return DiagnosticsReport(
        bounds_ok=b.ok and check_bounds_line(state, params).ok,
        monotone_ok=m.ok,
        sandwich_ok=check_sandwich(state, params).ok if state.family.is_exchange else True,
        left_decay_ok=left_decay_ok,
        speed_identity_gap=abs(speed_identity(state, params, spec, grid) - state.c) / abs(state.c),
        gamma_fit=gamma_fit,
        gamma_pred=gamma_pred,
        cmax_margin=c_max(params, spec) - state.c,
        min_psi=b.info["min_psi"],
        max_psi=b.info["max_psi"],
        min_dx_psi=m.info["min_dx_psi"],
    )
