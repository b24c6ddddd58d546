import math

import numpy as np
import pytest

from stripwave import (DispersionQuery, HomotopyFamily, ModelParams, NonlinearityKind,
                       NonlinearitySpec, WaveState, build_grid, check_bounds,
                       check_monotonicity, check_sandwich, dispersion_root, fit_right_decay,
                       left_decay_bound, run_diagnostics, speed_identity, supersolution_rate)
from stripwave.diagnostics import LEFT_DECAY_TOL
from stripwave.errors import WrongFamily

PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
CUBIC = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)


def wentzell_state(grid, psi, c=0.5, s=1.0):
    return WaveState(c=c, psi=psi, phi=None, family=HomotopyFamily.wentzell(s))


def exchange_state(grid, psi, phi, c=0.5, eps=1.0):
    return WaveState(c=c, psi=psi, phi=phi, family=HomotopyFamily.exchange(eps))


# --- bounds / monotonicity / sandwich ------------------------------------------

def test_bounds_constant_field_passes():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    assert check_bounds(wentzell_state(grid, np.full((grid.ny, grid.nx), 0.5)), PARAMS)


def test_bounds_reports_offender():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.full((grid.ny, grid.nx), 0.5)
    psi[2, 7] = 1.2
    assert not check_bounds(wentzell_state(grid, psi), PARAMS)
    # one node past the 1e-8 tolerance fails, one within it passes
    psi[2, 7] = 1.0 + 2e-8
    assert not check_bounds(wentzell_state(grid, psi), PARAMS)
    psi[2, 7] = 1.0 + 0.5e-8
    assert check_bounds(wentzell_state(grid, psi), PARAMS)


def test_monotonicity_tanh_passes_inversion_fails():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.tile(0.5 * (1 + np.tanh(grid.x)), (grid.ny, 1))
    assert check_monotonicity(wentzell_state(grid, psi))
    psi_bad = psi.copy()
    psi_bad[1, 5], psi_bad[1, 6] = psi_bad[1, 6], psi_bad[1, 5] + 1e-3
    assert not check_monotonicity(wentzell_state(grid, psi_bad))


def test_sandwich():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.tile(0.5 * (1 + np.tanh(grid.x)), (grid.ny, 1))
    state = exchange_state(grid, psi, psi[-1, :] / PARAMS.mu)
    assert check_sandwich(state, PARAMS)
    bad = exchange_state(grid, psi, psi[-1, :] / PARAMS.mu + 2.0)
    assert not check_sandwich(bad, PARAMS)
    with pytest.raises(WrongFamily):
        check_sandwich(wentzell_state(grid, psi), PARAMS)



def test_run_diagnostics_checks_the_line_field():
    # on an exchange state the verdicts cover mu*phi and phi; min_dx_psi stays psi's own
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.tile(0.5 * (1 + np.tanh(grid.x)), (grid.ny, 1))
    good = run_diagnostics(exchange_state(grid, psi, psi[-1, :] / PARAMS.mu), PARAMS, CUBIC, grid)
    assert good.bounds_ok and good.monotone_ok
    high = run_diagnostics(exchange_state(grid, psi, np.full(grid.nx, (1.0 + 2e-8) / PARAMS.mu)),
                           PARAMS, CUBIC, grid)
    assert 0.0 <= high.min_psi and high.max_psi <= 1.0
    assert not high.bounds_ok
    falling = run_diagnostics(exchange_state(grid, psi, psi[-1, ::-1] / PARAMS.mu), PARAMS,
                              CUBIC, grid)
    assert not falling.monotone_ok
    assert falling.min_dx_psi == float(np.diff(psi, axis=1).min()) > 0.0

# --- speed identity -------------------------------------------------------------

def test_speed_identity_vanishes_below_threshold():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.full((grid.ny, grid.nx), 0.2)
    assert speed_identity(wentzell_state(grid, psi), PARAMS, CUBIC, grid) == 0.0


def test_speed_identity_matches_hand_quadrature():
    # psi = 0.65 constant: f = 0.35^2 * 0.35; integral = f * |domain|
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.full((grid.ny, grid.nx), 0.65)
    f_val = 0.35**2 * 0.35
    area = (grid.x_right - grid.x_left) * PARAMS.L
    state = wentzell_state(grid, psi, s=1.0)
    assert speed_identity(state, PARAMS, CUBIC, grid) == pytest.approx(
        f_val * area / (PARAMS.L + 1.0 / PARAMS.mu), rel=1e-12)
    ex = exchange_state(grid, psi, np.full(grid.nx, 0.65), eps=0.5)
    assert speed_identity(ex, PARAMS, CUBIC, grid) == pytest.approx(
        f_val * area / (PARAMS.L + 1.0 / PARAMS.mu), rel=1e-12)


# --- left decay ------------------------------------------------------------------

def test_left_decay_exact_tail_passes_with_equality():
    slow = ModelParams(d=1.0, D=0.5, mu=1.0, L=1.0)  # D <= d: rate is exactly c/d
    grid = build_grid(slow, -40.0, 10.0, 201, 5)
    c = 0.4
    row = np.where(grid.x <= 0.0, CUBIC.theta * np.exp(c * np.minimum(grid.x, 0.0)), 1.0)
    psi = np.tile(row, (grid.ny, 1))
    excess = left_decay_bound(wentzell_state(grid, psi, c=c), slow, grid, theta=CUBIC.theta)
    assert excess <= LEFT_DECAY_TOL
    assert abs(excess) < 1e-12  # equality up to roundoff


def test_left_decay_slow_tail_fails():
    slow = ModelParams(d=1.0, D=0.5, mu=1.0, L=1.0)
    grid = build_grid(slow, -40.0, 10.0, 201, 5)
    c = 0.4
    row = np.where(grid.x <= 0.0, CUBIC.theta * np.exp(0.5 * c * np.minimum(grid.x, 0.0)), 1.0)
    psi = np.tile(row, (grid.ny, 1))
    excess = left_decay_bound(wentzell_state(grid, psi, c=c), slow, grid, theta=CUBIC.theta)
    assert excess > LEFT_DECAY_TOL


def test_left_decay_threshold_never_crossed():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.full((grid.ny, grid.nx), 0.9)
    assert left_decay_bound(wentzell_state(grid, psi), PARAMS, grid, theta=CUBIC.theta) == math.inf


# --- dispersion -------------------------------------------------------------------

def test_dispersion_neumann_limit_is_one_dim_rate():
    q = DispersionQuery(c=0.5, params=PARAMS, family_kind="wentzell", parameter=0.0,
                        fprime1=-0.49)
    root = dispersion_root(q)
    expected = (-0.5 + math.sqrt(0.25 + 4.0 * 0.49)) / 2.0
    assert root.gamma == pytest.approx(expected, rel=1e-12)
    assert root.gamma == root.gamma_lim


def test_dispersion_hand_bracketed_root():
    # c = d = D = L = mu = s = 1, f'(1) = -1: gamma (gamma+1) = beta tanh beta
    # with beta = sqrt(1 - gamma (gamma+1)); hand bracketing gives (0.33, 0.35)
    unit = ModelParams(d=1.0, D=1.0, mu=1.0, L=1.0)
    q = DispersionQuery(c=1.0, params=unit, family_kind="wentzell", parameter=1.0, fprime1=-1.0)
    root = dispersion_root(q)
    assert 0.33 < root.gamma < 0.35
    beta = math.sqrt(1.0 - root.gamma * (root.gamma + 1.0))
    assert root.gamma * (root.gamma + 1.0) == pytest.approx(beta * math.tanh(beta), abs=1e-12)


def test_dispersion_exchange_limit_equals_wentzell():
    for c in (0.3, 0.7, 1.1):
        qw = DispersionQuery(c=c, params=PARAMS, family_kind="wentzell", parameter=1.0,
                             fprime1=-0.49)
        qe = DispersionQuery(c=c, params=PARAMS, family_kind="exchange", parameter=0.0,
                             fprime1=-0.49)
        assert abs(dispersion_root(qw).gamma - dispersion_root(qe).gamma) <= 1e-12


def test_gamma_lim_algebra_both_conventions():
    c, d, fp1 = 0.8, 1.3, -0.6
    params = ModelParams(d=d, D=2.0, mu=1.0, L=1.0)
    q = DispersionQuery(c=c, params=params, family_kind="wentzell", parameter=1.0, fprime1=fp1)
    full = dispersion_root(q).gamma_lim
    assert full == pytest.approx((math.sqrt(c * c - 4 * d * fp1) - c) / (2 * d), rel=1e-14)
    half = supersolution_rate(q).gamma_lim
    assert half == pytest.approx((math.sqrt(c * c - 2 * d * fp1) - c) / (2 * d), rel=1e-14)
    # the halved linearization certifies slower decay: it is a lower bound
    assert supersolution_rate(q).gamma < dispersion_root(q).gamma


def test_dispersion_without_a_root_is_nan():
    # a tiny Wentzell strength against a huge mu: the gap is negative on the whole bracket
    stiff = ModelParams(d=1.0, D=4.0, mu=1e8, L=1.0)
    q = DispersionQuery(c=0.3, params=stiff, family_kind="wentzell", parameter=1e-12,
                        fprime1=-0.49)
    root = dispersion_root(q)
    assert math.isnan(root.gamma)
    # the closed form stays defined: 0.56589...
    assert root.gamma_lim == pytest.approx((math.sqrt(0.09 + 4 * 0.49) - 0.3) / 2, rel=1e-14)
    assert math.isnan(supersolution_rate(q).gamma)


# --- right-decay fit ---------------------------------------------------------------

def test_fit_right_decay_pure_exponential():
    grid = build_grid(PARAMS, -2.0, 12.0, 141, 5)
    psi = np.tile(1.0 - np.exp(-2.0 * grid.x), (grid.ny, 1))
    state = wentzell_state(grid, np.clip(psi, 0.0, 1.0))
    assert fit_right_decay(state, grid) == pytest.approx(2.0, abs=1e-6)


def test_fit_right_decay_perturbed_exponential():
    grid = build_grid(PARAMS, -2.0, 12.0, 141, 5)
    tail = np.exp(-2.0 * grid.x) * (1.0 + 0.01 * np.sin(grid.x))
    psi = np.tile(1.0 - tail, (grid.ny, 1))
    state = wentzell_state(grid, np.clip(psi, 0.0, 1.0))
    assert fit_right_decay(state, grid) == pytest.approx(2.0, abs=0.02)


def test_fit_right_decay_window_empty():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    psi = np.full((grid.ny, grid.nx), 0.5)
    assert math.isnan(fit_right_decay(wentzell_state(grid, psi), grid))


def test_run_diagnostics_reports_undefined_quantities():
    # psi > theta everywhere, no node in the fit window, and a dispersion bracket
    # that does not straddle a root: each gets the value a record carries
    stiff = ModelParams(d=1.0, D=4.0, mu=1e8, L=1.0)
    grid = build_grid(stiff, -2.0, 1.0, 13, 5)
    state = wentzell_state(grid, np.full((grid.ny, grid.nx), 0.9), c=0.3, s=1e-12)
    report = run_diagnostics(state, stiff, CUBIC, grid)
    assert not report.left_decay_ok
    assert math.isnan(report.gamma_fit) and math.isnan(report.gamma_pred)
