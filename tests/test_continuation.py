import dataclasses
import functools
import logging
import math

import numpy as np
import pytest

from stripwave import continuation, solver
from stripwave import (ContinuationOptions, HomotopyFamily, ModelParams, NewtonOptions,
                       NonlinearityKind, NonlinearitySpec, WaveState, assemble_residual,
                       build_grid, continue_exchange, continue_wentzell, embed_one_dim_wave,
                       handoff_to_system, make_record, newton_solve, one_dim_guess,
                       one_dim_start, solve_1d_ignition_shooting)
from stripwave.continuation import check_extents
from stripwave.errors import (ExtentTooSmall, MaxItersExceeded, NegativeSpeed,
                              ParameterNotMonotone, StepCollapse, WrongFamily)

PARAMS = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
CUBIC = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)


@pytest.fixture(scope="module")
def coarse_setup():
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 9)
    wave = solve_1d_ignition_shooting(PARAMS.d, CUBIC, tol=1e-8)
    init = embed_one_dim_wave(wave, grid, CUBIC)
    result = newton_solve(init, PARAMS, CUBIC, grid, NewtonOptions())
    return grid, result, make_record("A", result.state, result.residual_norm, PARAMS, CUBIC,
                                     grid, step=0.1)


def refuse(record):
    raise AssertionError(f"sink called with the record at {record.parameter}")


def test_zero_target_returns_single_record(coarse_setup):
    grid, result, start = coarse_setup
    end = continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), target_s=0.0,
                            sink=refuse)
    assert end is start
    assert end.parameter == 0.0
    assert end.c == result.state.c


def test_wentzell_path_reaches_target(coarse_setup):
    grid, _, start = coarse_setup
    records = [start]
    end = continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), target_s=1.0,
                            sink=records.append)
    assert end is records[-1] and end.parameter == 1.0
    params_seq = [r.parameter for r in records]
    assert all(b >= a for a, b in zip(params_seq, params_seq[1:]))
    assert all(r.c > 0 for r in records)
    assert not any(r.diagnostics.failed for r in records)


@pytest.fixture(scope="module")
def coarse_exchange_start(coarse_setup):
    """The stage B record of the coarse path: exchange(0.05), initial step 0.1."""
    grid, _, start = coarse_setup
    end = continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), target_s=1.0)
    result = newton_solve(handoff_to_system(end.state, 0.05, PARAMS, grid), PARAMS, CUBIC,
                          grid, NewtonOptions())
    return make_record("B", result.state, result.residual_norm, PARAMS, CUBIC, grid, step=0.1)


# (parameter, step of the next trial) of each record of the coarse marches: an
# accepted step grows 9 times
RESUMED_MARCHES = {
    "wentzell": [(0.1, 0.9), (1.0, 8.1)],
    "exchange": [(0.15000000000000002, 0.9), (1.0, 8.1)],
}


def test_a_record_alone_resumes_the_march(coarse_setup, coarse_exchange_start):
    # a record carries the step the march continues with, and each trial starts
    # from a function of its record alone, so a march from any record repeats
    # the rest of the march bit for bit
    grid, _, wentzell_start = coarse_setup
    for family, start, march in [("wentzell", wentzell_start, continue_wentzell),
                                 ("exchange", coarse_exchange_start, continue_exchange)]:

        def run(first):
            records = []
            march(first, PARAMS, CUBIC, grid, NewtonOptions(), 1.0, sink=records.append)
            return [(r.state.psi.tobytes(), np.float64([r.parameter, r.c, r.step]).tobytes())
                    for r in records], records

        full, records = run(start)
        assert [(r.parameter, r.step) for r in records] == RESUMED_MARCHES[family]
        assert run(start)[0] == full
        for k, record in enumerate(records):
            assert run(record)[0] == full[k + 1:], (family, k)


def reject_the_first_record(monkeypatch):
    """Make the first record of the marches that follow fail monotone_ok;
    returns the list of the diagnostics made."""
    diagnose, made = continuation.run_diagnostics, []

    def uncertified_first(*args):
        made.append(diagnose(*args))
        return dataclasses.replace(made[-1], monotone_ok=len(made) > 1)

    monkeypatch.setattr(continuation, "run_diagnostics", uncertified_first)
    return made


def test_a_failed_certificate_rejects_the_trial_and_halves_the_step(coarse_setup, monkeypatch,
                                                                     caplog):
    # the first trial's record fails monotone_ok: the march rejects it as it
    # rejects a Newton failure, retries at half the step, accepts that, and
    # reaches the rejected parameter from there with certified records
    grid, _, start = coarse_setup
    solve, trials = continuation.newton_solve, []

    def tracked(init, params, spec, on, opts, **kwargs):
        if on == grid:  # the fine solves; the coarse level's are the predictor's
            trials.append(init.family.parameter)
        return solve(init, params, spec, on, opts, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", tracked)
    made = reject_the_first_record(monkeypatch)
    records = []
    with caplog.at_level(logging.INFO, logger="stripwave.continuation"):
        continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), target_s=0.1,
                          sink=records.append)
    assert trials == [0.1, 0.05, 0.1] and len(made) == 3
    assert [r.parameter for r in records] == [0.05, 0.1]
    assert not any(r.diagnostics.failed for r in records)
    rejected, *accepted = caplog.messages
    assert rejected.startswith("step rejected (record at parameter 0.100000, c = ")
    assert rejected.endswith(", fails monotone_ok); retrying with step 0.05")
    # each accepted step's line names its Newton's iterations and the next step
    assert [f"next step {r.step:.6g}" in line for r, line in zip(records, accepted)] == [True] * 2


def test_a_certificate_failing_at_every_trial_collapses_the_step(coarse_setup, monkeypatch,
                                                                 caplog):
    # every trial's record fails left_decay_ok: each is rejected and its step
    # halved, 0.1 -> 0.05 -> 0.025 -> 0.0125, below min_step; no record is sent
    grid, _, start = coarse_setup
    diagnose = continuation.run_diagnostics
    monkeypatch.setattr(continuation, "run_diagnostics",
                        lambda *args: dataclasses.replace(diagnose(*args), left_decay_ok=False))
    with caplog.at_level(logging.INFO, logger="stripwave.continuation"):
        with pytest.raises(StepCollapse) as collapse:
            continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), target_s=1.0,
                              opts=ContinuationOptions(min_step=0.02), sink=refuse)
    message = str(collapse.value)
    assert message.startswith("continuation step below 0.02 at A parameter 0.000000: record at "
                              "parameter 0.025000, c = ")
    assert message.endswith(", fails left_decay_ok")
    assert [line.partition("; ")[2] for line in caplog.messages] == [
        f"retrying with step {step}" for step in (0.05, 0.025, 0.0125)]
    assert all(", fails left_decay_ok)" in line for line in caplog.messages)


def test_impossible_newton_budget_collapses_step(coarse_setup):
    grid, _, start = coarse_setup
    with pytest.raises(StepCollapse):
        continue_wentzell(start, PARAMS, CUBIC, grid,
                          NewtonOptions(max_iters=1, tol_residual=1e-13), target_s=1.0)


def test_exchange_rejects_decreasing_target(coarse_setup):
    grid, _, _ = coarse_setup
    psi = np.tile(np.linspace(0.0, 1.0, grid.nx), (grid.ny, 1))
    state = WaveState(c=0.3, psi=psi, phi=psi[-1, :].copy(),
                      family=HomotopyFamily.exchange(0.05))
    start = make_record("C", state, 0.0, PARAMS, CUBIC, grid, step=0.1)
    with pytest.raises(ParameterNotMonotone):
        continue_exchange(start, PARAMS, CUBIC, grid, NewtonOptions(), target_eps=0.025)


def test_record_rejects_an_infinite_step(coarse_setup):
    # a march halves a rejected step: from inf it would retry forever
    _, _, start = coarse_setup
    for step in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="ContinuationRecord.step must be finite and > 0"):
            dataclasses.replace(start, step=step)


def test_family_guards(coarse_setup):
    grid, _, start = coarse_setup
    with pytest.raises(WrongFamily):
        continue_exchange(start, PARAMS, CUBIC, grid, NewtonOptions(), target_eps=1.0)


def test_handoff_degenerate_epsilon(coarse_setup):
    grid, result, _ = coarse_setup
    state = result.state
    pred = handoff_to_system(state, 1e-12, PARAMS, grid)
    assert np.abs(PARAMS.mu * pred.phi - state.psi[-1, :]).max() < 1e-9
    assert pred.c == state.c


def test_handoff_linear_field_arithmetic():
    # psi = g(x) + y has exact one-sided dpsi/dy = 1, so with eps0 = 0.05,
    # d = 2, mu = 1 the predictor is phi = psi(.,0) + 0.1
    params = ModelParams(d=2.0, D=4.0, mu=1.0, L=1.0)
    grid = build_grid(params, -2.0, 1.0, 13, 5)
    psi = np.add.outer(grid.y, np.linspace(0.2, 0.8, grid.nx))
    state = WaveState(c=0.4, psi=psi, phi=None, family=HomotopyFamily.wentzell(1.0))
    pred = handoff_to_system(state, 0.05, params, grid)
    assert np.allclose(pred.phi, psi[-1, :] + 0.1, atol=1e-12)


def test_handoff_epsilon_range():
    grid = build_grid(PARAMS, -2.0, 1.0, 13, 5)
    state = WaveState(c=0.4, psi=np.zeros((grid.ny, grid.nx)), phi=None,
                      family=HomotopyFamily.wentzell(1.0))
    with pytest.raises(ValueError):
        handoff_to_system(state, 0.5, PARAMS, grid)


def test_extent_rule():
    grid = build_grid(PARAMS, -20.0, 20.0, 81, 5)
    with pytest.raises(ExtentTooSmall):
        check_extents(grid, PARAMS, c=0.3, gamma_pred=0.5)  # needs |x_left| >= 106
    wide = build_grid(PARAMS, -160.0, 20.0, 361, 5)
    with pytest.raises(ExtentTooSmall):
        check_extents(wide, PARAMS, c=0.3, gamma_pred=0.1)  # needs x_right >= 80
    check_extents(wide, PARAMS, c=0.3, gamma_pred=0.5)
    check_extents(wide, PARAMS, c=0.3, gamma_pred=float("nan"))  # right check skipped


def test_pinned_default_path_speeds(full_path, refined_wentzell_states):
    # regression values at the default 961 x 41 grid on [-160, 80]
    assert full_path["stage_a"].state.c == pytest.approx(0.294006370441180, abs=1e-9)
    assert full_path["stage_c"].state.c == pytest.approx(0.292337339704275, abs=1e-9)
    # grid-converged to three digits: one refinement moves c by < 5e-6
    c1, c2, _ = (s.c for s in refined_wentzell_states["states"])
    assert abs(c1 - c2) < 5e-6


def test_default_path_eliminates_the_tail_at_every_factorization(full_path):
    # the records' (stage, parameter) as path.csv writes them, every step grown
    # 9 times; every Newton factorization of the 961 x 41 run, one per step,
    # eliminates all its equal block rows, 611 to 624 as the front moves, by
    # cyclic reduction. The s = 0 start factors once on 961 x 3 (m = 3 <
    # TAIL_MIN_WIDTH, so no tail), and its broadcast row needs no
    # factorization on 961 x 41. Each step of stages A and C first solves twice
    # on the coarse level 481 x 5 (m = 5, or 6 with the line; no tail), with one
    # factorization each but for stage A's last u_H(trial), which refactors once
    rows = [(r.stage, f"{r.parameter:.17g}") for r in full_path["records"]]
    assert rows == [("A", "0"), ("A", "0.10000000000000001"), ("A", "1"),
                    ("B", "0.050000000000000003"), ("C", "0.15000000000000002"), ("C", "1")]
    fine = [(m, K) for columns, m, K in full_path["tails"] if columns == 961]
    assert fine == [(3, 0), (41, 624), (41, 611), (42, 611), (42, 611), (42, 613)]
    coarse = [(m, K) for columns, m, K in full_path["tails"] if columns != 961]
    assert coarse == [(5, 0)] * 5 + [(6, 0)] * 4
    assert continuation.COARSE_ROWS + 1 < solver.TAIL_MIN_WIDTH
    order = [columns for columns, _, _ in full_path["tails"]]
    assert order == [961, 481, 481, 961, 481, 481, 481, 961, 961] + [481, 481, 961] * 2


def test_handoff_correction_budget(full_path):
    # the first-order predictor lands within a small Newton budget
    grid, params, spec = full_path["grid"], full_path["params"], full_path["spec"]
    from stripwave import handoff_to_system, newton_solve
    pred = handoff_to_system(full_path["stage_a"].state, 0.05, params, grid)
    res = newton_solve(pred, params, spec, grid, full_path["newton"])
    assert res.iterations <= 6


def test_exchange_zero_march_is_single_record(full_path):
    start = next(r for r in full_path["records"] if r.stage == "B")
    assert start.state is full_path["b_result"].state
    end = continue_exchange(start, full_path["params"], full_path["spec"], full_path["grid"],
                            full_path["newton"], target_eps=start.parameter, sink=refuse)
    assert end is start
    assert end.parameter == full_path["b_result"].state.family.parameter


# --- the start at s = 0 ---------------------------------------------------------

START_SCENARIOS = {
    "default": (PARAMS, CUBIC),
    "theta_0.05": (PARAMS, NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.05)),
    "oracle_0.25": (PARAMS, NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE,
                                             theta=0.25)),
    "mu_0.2": (dataclasses.replace(PARAMS, mu=0.2), CUBIC),
    "L_0.25": (dataclasses.replace(PARAMS, L=0.25), CUBIC),
    "L_4": (dataclasses.replace(PARAMS, L=4.0), CUBIC),
    "d_2": (dataclasses.replace(PARAMS, d=2.0), CUBIC),
}
START_GRIDS = [(961, 41), (481, 11)]


@functools.cache
def fronts(d, spec):
    """The shooting oracle's front and the run's guess, at the CLI's tolerance."""
    return solve_1d_ignition_shooting(d, spec, tol=1e-9), one_dim_guess(d, spec, tol=1e-9)


@pytest.mark.parametrize("nx, ny", START_GRIDS, ids=[f"{nx}x{ny}" for nx, ny in START_GRIDS])
@pytest.mark.parametrize("name", START_SCENARIOS)
def test_one_dim_start_equals_the_full_grid_correction(name, nx, ny):
    # at s = 0 the y-uniform embedding of the discrete 1-D wave solves the
    # strip problem, so the correction on three rows, broadcast, is the
    # correction of the guess's own embedding on the full grid
    params, spec = START_SCENARIOS[name]
    grid, opts = build_grid(params, -160.0, 80.0, nx, ny), NewtonOptions()
    oracle, guess = fronts(params.d, spec)
    full = newton_solve(embed_one_dim_wave(guess, grid, spec), params, spec, grid, opts).state
    start = one_dim_start(guess, params, spec, grid, opts)
    assert abs(start.state.c - full.c) <= 1e-12 * full.c
    assert np.abs(start.state.psi - full.psi).max() <= 1e-12
    # the oracle's embedding, corrected on the full grid, stops elsewhere within
    # Newton's tolerance: each endpoint leaves a residual of at most tol_residual,
    # which put it within 7.7 tol_residual (in c, relative, and in psi) of a
    # solve continued to 1e-12 (theta = 0.05 on 481 x 11, the widest of these
    # cases), so the two endpoints lie within twice that of each other
    bound = 20.0 * opts.tol_residual
    corrected = newton_solve(embed_one_dim_wave(oracle, grid, spec), params, spec, grid,
                             opts).state
    assert abs(start.state.c - corrected.c) <= bound * corrected.c
    assert np.abs(start.state.psi - corrected.psi).max() <= bound
    assert start.state.family == HomotopyFamily.wentzell(0.0)
    # it carries the full grid's residual, within the Newton tolerance
    norm = float(np.abs(assemble_residual(start.state, params, spec, grid)).max())
    assert start.residual_norm == norm <= opts.tol_residual
    # D drops out at s = 0: the start a sweep's points share is the same bits
    other = one_dim_start(guess, dataclasses.replace(params, D=2.0 * params.D), spec, grid,
                          opts)
    assert other.state.c == start.state.c and other.residual_norm == start.residual_norm
    assert other.state.psi.tobytes() == start.state.psi.tobytes()


@pytest.mark.parametrize("nx, ny", START_GRIDS, ids=[f"{nx}x{ny}" for nx, ny in START_GRIDS])
def test_both_starts_refuse_a_negative_speed(nx, ny):
    spec = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.9)
    grid, opts = build_grid(PARAMS, -160.0, 80.0, nx, ny), NewtonOptions()
    oracle, guess = fronts(PARAMS.d, spec)
    with pytest.raises(NegativeSpeed):
        newton_solve(embed_one_dim_wave(oracle, grid, spec), PARAMS, spec, grid, opts)
    with pytest.raises(NegativeSpeed):
        one_dim_start(guess, PARAMS, spec, grid, opts)


def test_one_dim_start_corrects_an_unconverged_broadcast(monkeypatch):
    # when the narrow solution, broadcast, is not a solution on the full grid
    # (here it is perturbed by 1e-6), Newton on the full grid corrects it
    params, spec = START_SCENARIOS["default"]
    grid, opts = build_grid(params, -160.0, 80.0, 481, 11), NewtonOptions()
    _, guess = fronts(params.d, spec)
    start = one_dim_start(guess, params, spec, grid, opts)
    solve = continuation.newton_solve

    def perturbed(init, params, spec, on, opts, **kwargs):
        result = solve(init, params, spec, on, opts, **kwargs)
        if on.ny == 3:
            result.state.psi[:, 1:-1] += 1e-6
        return result

    monkeypatch.setattr(continuation, "newton_solve", perturbed)
    off = one_dim_start(guess, params, spec, grid, opts)
    assert start.iterations == 0 and off.iterations > 0
    assert off.residual_norm <= opts.tol_residual
    assert abs(off.state.c - start.state.c) <= 1e-9 * start.state.c


# --- the two-grid predictor -------------------------------------------------------

# (nx, ny, x_left, x_right): the coarse level's (nx, ny), or None
COARSE_LEVELS = {
    "961x41": (961, 41, -160.0, 80.0, (481, 5)),
    "241x21": (241, 21, -160.0, 80.0, (121, 5)),
    "481x11": (481, 11, -160.0, 80.0, (241, 3)),  # fewer than 21 rows: 3
    "961x11": (961, 11, -160.0, 80.0, (481, 3)),
    "961x5": (961, 5, -160.0, 80.0, (481, 3)),
    "961x31": (961, 31, -160.0, 80.0, (481, 3)),  # 5 rows do not nest: 30 % 4 != 0
    "961x3": (961, 3, -160.0, 80.0, None),  # too few rows
    "even_nx": (960, 41, -160.0, 79.75, None),  # the columns do not nest
    "odd_anchor": (963, 41, -160.25, 80.25, None),  # anchor column 641 is no coarse node
}


@pytest.mark.parametrize("name", COARSE_LEVELS)
def test_coarse_level(name):
    nx, ny, x_left, x_right, expected = COARSE_LEVELS[name]
    grid = build_grid(PARAMS, x_left, x_right, nx, ny)
    coarse = continuation.coarse_level(grid)
    if expected is None:
        assert coarse is None
        return
    assert (coarse.nx, coarse.ny) == expected
    assert (coarse.x_left, coarse.x_right, coarse.L) == (grid.x_left, grid.x_right, grid.L)
    # the anchor is a node of both grids, in the same place
    assert 2 * coarse.anchor_ix == grid.anchor_ix and coarse.y[coarse.anchor_iy] == -PARAMS.L / 2


def test_prolongation_is_bilinear_and_injection_undoes_it():
    # on a 5-row and a 3-row coarse level; the line field phi is prolonged
    # linearly in x alone
    for ny in (21, 11):
        fine = build_grid(PARAMS, -160.0, 80.0, 241, ny)
        coarse = continuation.coarse_level(fine)

        def bilinear(grid):
            return (0.3 + np.add.outer(2.0 * grid.y, 0.01 * grid.x)
                    + np.outer(grid.y, 0.05 * grid.x))

        prolonged = continuation._prolong(bilinear(coarse), fine.ny)
        assert np.abs(prolonged - bilinear(fine)).max() <= 1e-12
        assert np.array_equal(prolonged[::(ny - 1) // (coarse.ny - 1), ::2], bilinear(coarse))
        line = continuation._prolong_x(0.3 + 0.01 * coarse.x)
        assert np.abs(line - (0.3 + 0.01 * fine.x)).max() <= 1e-12
        assert np.array_equal(line[::2], 0.3 + 0.01 * coarse.x)


@pytest.fixture(scope="module")
def two_grid_setup():
    """The s = 0 start record on 241 x 21, the fewest rows with a coarse level."""
    grid = build_grid(PARAMS, -160.0, 80.0, 241, 21)
    start = one_dim_start(fronts(PARAMS.d, CUBIC)[1], PARAMS, CUBIC, grid, NewtonOptions())
    return grid, make_record("A", start.state, start.residual_norm, PARAMS, CUBIC, grid,
                             step=0.1)


@pytest.fixture(scope="module")
def two_grid_exchange_start(two_grid_setup):
    """The stage B record on 241 x 21: exchange(0.05), initial step 0.1."""
    grid, start = two_grid_setup
    end = continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), 1.0)
    result = newton_solve(handoff_to_system(end.state, 0.05, PARAMS, grid), PARAMS, CUBIC,
                          grid, NewtonOptions())
    return make_record("B", result.state, result.residual_norm, PARAMS, CUBIC, grid, step=0.1)


def march_records(grid, start, target=1.0):
    march = continue_wentzell if start.family.is_wentzell else continue_exchange
    records = []
    march(start, PARAMS, CUBIC, grid, NewtonOptions(), target, sink=records.append)
    return records


def record_bits(records):
    return [(r.state.psi.tobytes(), b"" if r.state.phi is None else r.state.phi.tobytes(),
             np.float64([r.parameter, r.c, r.step]).tobytes()) for r in records]


# the predictor's part of each accepted step's log line, by march
TWO_GRID_LINES = {
    "wentzell": ["two-grid predictor, 7 iterations and 2 factorizations on 121 x 5",
                 "two-grid predictor, 6 iterations and 3 factorizations on 121 x 5"],
    "exchange": ["two-grid predictor, 4 iterations and 2 factorizations on 121 x 5",
                 "two-grid predictor, 5 iterations and 2 factorizations on 121 x 5"],
}


def test_the_two_grid_predictor_changes_only_newtons_start(two_grid_setup,
                                                           two_grid_exchange_start, monkeypatch,
                                                           caplog):
    # in either march each trial's fine Newton starts closer than from its
    # record's state: fewer iterations, the same steps, and every record within
    # Newton's tolerance of the march without a coarse level
    grid, wentzell_start = two_grid_setup
    for family, start in [("wentzell", wentzell_start), ("exchange", two_grid_exchange_start)]:
        solve, fine_iterations = continuation.newton_solve, {"two-grid": 0, "record": 0}

        def counting(side):
            def counted(init, params, spec, on, opts, **kwargs):
                result = solve(init, params, spec, on, opts, **kwargs)
                fine_iterations[side] += result.iterations if on == grid else 0
                return result
            return counted

        monkeypatch.setattr(continuation, "newton_solve", counting("two-grid"))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="stripwave.continuation"):
            two_grid = march_records(grid, start)
        assert [line.partition("; ")[2].partition(")")[0] for line in caplog.messages] == \
            TWO_GRID_LINES[family]
        monkeypatch.setattr(continuation, "coarse_level", lambda grid: None)
        monkeypatch.setattr(continuation, "newton_solve", counting("record"))
        plain = march_records(grid, start)
        assert fine_iterations["two-grid"] < fine_iterations["record"], family
        assert [r.parameter for r in two_grid] == [r.parameter for r in plain] == [
            start.parameter + 0.1, 1.0]
        for ours, theirs in zip(two_grid, plain):
            assert abs(ours.c - theirs.c) <= 1e-9 * theirs.c
            assert np.abs(ours.state.psi - theirs.state.psi).max() <= 1e-8
            if family == "exchange":
                assert np.abs(ours.state.phi - theirs.state.phi).max() <= 1e-8
        # the predictor is a function of the record: a march resumed from any
        # record takes the rest of the march's steps bit for bit
        monkeypatch.undo()
        for k, record in enumerate(two_grid):
            assert record_bits(march_records(grid, record)) == record_bits(two_grid[k + 1:])


@pytest.mark.parametrize("tol", [1e-10, 1e-5])
@pytest.mark.parametrize("family", ["wentzell", "exchange"])
def test_only_the_coarse_solves_stop_at_the_predictor_tolerance(two_grid_setup,
                                                                two_grid_exchange_start,
                                                                monkeypatch, family, tol):
    # the coarse level's solves take the march's options with tol_residual raised
    # to max(tol_residual, COARSE_TOL), and nothing else changed; the grid's
    # solves take them as given, so every record keeps the march's tolerance
    grid, start = two_grid_setup
    if family == "exchange":
        start = two_grid_exchange_start
    opts = NewtonOptions(tol_residual=tol, max_iters=40, damping=0.4, min_step=1e-9)
    solve, calls = continuation.newton_solve, {"fine": [], "coarse": []}

    def spied(init, params, spec, on, given, **kwargs):
        calls["fine" if on == grid else "coarse"].append(given)
        return solve(init, params, spec, on, given, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", spied)
    records = []
    march = continue_wentzell if family == "wentzell" else continue_exchange
    march(start, PARAMS, CUBIC, grid, opts, 1.0, sink=records.append)
    loosened = dataclasses.replace(opts, tol_residual=max(tol, continuation.COARSE_TOL))
    assert (loosened == opts) == (tol >= continuation.COARSE_TOL)
    assert calls["coarse"] == [loosened] * 4 and calls["fine"] == [opts] * 2
    assert len(records) == 2
    assert all(r.residual_norm <= opts.tol_residual for r in records)


@pytest.mark.parametrize("failing", ["record", "trial"])
def test_a_failed_coarse_solve_falls_back_to_the_records_state(two_grid_setup,
                                                               two_grid_exchange_start,
                                                               monkeypatch, caplog, failing):
    # an exchange coarse solve that raises leaves each trial to start from its
    # record's state: the march certifies every record, with the bits of the march
    # without a coarse level, and the log names each fallback. The first trial's
    # record fails a certificate, so its retry predicts again from the record with
    # half the step. "record": u_H(s) fails, attempted once per trial; "trial":
    # u_H(trial) fails
    grid, _ = two_grid_setup
    start = two_grid_exchange_start
    monkeypatch.setattr(continuation, "coarse_level", lambda grid: None)
    reject_the_first_record(monkeypatch)
    plain = record_bits(march_records(grid, start))
    monkeypatch.undo()
    solve, coarse_calls = continuation.newton_solve, []

    def failing_coarse(init, params, spec, on, opts, **kwargs):
        if on != grid:
            coarse_calls.append(init.family.parameter)
            # with u_H(s) failing no u_H(trial) is solved, else the two alternate
            if failing == "record" or len(coarse_calls) % 2 == 0:
                raise MaxItersExceeded("residual 1.000e+00 after 50 iterations")
        return solve(init, params, spec, on, opts, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", failing_coarse)
    reject_the_first_record(monkeypatch)
    with caplog.at_level(logging.INFO, logger="stripwave.continuation"):
        records = march_records(grid, start)
    assert record_bits(records) == plain
    assert not any(r.diagnostics.failed for r in records)
    # the rejected trial at 0.15, its retry at 0.1, then 0.55 and 1
    assert [r.parameter for r in records] == [0.1, 0.55, 1.0]
    assert coarse_calls == ([0.05, 0.05, 0.1, 0.55] if failing == "record"
                            else [0.05, 0.15000000000000002, 0.05, 0.1, 0.1, 0.55, 0.55, 1.0])
    fallbacks = [line for line in caplog.messages if "failed" in line]
    assert fallbacks == ["two-grid predictor failed on 121 x 5 (residual 1.000e+00 after 50 "
                         "iterations); the record's state"] * 4
    assert [line.partition("; ")[2] for line in caplog.messages if "failed" not in line] == [
        "retrying with step 0.05", "the record's state); next step 0.45",
        "the record's state); next step 4.05", "the record's state); next step 36.45"]


def test_a_retry_is_a_trial_from_the_halved_step_record(two_grid_setup, monkeypatch):
    # the first trial's record fails a certificate, which leaves the start record
    # with half its step: the march makes the records of a march from that record,
    # bit for bit, its retry solves u_H(s) again, and no record with the halved
    # step reaches the sink or ends the march
    grid, start = two_grid_setup
    halved = dataclasses.replace(start, step=start.step / 2)
    expected = record_bits(march_records(grid, halved, target=0.1))
    solve, coarse_calls, records = continuation.newton_solve, [], []

    def tracked(init, params, spec, on, opts, **kwargs):
        if on != grid:
            coarse_calls.append(init.family.parameter)
        return solve(init, params, spec, on, opts, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", tracked)
    reject_the_first_record(monkeypatch)
    end = continue_wentzell(start, PARAMS, CUBIC, grid, NewtonOptions(), 0.1,
                            sink=records.append)
    assert record_bits(records) == expected
    assert [r.parameter for r in records] == [0.05, 0.1]
    # u_H(s) and u_H(trial) of the rejected trial, of its retry, and of the next trial
    assert coarse_calls == [0.0, 0.1, 0.0, 0.05, 0.05, 0.1]
    assert end is records[-1] and start.step == 0.1
    assert halved.step not in [r.step for r in records]
