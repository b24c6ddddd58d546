import dataclasses

import numpy as np
import pytest

from stripwave import (HomotopyFamily, ModelParams, NewtonOptions,
                       NonlinearityKind, NonlinearitySpec, WaveState, build_grid,
                       continue_exchange, continue_wentzell, embed_one_dim_wave,
                       handoff_to_system, make_record, newton_solve,
                       solve_1d_ignition_shooting)
from stripwave.continuation import check_extents
from stripwave.errors import (ExtentTooSmall, ParameterNotMonotone, StepCollapse,
                              WrongFamily)

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
    assert all(r.diagnostics.all_ok for r in records)


def test_a_record_alone_resumes_the_march(coarse_setup):
    # a record carries the step and previous state the march continues with,
    # so a march from any record repeats the rest of the march bit for bit
    grid, _, start = coarse_setup

    def march(first):
        records = []
        continue_wentzell(first, PARAMS, CUBIC, grid, NewtonOptions(), target_s=1.0,
                          sink=records.append)
        return [(r.state.psi.tobytes(), np.float64([r.parameter, r.c, r.step]).tobytes())
                for r in records], records

    full, records = march(start)
    middle = len(records) // 2
    assert start.prev_state is None and records[middle].prev_state is not None
    assert march(start)[0] == full
    assert march(records[middle])[0] == full[middle + 1:]


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


def test_record_rejects_a_previous_state_not_behind_it(coarse_setup):
    # the secant predictor extrapolates from the previous state: it must lie
    # strictly behind the record, in the record's family
    _, _, start = coarse_setup
    psi = start.state.psi

    def at(family):
        return WaveState(c=start.c, psi=psi, phi=psi[-1].copy() if family.is_exchange else None,
                         family=family)

    record = dataclasses.replace(start, state=at(HomotopyFamily.wentzell(0.25)))
    assert dataclasses.replace(record, prev_state=start.state).prev_state is start.state
    for prev, message in [(HomotopyFamily.wentzell(0.25), "must lie below parameter 0.25"),
                          (HomotopyFamily.wentzell(0.9), "must lie below parameter 0.25"),
                          (HomotopyFamily.exchange(0.1), "must be of the wentzell family")]:
        with pytest.raises(ValueError, match=f"ContinuationRecord.prev_state {message}"):
            dataclasses.replace(record, prev_state=at(prev))


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
    # the records' (stage, parameter) as path.csv writes them, as before the
    # left tail was eliminated; every Newton factorization of the 961 x 41 run
    # eliminates 511 of its equal block rows by cyclic reduction
    rows = [(r.stage, f"{r.parameter:.17g}") for r in full_path["records"]]
    assert rows == [("A", "0"), ("A", "0.10000000000000001"), ("A", "0.25"),
                    ("A", "0.47500000000000003"), ("A", "0.8125"), ("A", "1"),
                    ("B", "0.050000000000000003"), ("C", "0.15000000000000002"),
                    ("C", "0.30000000000000004"), ("C", "0.52500000000000013"),
                    ("C", "0.86250000000000016"), ("C", "1")]
    assert full_path["tails"] == [511] * 12


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
