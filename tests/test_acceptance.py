"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them).

Shares one full A -> B -> C run at desk resolution (conftest.full_path)
and a grid-refinement ladder at the Wentzell endpoint.
"""

import json
import math

import numpy as np
import pytest

from stripwave import (DispersionQuery, ModelParams, NewtonOptions, NonlinearityKind,
                       NonlinearitySpec, WaveState, build_grid, c_max, continue_wentzell,
                       dispersion_root, embed_one_dim_wave, handoff_to_system, make_record,
                       newton_solve, solve_1d_ignition_shooting, speed_identity,
                       supersolution_rate)
from stripwave.cli import EXIT_OK, EXIT_VALIDATION, default_config_dict, main

from conftest import DEFAULT_PARAMS, DEFAULT_SPEC


def test_criterion_01_one_dim_closed_form_speeds():
    for theta, expected in ((0.25, 1.5), (0.04, 4.8)):
        spec = NonlinearitySpec(kind=NonlinearityKind.PIECEWISE_LINEAR_ORACLE, theta=theta)
        wave = solve_1d_ignition_shooting(1.0, spec, tol=1e-8)
        assert abs(wave.c - expected) <= 1e-6, (theta, wave.c)
    print("ACCEPTANCE 01 PASS - shooting speeds match (1-theta)/sqrt(theta) to 1e-6")


def test_criterion_02_neumann_strip_consistency(one_dim_cubic):
    grid = build_grid(DEFAULT_PARAMS, -40.0, 40.0, 1601, 5)
    init = embed_one_dim_wave(one_dim_cubic, grid, DEFAULT_SPEC)
    result = newton_solve(init, DEFAULT_PARAMS, DEFAULT_SPEC, grid, NewtonOptions())
    rel = abs(result.state.c - one_dim_cubic.c) / one_dim_cubic.c
    spread = float(np.abs(result.state.psi - result.state.psi[0, :]).max())
    assert rel < 1e-3
    assert spread < 1e-8
    print(f"ACCEPTANCE 02 PASS - strip speed at s=0 within {rel:.2e} of the 1-D front, "
          f"y-variation {spread:.2e}")


def test_criterion_03_speed_identity(full_path, refined_wentzell_states):
    worst = 0.0
    for rec in full_path["records"]:
        worst = max(worst, rec.diagnostics.speed_identity_gap)
        assert rec.diagnostics.speed_identity_gap < 1e-2
    (g1, g2, _), (s1, s2, _) = refined_wentzell_states["grids"], refined_wentzell_states["states"]
    gap1 = abs(speed_identity(s1, DEFAULT_PARAMS, DEFAULT_SPEC, g1) - s1.c) / s1.c
    gap2 = abs(speed_identity(s2, DEFAULT_PARAMS, DEFAULT_SPEC, g2) - s2.c) / s2.c
    order = math.log2(gap1 / gap2)
    assert order >= 1.5
    print(f"ACCEPTANCE 03 PASS - worst identity gap {worst:.2e} (< 1e-2), "
          f"refinement order {order:.2f} (>= 1.5)")


def test_criterion_04_a_priori_invariants(full_path):
    bound = c_max(DEFAULT_PARAMS, DEFAULT_SPEC)
    for rec in full_path["records"]:
        d = rec.diagnostics
        assert d.bounds_ok, rec.family
        assert d.monotone_ok, rec.family
        assert d.sandwich_ok, rec.family
        assert 0.0 < rec.c < bound
    print(f"ACCEPTANCE 04 PASS - bounds/monotonicity/sandwich and 0 < c < {bound:.4f} "
          f"hold at all {len(full_path['records'])} records")


def test_criterion_05_uniqueness_up_to_translation(full_path):
    base_grid = full_path["grid"]
    base_state = full_path["stage_a"].state
    wide_grid = build_grid(DEFAULT_PARAMS, -164.0, 84.0, 993, 41)
    init = embed_one_dim_wave(full_path["one_dim"], wide_grid, DEFAULT_SPEC)
    # different initial translate: roll the front 8 nodes to the right
    shift_nodes = 8
    rolled = np.empty_like(init.psi)
    rolled[:, shift_nodes:] = init.psi[:, :-shift_nodes]
    rolled[:, :shift_nodes] = 0.0
    init = WaveState(c=init.c, psi=rolled, phi=None, family=init.family)
    corrected = newton_solve(init, DEFAULT_PARAMS, DEFAULT_SPEC, wide_grid, NewtonOptions())
    start = make_record("A", corrected.state, corrected.residual_norm, DEFAULT_PARAMS,
                        DEFAULT_SPEC, wide_grid)
    other = continue_wentzell(start, DEFAULT_PARAMS, DEFAULT_SPEC, wide_grid, NewtonOptions(),
                              target_s=1.0).state
    rel_c = abs(other.c - base_state.c) / base_state.c
    assert rel_c <= 1e-6
    # the wide grid's nodes contain the base grid's nodes (same spacing class); the phase
    # condition pins both waves at the anchor node, so they are compared with no shift
    offset = int(round((base_grid.x_left - wide_grid.x_left) / wide_grid.hx))
    dist = float(np.abs(other.psi[:, offset:offset + base_grid.nx] - base_state.psi).max())
    assert dist <= 1e-4
    print(f"ACCEPTANCE 05 PASS - speeds agree to {rel_c:.2e}, profiles to {dist:.2e} "
          "node by node")


def test_criterion_06_handoff_first_order(full_path):
    params, spec, grid = full_path["params"], full_path["spec"], full_path["grid"]
    wentzell_end = full_path["stage_a"].state

    def corrected_gap(eps):
        predictor = handoff_to_system(wentzell_end, eps, params, grid)
        res = newton_solve(predictor, params, spec, grid, full_path["newton"])
        assert res.iterations <= 6  # pinned correction budget for the first-order predictor
        gap = float(np.abs(params.mu * res.state.phi - res.state.psi[-1, :]).max())
        return res.state.c, gap

    c_half, g_half = corrected_gap(0.05)
    c_quarter, g_quarter = corrected_gap(0.025)
    ratio = g_quarter / g_half
    assert 0.35 <= ratio <= 0.65
    dc_half = c_half - wentzell_end.c
    dc_quarter = c_quarter - wentzell_end.c
    if abs(dc_half) > 1e-10:
        c_ratio = abs(dc_quarter) / abs(dc_half)
        assert 0.3 <= c_ratio <= 0.7
    print(f"ACCEPTANCE 06 PASS - exchange gap ratio {ratio:.3f} in [0.35, 0.65], "
          f"speed offsets {dc_half:+.2e} -> {dc_quarter:+.2e}")


def test_criterion_07_decay_rates(full_path):
    end_a = full_path["stage_a"].diagnostics
    end_c = full_path["stage_c"].diagnostics
    for name, end in (("s=1", full_path["stage_a"]), ("eps=1", full_path["stage_c"])):
        diag = end.diagnostics
        rel = abs(diag.gamma_fit - diag.gamma_pred) / diag.gamma_pred
        assert rel <= 0.1, (name, diag.gamma_fit, diag.gamma_pred)
        # fitted decay must also beat the guaranteed halved-linearization bound
        query = DispersionQuery(c=end.state.c, params=DEFAULT_PARAMS,
                                family_kind=end.state.family.kind,
                                parameter=end.state.family.parameter,
                                fprime1=DEFAULT_SPEC.fprime_at_one)
        assert diag.gamma_fit > supersolution_rate(query).gamma
    for rec in full_path["records"]:
        assert rec.diagnostics.left_decay_ok, rec.family
    c_w = full_path["stage_a"].state.c
    qw = DispersionQuery(c=c_w, params=DEFAULT_PARAMS, family_kind="wentzell",
                         parameter=1.0, fprime1=DEFAULT_SPEC.fprime_at_one)
    qe = DispersionQuery(c=c_w, params=DEFAULT_PARAMS, family_kind="exchange",
                         parameter=0.0, fprime1=DEFAULT_SPEC.fprime_at_one)
    identity_gap = abs(dispersion_root(qw).gamma - dispersion_root(qe).gamma)
    assert identity_gap <= 1e-12
    print(f"ACCEPTANCE 07 PASS - fitted/predicted decay rates within "
          f"{abs(end_a.gamma_fit - end_a.gamma_pred) / end_a.gamma_pred:.2%} (s=1) and "
          f"{abs(end_c.gamma_fit - end_c.gamma_pred) / end_c.gamma_pred:.2%} (eps=1); "
          f"limit identity gap {identity_gap:.1e}")


def test_criterion_08_grid_convergence(refined_wentzell_states):
    c1, c2, c3 = (s.c for s in refined_wentzell_states["states"])
    order = math.log2(abs(c1 - c2) / abs(c2 - c3))
    assert 1.5 <= order <= 2.5
    print(f"ACCEPTANCE 08 PASS - observed convergence order of c is {order:.2f}")


def test_criterion_09_jacobian_consistency():
    from stripwave import (HomotopyFamily, assemble_jacobian, assemble_residual,
                           state_to_vector, vector_to_state)
    grid = build_grid(DEFAULT_PARAMS, -2.0, 1.0, 22, 9)
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst = 0.0
    for family in (HomotopyFamily.wentzell(0.6), HomotopyFamily.exchange(0.3)):
        for _ in range(20):
            psi = rng.uniform(0.0, 1.0, size=(grid.ny, grid.nx))
            phi = rng.uniform(0.0, 1.0, size=grid.nx) if family.is_exchange else None
            c = rng.uniform(0.1, 1.0)
            state = WaveState(c=c, psi=psi, phi=phi, family=family)
            u = state_to_vector(state, grid)
            v = rng.uniform(-1.0, 1.0, size=u.size)

            def res(vec):
                return assemble_residual(vector_to_state(vec, grid, family), DEFAULT_PARAMS,
                                         DEFAULT_SPEC, grid)

            jv = assemble_jacobian(state, DEFAULT_PARAMS, DEFAULT_SPEC, grid) @ v
            fd = (res(u + h * v) - res(u - h * v)) / (2.0 * h)
            rel = float(np.abs(fd - jv).max() / (1.0 + np.abs(jv).max()))
            worst = max(worst, rel)
            assert rel <= 1e-6
    print(f"ACCEPTANCE 09 PASS - Jacobian matches directional differences, worst "
          f"relative error {worst:.2e} over 40 random states")


def test_criterion_10_analysis_module():
    from stripwave import k0_line_mass, scan_symbol_zero_free
    mass = k0_line_mass()
    assert abs(mass - math.pi) <= 1e-6
    margin = scan_symbol_zero_free(DEFAULT_PARAMS, epsilon=0.0, c0=1.0, c1=0.0,
                                   xi_max=50.0, n=10_000)
    assert margin > 0.0
    print(f"ACCEPTANCE 10 PASS - K0 line mass = pi {mass - math.pi:+.1e}, "
          f"symbol scan margin {margin:.3f}")


def test_criterion_11_resume_determinism(tmp_path):
    cfg = default_config_dict(str(tmp_path / "out"))
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 481, "ny": 11}
    cfg["checkpoint_every"] = 3
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    assert main(["run", str(cfg_path)]) == EXIT_OK

    rows = (tmp_path / "out" / "path.csv").read_text().strip().splitlines()[1:]
    ckpt = tmp_path / "out" / "ckpt_0003_A.json"
    assert ckpt.exists()

    cfg_resumed = dict(cfg, output_dir=str(tmp_path / "resumed"))
    resumed_path = tmp_path / "resumed.json"
    resumed_path.write_text(json.dumps(cfg_resumed, indent=1))
    # hash guard: other physics needs --force; output_dir is not hashed, so needs none
    edited = dict(cfg, output_dir=str(tmp_path / "edited"), params=dict(cfg["params"], D=8.0))
    edited_path = tmp_path / "edited.json"
    edited_path.write_text(json.dumps(edited, indent=1))
    assert main(["resume", str(ckpt), str(edited_path)]) == EXIT_VALIDATION
    assert main(["resume", str(ckpt), str(resumed_path)]) == EXIT_OK

    resumed_rows = (tmp_path / "resumed" / "path.csv").read_text().strip().splitlines()[1:]
    tail = rows[3:]
    assert len(resumed_rows) == len(tail)
    worst = 0.0
    for got, want in zip(resumed_rows, tail):
        g, w = got.split(","), want.split(",")
        assert g[0] == w[0] and g[1] == w[1]  # stage and parameter align
        worst = max(worst, abs(float(g[2]) - float(w[2])))
    assert worst <= 1e-12
    print(f"ACCEPTANCE 11 PASS - resumed speeds match the uninterrupted run to {worst:.1e}")
