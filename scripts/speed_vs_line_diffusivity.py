#!/usr/bin/env python3
"""Front speed as a function of the line diffusivity D.

Runs one independent continuation per D value (there is no continuation
in D itself) and tabulates the endpoint speeds: the Neumann strip speed
c0, the Wentzell speed c_w at s = 1, and the coupled-system speed at
eps = 1.  Output is a plot-ready CSV.

Usage: python scripts/speed_vs_line_diffusivity.py [out.csv] [D values...]
"""

import sys

from stripwave import (ContinuationOptions, ModelParams, NewtonOptions, NonlinearityKind,
                       NonlinearitySpec, build_grid, continue_exchange, continue_wentzell,
                       embed_one_dim_wave, handoff_to_system, make_record, newton_solve,
                       solve_1d_ignition_shooting)

out_path = sys.argv[1] if len(sys.argv) > 1 else "speed_vs_D.csv"
d_values = [float(v) for v in sys.argv[2:]] or [1.0, 2.0, 4.0, 8.0]

spec = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)
newton = NewtonOptions()
options = ContinuationOptions()
wave = solve_1d_ignition_shooting(1.0, spec, tol=1e-9)

rows = []
for D in d_values:
    params = ModelParams(d=1.0, D=D, mu=1.0, L=1.0)
    # left extent scales with the slowest expected decay rate c0 / max(d, D)
    x_left = -(8.0 * max(params.d, params.D) / wave.c + 40.0)
    x_left = -round(-x_left / 0.25) * 0.25
    grid = build_grid(params, x_left, 80.0, int(round((80.0 - x_left) / 0.25)) + 1, 41)
    corrected = newton_solve(embed_one_dim_wave(wave, grid, spec), params, spec, grid, newton)
    start = make_record("A", corrected.state, corrected.residual_norm, params, spec, grid)
    end_a = continue_wentzell(start, params, spec, grid, newton, target_s=1.0, opts=options)
    handed = newton_solve(handoff_to_system(end_a.state, options.epsilon0, params, grid),
                          params, spec, grid, newton)
    start = make_record("B", handed.state, handed.residual_norm, params, spec, grid)
    end_c = continue_exchange(start, params, spec, grid, newton, target_eps=1.0, opts=options)
    rows.append((D, corrected.state.c, end_a.c, end_c.c))
    print(f"D = {D:g}: c0 = {rows[-1][1]:.8f}  c_w = {rows[-1][2]:.8f}  "
          f"c_sys = {rows[-1][3]:.8f}")

with open(out_path, "w") as fh:
    fh.write("D,c_neumann,c_wentzell,c_system\n")
    for row in rows:
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
print(f"wrote {out_path}")
