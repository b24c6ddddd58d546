#!/usr/bin/env python3
"""Time the parts of the band LU, and the residual and Jacobian assembly, on
the states of one scenario's run.

Usage: python scripts/lu_layer.py [--grid NXxNY] [--scenario NAME] [--rounds N]
                                  [--pairs P] [--against CHECKOUT]

A fresh interpreter that imports stripwave from a checkout's `src/` runs a
scenario of `scripts/scenario_scan.py` (`--scenario`, the default
configuration unless given) on the grid (`--grid`, 961 x 41 unless given)
and keeps every Jacobian Newton factors, by wrapping `solver.factorize`, and
every state whose residual or Jacobian Newton assembles, by wrapping
`solver.assemble_residual` and `solver.assemble_jacobian`.  Then, over
`--rounds` rounds, each round going through all of them in turn, it factors
each Jacobian and solves two random right-hand sides, with one BLAS thread
and, where the checkout has one, one `solver.band_workspace` for every
factorization, as a run does, and assembles each state's residual and
Jacobian once more.  The parts, in ms per Jacobian or per state:

  fill           the factorization less the three parts below: the band's
                 allocation, zero fill and slices, and |J|_inf
  tail           `cyclic_tail`, the cyclic reduction's levels
  dgbtrf         LAPACK's band factorization
  first solve    the first checked solve, with the band solve of w, wherever
                 it runs (inside the factorization at older checkouts)
  checked solve  a later checked solve
  residual       `assemble_residual` of one state Newton evaluates
  jacobian       `assemble_jacobian` of one state Newton factors at

Each line gives a part's median (quartiles) over the rounds for the
Jacobians or states of one shape, its columns x unknowns per column (a
Wentzell J has ny, an exchange J ny + 1).  A last line per shape gives the
pivot reach of `dgbtrf`, max(piv[j] - j) over one factorization: its median
and, in brackets, its largest over the shape's Jacobians.  With `--against
CHECKOUT` the two checkouts run in `--pairs` alternating pairs of
interpreters, and each line reads before (CHECKOUT) -> after (this
checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from scenario_scan import ROOT, scenarios, grid_size  # noqa: E402

PARTS = ("fill", "tail", "dgbtrf", "first solve", "checked solve", "residual", "jacobian")

CHILD = """
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from stripwave import cli, solver
captured, factorize = [], solver.factorize
def capture(J, *args, **kwargs):
    captured.append(J)
    return factorize(J, *args, **kwargs)
# the arguments of each assembly Newton runs, by part
assembled = {part: [] for part in ("residual", "jacobian")}
assemble = {part: getattr(solver, "assemble_" + part) for part in assembled}
def keep(part):
    def call(*args):
        assembled[part].append(args)
        return assemble[part](*args)
    return call
solver.factorize = capture
for part in assembled:
    setattr(solver, "assemble_" + part, keep(part))
if cli.main(["run", sys.argv[2]]) != 0:
    raise SystemExit("the run failed")
solver.factorize = factorize
for part in assembled:
    setattr(solver, "assemble_" + part, assemble[part])
spent, inside, pivots = {"tail": 0.0, "dgbtrf": 0.0, "w": 0.0}, [], []
# a band solve counts as w's only inside a factorization, where older checkouts solve w
def timed(part, fn):
    def call(*args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        if part != "w" or inside:
            spent[part] += time.perf_counter() - t
        if part == "dgbtrf":
            pivots.append(out[1])
        return out
    return call
solver.cyclic_tail = timed("tail", solver.cyclic_tail)
solver.lapack.dgbtrf = timed("dgbtrf", solver.lapack.dgbtrf)
solver.BorderedBandLU._band_solve = timed("w", solver.BorderedBandLU._band_solve)
kw = {}
if hasattr(solver, "band_workspace"):
    kw["work"] = solver.band_workspace(cli.load_config(sys.argv[2]).grid)
rng = np.random.default_rng(0)
rhs = [rng.standard_normal((2, J.shape[0])) for J in captured]
samples = {}
for _ in range(int(sys.argv[3])):
    for J, (first, later) in zip(captured, rhs):
        spent.update(tail=0.0, dgbtrf=0.0, w=0.0)
        inside.append(1)
        t0 = time.perf_counter()
        lu = solver.factorize(J, **kw)
        t1 = time.perf_counter()
        inside.clear()
        lu.solve(first)
        t2 = time.perf_counter()
        lu.solve(later)
        t3 = time.perf_counter()
        parts = {"fill": t1 - t0 - spent["tail"] - spent["dgbtrf"] - spent["w"],
                 "tail": spent["tail"], "dgbtrf": spent["dgbtrf"],
                 "first solve": t2 - t1 + spent["w"], "checked solve": t3 - t2}
        shape = samples.setdefault(f"{J.b.size // J.m} x {J.m}", {})
        for part, value in parts.items():
            shape.setdefault(part, []).append(1e3 * value)
        piv = pivots.pop()
        shape.setdefault("pivot reach", []).append(int((piv - np.arange(piv.size)).max()))
    for part, calls in assembled.items():
        for state, *rest in calls:
            t0 = time.perf_counter()
            assemble[part](state, *rest)
            t1 = time.perf_counter()
            ny, nx = state.psi.shape
            shape = samples.setdefault(f"{nx} x {ny + (state.phi is not None)}", {})
            shape.setdefault(part, []).append(1e3 * (t1 - t0))
print(json.dumps(samples))
"""


def measure(checkout: Path, cfg: dict, rounds: int, work: Path) -> dict:
    """{shape: {part or "pivot reach": samples}} from one interpreter on
    `checkout`."""
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(dict(cfg, output_dir=str(work / "out"))))
    env = {key: value for key, value in os.environ.items() if key != "WAVE_OUT"}
    env.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), str(cfg_path),
                           str(rounds)], capture_output=True, text=True, env=env, timeout=1200)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the measurement failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> str:
    """The median (quartiles) of `values`."""
    if len(values) < 2:
        return f"{values[0]:.2f}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.2f} ({q1:.2f}-{q3:.2f})"


def reach(values: list[int]) -> str:
    """The median [largest] of pivot reaches."""
    return f"{statistics.median(values):g} [{max(values)}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=grid_size, default=(961, 41),
                        help="the grid's nodes as NXxNY (default 961x41)")
    parser.add_argument("--scenario", default="default",
                        help="a scenario of scripts/scenario_scan.py (default: default)")
    parser.add_argument("--rounds", type=int, default=10, help="rounds per interpreter")
    parser.add_argument("--pairs", type=int, default=3,
                        help="interpreters per checkout, alternating with --against")
    parser.add_argument("--against", type=Path, help="a second checkout, the before side")
    args = parser.parse_args(argv)
    table = scenarios(args.grid)
    if args.scenario not in table:
        parser.error(f"unknown scenario {args.scenario!r}; known: {', '.join(table)}")
    cfg = table[args.scenario]
    sides = [ROOT] if args.against is None else [args.against.resolve(), ROOT]
    pooled: list[dict] = [{} for _ in sides]
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            for side, checkout in enumerate(sides):
                got = measure(checkout, cfg, args.rounds, Path(tmp) / f"{pair}-{side}")
                for shape, parts in got.items():
                    for part, values in parts.items():
                        pooled[side].setdefault(shape, {}).setdefault(part, []).extend(values)
    shapes = sorted(pooled[-1], key=lambda key: [-int(n) for n in key.split(" x ")])
    for shape in shapes:
        for part, show, unit in [(part, summary, "ms") for part in PARTS] + [
                ("pivot reach", reach, "rows")]:
            cells = [show(side[shape][part]) for side in pooled if part in side.get(shape, {})]
            if cells:
                print(f"{shape:10} {part:14} {' -> '.join(cells)} {unit}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
