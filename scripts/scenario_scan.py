#!/usr/bin/env python3
"""Run the 23-scenario scan on one grid, optionally against a second checkout.

Usage: python scripts/scenario_scan.py [--grid NXxNY] [--against CHECKOUT] [--keep DIR]
                                       [NAME ...]

The scenarios are the default configuration on the grid (`--grid`, 481 x 11
unless given, always over [-160, 80]) and one change each of D (0.25, 0.5,
1, 2, 8), theta (0.05, 0.1, 0.2, 0.4, 0.5, 0.6), mu (0.2, 0.5, 2, 5), L
(0.25, 0.5, 2, 4) and d (0.5, 2, 4); NAMEs pick some of them.  Each one is a
`wave run` in a fresh interpreter that imports stripwave from a checkout's
`src/`.  One line per scenario gives the exit code, the error type (`-` for
none), the `path.csv` rows, the Newton factorizations on the grid's columns
(the s = 0 start's three rows included) and on fewer columns (a Wentzell
march's coarse level), the Newton iterations of the s = 0 start's
correction on three rows (`-` when it raised) and the final `c` to 17
digits.

With `--against CHECKOUT` every scenario also runs on that checkout, and
every output file of the two runs is compared byte for byte, `summary.json`
without its `timings_s`, and so are the factorization and start iteration
counts; a line ends in `same` or in what differs, and the exit status is 1
when anything does.  When `path.csv` differs, the line ends in the largest
relative difference of `c` over the two files' rows, matched by (stage,
family_param), or in `rows differ` when the rows do not match.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one `wave run` with every Newton factorization counted, on the grid's
# columns or on fewer (J holds `m` unknowns per column), and the Newton
# iterations of its s = 0 start's correction on three rows, the run's first
# Newton solve (`continuation.one_dim_start`), recorded; prints all three
CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from stripwave import cli, continuation, solver
nx = json.loads(Path(sys.argv[2]).read_text())["grid"]["nx"]
count, coarse, start = 0, 0, []
factorize, newton_solve = solver.factorize, continuation.newton_solve
def counted(J, *args, **kwargs):
    global count, coarse
    if J.b.size // J.m < nx:
        coarse += 1
    else:
        count += 1
    return factorize(J, *args, **kwargs)
def recorded(*args, **kwargs):
    result = newton_solve(*args, **kwargs)
    start.append(result.iterations)
    return result
solver.factorize, continuation.newton_solve = counted, recorded
code = cli.main(["run", sys.argv[2]])
print(json.dumps({"exit": code, "factorizations": count, "coarse_factorizations": coarse,
                  "start_iterations": start[0] if start else "-"}))
"""

BASE = {
    "params": {"d": 1.0, "D": 4.0, "mu": 1.0, "L": 1.0},
    "nonlinearity": {"kind": "smooth_cubic", "theta": 0.3},
    "grid": {"x_left": -160.0, "x_right": 80.0, "nx": 481, "ny": 11},
    "newton": {"tol_residual": 1e-10, "max_iters": 50, "damping": 0.5, "min_step": 1e-8},
    "continuation": {"epsilon0": 0.05, "initial_step": 0.1, "min_step": 1e-4,
                     "target_stage": "C"},
    "shooting_tol": 1e-9,
    "output_dir": "out",
    "checkpoint_every": 5,
}
CHANGES = [("D", v) for v in (0.25, 0.5, 1.0, 2.0, 8.0)] + \
    [("theta", v) for v in (0.05, 0.1, 0.2, 0.4, 0.5, 0.6)] + \
    [("mu", v) for v in (0.2, 0.5, 2.0, 5.0)] + \
    [("L", v) for v in (0.25, 0.5, 2.0, 4.0)] + \
    [("d", v) for v in (0.5, 2.0, 4.0)]


def scenarios(grid: tuple[int, int] = (481, 11)) -> dict[str, dict]:
    """{name: config} on the grid (nx, ny), the default first."""
    base = json.loads(json.dumps(BASE))
    base["grid"].update(nx=grid[0], ny=grid[1])
    out = {"default": base}
    for field, value in CHANGES:
        cfg = json.loads(json.dumps(base))
        section = "nonlinearity" if field == "theta" else "params"
        cfg[section][field] = value
        out[f"{field}={value:g}"] = cfg
    return out


def run(checkout: Path, cfg: dict, work: Path) -> dict:
    """One scenario's `wave run` on `checkout`, its outputs in `work`/out."""
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(dict(cfg, output_dir=str(work / "out"))))
    env = {key: value for key, value in os.environ.items() if key != "WAVE_OUT"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), str(cfg_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode not in (0, 2, 3, 4):
        raise RuntimeError(f"{checkout}: scenario crashed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    out = work / "out"
    error = out / "error.json"
    result["error"] = json.loads(error.read_text())["error"] if error.exists() else "-"
    rows = (out / "path.csv").read_text().splitlines()[1:] if (out / "path.csv").exists() else []
    result["rows"] = len(rows)
    result["c"] = rows[-1].split(",")[2] if rows else "-"
    return result


def comparable(path: Path) -> bytes:
    """The bytes of an output file, a `summary.json` without its timings."""
    if path.name != "summary.json":
        return path.read_bytes()
    summary = json.loads(path.read_text())
    summary.pop("timings_s", None)
    return json.dumps(summary, sort_keys=True).encode()


def differing(ours: Path, theirs: Path) -> list[str]:
    """The names of the files that exist in only one directory or differ."""
    names = {p.name for side in (ours, theirs) if side.exists() for p in side.iterdir()}
    return sorted(name for name in names
                  if not ((ours / name).exists() and (theirs / name).exists()
                          and comparable(ours / name) == comparable(theirs / name)))


def c_change(ours: Path, theirs: Path) -> str:
    """The largest relative difference of `c` between two `path.csv` files, their
    rows matched by (stage, family_param), or that their rows differ."""
    sides = []
    for path in (ours, theirs):
        with path.open(newline="") as f:
            rows = [((r["stage"], r["family_param"]), float(r["c"])) for r in csv.DictReader(f)]
        sides.append(dict(rows))
        if len(sides[-1]) != len(rows):
            return "rows differ"
    if sides[0].keys() != sides[1].keys():
        return "rows differ"
    worst = max(abs(c - sides[1][key]) / abs(sides[1][key]) for key, c in sides[0].items())
    return f"c within {worst:.1e} relative"


def grid_size(text: str) -> tuple[int, int]:
    """(nx, ny) of an `NXxNY` argument."""
    nx, sep, ny = text.partition("x")
    if not (sep and nx.isdigit() and ny.isdigit()):
        raise argparse.ArgumentTypeError(f"expected NXxNY, such as 961x41, got {text!r}")
    return int(nx), int(ny)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=grid_size, default=(481, 11),
                        help="the grid's nodes as NXxNY (default 481x11)")
    parser.add_argument("names", nargs="*", help="scenarios to run (default: all)")
    parser.add_argument("--against", type=Path, help="a second checkout to compare with")
    parser.add_argument("--keep", type=Path, help="keep every output under this new directory")
    args = parser.parse_args(argv)
    table = scenarios(args.grid)
    unknown = set(args.names) - set(table)
    if unknown:
        parser.error(f"unknown scenarios {sorted(unknown)}; known: {', '.join(table)}")
    if args.keep:
        args.keep.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        base = args.keep or Path(tmp)
        status = 0
        for name in args.names or table:
            ours = run(ROOT, table[name], base / "this" / name)
            line = (f"{name:10} exit={ours['exit']} error={ours['error']} rows={ours['rows']} "
                    f"factorizations={ours['factorizations']} "
                    f"coarse_factorizations={ours['coarse_factorizations']} "
                    f"start_iterations={ours['start_iterations']} c={ours['c']}")
            if args.against:
                theirs = run(args.against.resolve(), table[name], base / "against" / name)
                outs = base / "this" / name / "out", base / "against" / name / "out"
                diff = differing(*outs)
                if "path.csv" in diff and all((out / "path.csv").exists() for out in outs):
                    diff.append(f"({c_change(*(out / 'path.csv' for out in outs))})")
                diff += [key for key in ("factorizations", "coarse_factorizations",
                                         "start_iterations")
                         if theirs[key] != ours[key]]
                line += "  " + ("same" if not diff else "DIFFER: " + " ".join(diff))
                status |= bool(diff)
            print(line, flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
