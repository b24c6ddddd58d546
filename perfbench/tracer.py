"""Outside-in tracing of stripwave's layers, and the arithmetic on its spans.

Recording (`Tracer`, `instrument`) runs inside a benchmark child process:
`instrument` replaces the module attributes through which each layer is
called with wrappers that record a span (name, start, end, parent) per
call and a few counters.  Nothing in the package itself changes.  Spans
stay in memory and are written out by `Tracer.dump` when the run ends.

Derivation (`self_times`, `layer_metrics`) is plain Python over the dumped
records and runs in the benchmark parent and in the self-tests.  A span's
self time is its duration minus the part of it covered by its children.

Span names are `<layer>.<function>`, where the layer is the package module
(`solver`, `residual`, `continuation`, `diagnostics`, `cli`).  The layer
`trace` holds work done only for the trace itself (reading the fill of an
LU factorization), so it never inflates a package layer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

LAYERS = ("solver", "residual", "continuation", "diagnostics", "cli", "trace")


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        # name -> [calls, calls with an array argument, points in those arrays];
        # a plain list is the cheapest counter for hot, counted-only functions
        self.tallies: dict[str, list[int]] = {}
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.written: set[str] = set()
        for tally in self.tallies.values():
            tally[:] = [0, 0, 0]  # in place: the wrappers hold these lists

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        """`fn` with a span around each call; `after(result, args)` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                self.end(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    def records(self) -> dict:
        counts = Counter(self.counts)
        for name, (calls, arrays, points) in self.tallies.items():
            counts[name + ".calls"] += calls
            counts[name + ".points"] += calls - arrays + points
        return {"pid": os.getpid(), "spans": self.spans, "counts": dict(counts),
                "maxima": self.maxima}

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.records()))


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def instrument(tracer: Tracer, worker_dump_dir: Path) -> None:
    """Wrap every layer entry point of the imported package in place.

    Each name is patched where it is looked up: a function imported into
    two modules is wrapped in both.  Sweep workers are forked from this
    process, so they inherit the wrappers; each worker call starts from an
    empty tracer and dumps its records into `worker_dump_dir`.
    """
    import numpy as np
    import scipy.sparse.linalg as spla
    from stripwave import cli, continuation, diagnostics, grid, residual, solver

    def patch(module, attr, name, after=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))

    # solver: shooting oracle, Newton, linear solve, LU factor and solves
    patch(cli, "solve_1d_ignition_shooting", "solver.solve_1d_ignition_shooting")

    def newton_after(result, args):
        tracer.counts["solver.newton_solve.iterations"] += result.iterations

    for module in (cli, continuation):
        patch(module, "newton_solve", "solver.newton_solve", newton_after)
    patch(solver, "linear_solve", "solver.linear_solve")

    class TracedLU:
        def __init__(self, lu) -> None:
            self._lu = lu
            self.solve = tracer.wrap("solver.lu_solve", lu.solve)

        def __getattr__(self, attr):
            return getattr(self._lu, attr)

    splu = spla.splu

    def traced_splu(*args, **kwargs):
        lu = tracer.wrap("solver.lu_factor", splu)(*args, **kwargs)
        index = tracer.begin("trace.fill_nnz")
        tracer.peak("solver.lu_factor.fill_nnz", lu.L.nnz + lu.U.nnz)
        tracer.end(index)
        return TracedLU(lu)

    spla.splu = traced_splu

    # residual: residual and Jacobian assembly
    for module in (solver, cli):
        patch(module, "assemble_residual", "residual.assemble_residual")
    patch(solver, "assemble_jacobian", "residual.assemble_jacobian",
          lambda J, args: tracer.peak("residual.jacobian_nnz", J.nnz))

    # model: counted only; the shooting loop calls it millions of times
    tally = tracer.tallies.setdefault("model.eval_nonlinearity", [0, 0, 0])
    for module in (solver, residual, diagnostics):
        def counted_eval(u, spec, _eval=module.eval_nonlinearity, _float=float):
            tally[0] += 1
            if u.__class__ is not _float:
                tally[1] += 1
                tally[2] += int(np.size(u))
            return _eval(u, spec)

        module.eval_nonlinearity = counted_eval

    # grid: counted only
    grid_x = grid.Grid.x.fget

    def counted_x(self):
        tracer.counts["grid.Grid.x.calls"] += 1
        return grid_x(self)

    grid.Grid.x = property(counted_x)

    # continuation: marches, handoff, record making; diagnostics inside records
    patch(cli, "continue_wentzell", "continuation.continue_wentzell")
    patch(cli, "continue_exchange", "continuation.continue_exchange")
    patch(cli, "embed_one_dim_wave", "continuation.embed_one_dim_wave")
    patch(cli, "handoff_to_system", "continuation.handoff_to_system")
    for module in (cli, continuation):
        patch(module, "make_record", "continuation.make_record")
    patch(continuation, "run_diagnostics", "diagnostics.run_diagnostics")

    # cli: drivers, checkpoints, CSV output, the sweep pool
    for attr in ("execute_run", "execute_resume", "_run_sweep", "load_config",
                 "checkpoint_dict", "checkpoint_state"):
        patch(cli, attr, "cli." + attr)

    def checkpoint_after(result, args):
        path = str(args[0])
        tracer.counts["cli.write_checkpoint.bytes"] += _file_size(path)
        if path in tracer.written:
            tracer.counts["cli.write_checkpoint.redundant"] += 1
        tracer.written.add(path)

    def read_after(result, args):
        tracer.counts["cli.read_checkpoint.bytes"] += _file_size(args[0])

    patch(cli, "write_checkpoint", "cli.write_checkpoint", checkpoint_after)
    patch(cli, "read_checkpoint", "cli.read_checkpoint", read_after)

    def profile_after(result, args):
        outdir, record = Path(args[0]), args[1]
        tag = f"{record.stage}_{record.parameter:.6g}"
        tracer.counts["cli.write_profile_files.bytes"] += (
            _file_size(outdir / f"profile_{tag}.csv")
            + _file_size(outdir / f"profile_{tag}_line.csv"))

    patch(cli, "write_profile_files", "cli.write_profile_files", profile_after)
    cli.PathWriter.write = tracer.wrap("cli.PathWriter.write", cli.PathWriter.write)

    sweep_worker = tracer.wrap("cli._sweep_worker", cli._sweep_worker)

    @functools.wraps(cli._sweep_worker)
    def traced_sweep_worker(payload):
        tracer.reset()
        try:
            return sweep_worker(payload)
        finally:
            tracer.dump(Path(worker_dump_dir) / f"{Path(payload[1]).name}-{os.getpid()}.json")

    cli._sweep_worker = traced_sweep_worker


# --- derivation ---------------------------------------------------------------

def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [end - start - covered(children.get(i, []))
            for i, (_, start, end, _) in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the records of every traced process.

    Times and counts are summed over processes (for a sweep, the parent and
    each worker call), so a layer's self time is core-seconds, not wall time.
    """
    total = Counter()    # inclusive seconds per span name
    own = Counter()      # self seconds per span name
    calls = Counter()
    counts = Counter()
    maxima: dict[str, float] = {}
    inside = Counter()   # (parent name, child name) -> calls
    for proc in processes:
        spans = proc["spans"]
        for (name, start, end, parent), self_s in zip(spans, self_times(spans)):
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
            if parent >= 0:
                inside[(spans[parent][0], name)] += 1
        counts.update(proc["counts"])
        for key, value in proc["maxima"].items():
            maxima[key] = max(maxima.get(key, value), value)

    m: dict[str, float] = {}
    for name in ("solver.solve_1d_ignition_shooting", "solver.newton_solve",
                 "solver.linear_solve", "residual.assemble_residual",
                 "residual.assemble_jacobian", "diagnostics.run_diagnostics",
                 "cli.write_checkpoint"):
        m[name + ".s"] = total[name]
        m[name + ".calls"] = calls[name]

    newton = calls["solver.newton_solve"]
    iterations = counts["solver.newton_solve.iterations"]
    trials = inside[("solver.newton_solve", "residual.assemble_residual")] - newton
    m["solver.newton_solve.iterations"] = iterations
    m["solver.newton_solve.failed"] = counts["solver.newton_solve.failed"]
    m["solver.newton_solve.linesearch_trials"] = trials
    m["solver.newton_solve.step_accept_ratio"] = _ratio(iterations, trials)

    factors, solves = calls["solver.lu_factor"], calls["solver.lu_solve"]
    m["solver.lu_factor.s"] = total["solver.lu_factor"]
    m["solver.lu_factor.count"] = factors
    m["solver.lu_factor.fill_nnz"] = maxima.get("solver.lu_factor.fill_nnz", 0)
    m["solver.lu_solve.s"] = total["solver.lu_solve"]
    m["solver.lu_solve.count"] = solves
    m["solver.lu_refine.count"] = solves - factors

    m["residual.jacobian_nnz"] = maxima.get("residual.jacobian_nnz", 0)
    m["model.eval_nonlinearity.calls"] = counts["model.eval_nonlinearity.calls"]
    m["model.eval_nonlinearity.points"] = counts["model.eval_nonlinearity.points"]
    m["grid.Grid.x.calls"] = counts["grid.Grid.x.calls"]

    marches = ("continuation.continue_wentzell", "continuation.continue_exchange")
    accepted = sum(inside[(march, "continuation.make_record")] - calls[march]
                   for march in marches)
    tried = sum(inside[(march, "solver.newton_solve")] for march in marches)
    for march in marches:
        m[march + ".s"] = total[march]
    m["continuation.steps_accepted"] = accepted
    m["continuation.steps_rejected"] = tried - accepted
    m["continuation.step_accept_ratio"] = _ratio(accepted, tried)

    m["cli.write_checkpoint.bytes"] = counts["cli.write_checkpoint.bytes"]
    m["cli.write_checkpoint.redundant"] = counts["cli.write_checkpoint.redundant"]
    m["cli.checkpoint_dict.s"] = total["cli.checkpoint_dict"]
    m["cli.read_checkpoint.s"] = total["cli.read_checkpoint"]
    m["cli.read_checkpoint.bytes"] = counts["cli.read_checkpoint.bytes"]
    m["cli.write_profile_files.s"] = total["cli.write_profile_files"]
    m["cli.write_profile_files.bytes"] = counts["cli.write_profile_files.bytes"]
    m["cli.PathWriter.write.s"] = own["cli.PathWriter.write"]

    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    return m


def main_tree_self_sum(processes: list[dict], pid: int) -> float:
    """Sum of self times over the spans of the process `pid`."""
    return sum(sum(self_times(p["spans"])) for p in processes if p["pid"] == pid)
