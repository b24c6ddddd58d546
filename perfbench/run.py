"""stripwave benchmark: end-to-end and per-layer numbers of `wave run` / `wave resume`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (fixed configs; references are the seed commit's final speeds):

* default_path  README default config, A -> B -> C on 961 x 41 (N = 39 402),
                checkpoint_every = 5.
* coarse_path   the same parameters on 481 x 11 (N = 5 292); shooting dominates.
* resume_path   the default grid with checkpoint_every = 1.  An untimed set-up
                run writes the checkpoints; each timed call is
                `wave resume ckpt_0001_A.json` with WAVE_OUT redirected.
* sweep_coarse  `wave run coarse.json --sweep D=0.5,1,2,4` on the program's
                process pool (2 workers on a 2-core machine).

The configs do not depend on the seed, because the reference speeds hold
for exactly these configs; the seed only names the output directory, which
enters the config hash.

Each timed call runs `stripwave.cli.main` in a fresh interpreter (rep.py)
with BLAS pools limited to one thread, then passes the correctness gate
(gate.py) and has its output directory measured and removed.  Calls repeat
while the next one still fits in `--seconds`; at least `min_calls`
untraced calls, or one traced pair, are made.

Every time is reported in reference-speed seconds: the measured time
multiplied by PROBE_REF_S over the median loop time of probe.py, which
samples the speed of the CPU the call runs on while it runs.  On a shared
machine the CPU speed drifts by tens of percent within a minute, and this
scaling removes most of that drift from comparisons.  The unscaled wall
time is reported too (`probe.wall_run_s`, with `--trace 1`).

With `--trace 0` the last line reports the end-to-end metrics of
BENCHMARK.json: medians over the timed calls of `run_s`, `run_cpu_s`,
`peak_rss_mb` and `artifact_mb`; `setup_s`, the median over the same calls
of the time from spawning the interpreter until it has imported
stripwave.cli and loaded the workload's config; and
`pass_frac`, the share of attempted runs (sweep points) that passed.
With `--trace 1` the calls alternate untraced and traced (tracer.py) and the
last line reports the per-layer metrics, medians over the traced calls, with
the tracing overhead as traced minus untraced `run_s`.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402

DEFAULT_CONFIG = {
    "params": {"d": 1.0, "D": 4.0, "mu": 1.0, "L": 1.0},
    "nonlinearity": {"kind": "smooth_cubic", "theta": 0.3},
    "grid": {"x_left": -160.0, "x_right": 80.0, "nx": 961, "ny": 41},
    "newton": {"tol_residual": 1e-10, "max_iters": 50, "damping": 0.5, "min_step": 1e-8},
    "continuation": {"epsilon0": 0.05, "initial_step": 0.1, "min_step": 1e-4,
                     "target_stage": "C"},
    "shooting_tol": 1e-9,
    "output_dir": "waveout",
    "checkpoint_every": 5,
}
DEFAULT_C = 0.29233733970427495
COARSE_C = 0.2923258689913445
SWEEP_C = {0.5: 0.16328286156806493, 1.0: 0.18779253064136717,
           2.0: 0.22837080930669154, 4.0: COARSE_C}

# min_calls: untraced calls made however long they take.  Three where two
# left the spread of run_s over seeds above a third of its bound.
WORKLOADS = {
    "default_path": {"kind": "run", "grid": (961, 41), "checkpoint_every": 5, "c": DEFAULT_C,
                     "min_calls": 2},
    "coarse_path": {"kind": "run", "grid": (481, 11), "checkpoint_every": 5, "c": COARSE_C,
                    "min_calls": 3},
    "resume_path": {"kind": "resume", "grid": (961, 41), "checkpoint_every": 1, "c": DEFAULT_C,
                    "min_calls": 3},
    "sweep_coarse": {"kind": "sweep", "grid": (481, 11), "checkpoint_every": 5, "c": SWEEP_C,
                     "min_calls": 2},
}
PROBE_REF_S = 0.5e-3  # probe.py loop time of the reference machine
RUN_LIMIT_S = 170.0  # a benchmark run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not measure (not a failed run of the program)."""


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("WAVE_OUT", None)
    env.pop("PYTHONPATH", None)
    env.update(extra)
    return env


def run_child(cmd: list[str], cwd: Path, env: dict, deadline: float,
              parallel: bool = False) -> tuple[int, str, float]:
    """Run `cmd` in its own process group beside machine-speed probes.

    A serial child is pinned to the probed CPU; a parallel one (the sweep
    pool) keeps every CPU and each CPU is probed.  Returns the exit code,
    the standard output and the speed factor `PROBE_REF_S / median probe
    time`, which scales the child's timings to a machine of reference speed.
    Kills the group at the deadline.
    """
    cpus = sorted(os.sched_getaffinity(0))
    probed = cpus if parallel else cpus[:1]
    probes = [subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu)],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
              for cpu in probed]
    pin = None if parallel else (lambda: os.sched_setaffinity(0, probed))
    try:
        env = dict(env, PERFBENCH_SPAWN_TIME=repr(time.time()))
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True,
                                preexec_fn=pin)
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"{cmd[1:3]} did not finish before the run deadline") from None
    finally:
        samples = [t for probe in probes for t in json.loads(probe.communicate("")[0])]
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
    if not samples:
        raise BenchmarkError("the machine-speed probe took no samples")
    return proc.returncode, out, PROBE_REF_S / statistics.median(samples)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Bench:
    def __init__(self, name: str, seed: int, work: Path, deadline: float) -> None:
        self.name, self.spec, self.work, self.deadline = name, WORKLOADS[name], work, deadline
        config = copy.deepcopy(DEFAULT_CONFIG)
        config["grid"]["nx"], config["grid"]["ny"] = self.spec["grid"]
        config["checkpoint_every"] = self.spec["checkpoint_every"]
        config["output_dir"] = f"wave-seed{seed}"
        self.outdir = work / config["output_dir"]
        self.config = work / "config.json"
        self.config.write_text(json.dumps(config, indent=2))
        self.argv = ["run", self.config.name]
        self.attempted = self.failed = 0
        self.full_path_csv = ""
        if self.spec["kind"] == "sweep":
            self.argv += ["--sweep", "D=" + ",".join(f"{v:g}" for v in self.spec["c"])]
        elif self.spec["kind"] == "resume":
            self.prepare_resume()

    def prepare_resume(self) -> None:
        """Untimed uninterrupted run whose first checkpoint is resumed."""
        code, _ = self.call(self.argv, "-", {})
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += gate.run_dir_problems(self.outdir, self.spec["c"])
        if problems:
            raise BenchmarkError("set-up run failed: " + "; ".join(problems))
        self.full_path_csv = (self.outdir / "path.csv").read_text()
        self.argv = ["resume", str(self.outdir / "ckpt_0001_A.json"), self.config.name]
        self.outdir = self.work / "resumed"

    def call(self, argv: list[str], spans: str, env: dict) -> tuple[int, dict]:
        """One rep.py child; its timings scaled to reference speed."""
        cmd = [sys.executable, str(HERE / "rep.py"), str(ROOT), spans, self.config.name, *argv]
        code, out, speed = run_child(cmd, self.work, child_env(**env), self.deadline,
                                     parallel=self.spec["kind"] == "sweep")
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            return 1, {}
        result = json.loads(lines[-1])
        result.update(wall_run_s=result["run_s"], speed=speed,
                      run_s=result["run_s"] * speed, cpu_s=result["cpu_s"] * speed,
                      setup_s=result["setup_s"] * speed)
        return result.pop("exit"), result

    def rep(self, traced: bool) -> dict:
        """One timed call, gated; returns its measurements."""
        spans = self.work / "spans.json"
        env = {"WAVE_OUT": str(self.outdir)} if self.spec["kind"] == "resume" else {}
        code, m = self.call(self.argv, str(spans) if traced else "-", env)
        problems = [] if code == 0 else [f"exit code {code}"]
        if self.spec["kind"] == "sweep":
            points = {v: self.outdir / f"D_{v:g}" for v in self.spec["c"]}
            point_problems = [gate.run_dir_problems(d, self.spec["c"][v])
                              for v, d in points.items()]
            failed = sum(1 for p in point_problems if p)
            self.attempted += len(points)
            self.failed += failed if failed or code == 0 else 1
            problems += [p for ps in point_problems for p in ps]
            busy = [sum(json.loads((d / "summary.json").read_text())["timings_s"].values())
                    for d in points.values() if (d / "summary.json").is_file()]
            if busy and m:
                workers = min(len(points), os.cpu_count() or 1)
                m["point_busy_s"] = statistics.fmean(busy) * m["speed"]
                m["parallel_efficiency"] = sum(busy) / (workers * m["wall_run_s"])
        else:
            problems += gate.run_dir_problems(self.outdir, self.spec["c"])
            if self.spec["kind"] == "resume" and (self.outdir / "path.csv").is_file():
                problem = gate.resume_problem(self.full_path_csv,
                                              (self.outdir / "path.csv").read_text())
                problems += [problem] if problem else []
            self.attempted += 1
            self.failed += 1 if problems else 0
        for problem in problems:
            print(f"{self.name}: FAILED: {problem}", file=sys.stderr)
        if self.outdir.is_dir():
            m["artifact_mb"] = dir_bytes(self.outdir) / 1e6
            shutil.rmtree(self.outdir)
        if traced and spans.is_file() and m:
            records = json.loads(spans.read_text())
            layers = tracer.layer_metrics(records["processes"])
            m.update({k: v * m["speed"] if k.endswith((".s", "_s")) else v
                      for k, v in layers.items()})
            m["self_sum_s"] = m["speed"] * tracer.main_tree_self_sum(records["processes"],
                                                                     records["main_pid"])
            spans.unlink()
        return m


def repeat(seconds: float, once, at_least: int) -> list:
    """Call `once` `at_least` times, then until the next call would not fit."""
    results, start, longest = [], time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        results.append(once())
        longest = max(longest, time.perf_counter() - t0)
        if len(results) >= at_least and time.perf_counter() - start + longest > seconds:
            return results


def median_of(samples: list[dict], key: str) -> float:
    values = [s[key] for s in samples if key in s]
    if not values:
        raise BenchmarkError(f"no run produced {key}")
    return statistics.median(values)


def end_to_end(bench: Bench, seconds: float) -> dict:
    reps = repeat(seconds, lambda: bench.rep(traced=False), bench.spec["min_calls"])
    return {
        "run_s": median_of(reps, "run_s"),
        "setup_s": median_of(reps, "setup_s"),
        "run_cpu_s": median_of(reps, "cpu_s"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "artifact_mb": median_of(reps, "artifact_mb"),
        "pass_frac": 1.0 - bench.failed / bench.attempted,
        "wall_run_s": median_of(reps, "wall_run_s"),
        "speed": median_of(reps, "speed"),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    pairs = repeat(seconds, lambda: (bench.rep(traced=False), bench.rep(traced=True)),
                   at_least=1)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    metrics = {name: median_of(traced, name) for name in tracer.layer_metrics([])}
    is_sweep = bench.spec["kind"] == "sweep"
    metrics["cli.sweep.point_busy_s"] = median_of(plain, "point_busy_s") if is_sweep else 0.0
    metrics["cli.sweep.parallel_efficiency"] = (median_of(plain, "parallel_efficiency")
                                                if is_sweep else 0.0)
    metrics["trace.run_s"] = median_of(traced, "run_s")
    metrics["trace.untraced_run_s"] = median_of(plain, "run_s")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    metrics["trace.self_sum_s"] = median_of(traced, "self_sum_s")
    metrics["probe.speed_factor"] = median_of(plain, "speed")
    metrics["probe.wall_run_s"] = median_of(plain, "wall_run_s")
    return metrics


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload and return the result object of the last output line."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if traced else "end_to_end"]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(name, seed, work, time.monotonic() + RUN_LIMIT_S)
        values = (per_layer if traced else end_to_end)(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    if not traced:
        print(f"{name}: unscaled wall run_s {values['wall_run_s']:.4g} s, "
              f"speed factor {values['speed']:.4g}")
    return {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stripwave" / "cli.py").is_file():
        print(f"no stripwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            res = results[name]
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for metric, v in res["metrics"].items():
                print(f"  {metric:45s} {v['value']:>16.6g} {v['unit']}")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
