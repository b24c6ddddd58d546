"""Self-tests of the benchmark: span arithmetic, correctness gate, metric tables.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402

HEADER = ",".join(("stage", "family_param", "c", "residual_norm", "speed_identity_gap",
                   "cmax_margin", "min_psi", "max_psi", "min_dx_psi", "gamma_fit",
                   "gamma_pred", "bounds_ok", "monotone_ok", "sandwich_ok", "left_decay_ok"))


def row(stage: str, param: str, certificates: str = "1,1,1,1") -> str:
    return f"{stage},{param},0.29,1e-12,1e-9,1.3,0,1,0,0.5,0.5,{certificates}"


def csv_text(*rows: str) -> str:
    return "\n".join((HEADER,) + rows) + "\n"


# --- span arithmetic ----------------------------------------------------------

def test_self_times_on_hand_built_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["solver.newton_solve", 1.0, 4.0, 0],
        ["solver.linear_solve", 2.0, 3.5, 1],
        ["cli.write_checkpoint", 5.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    assert tracer.covered([(1.0, 4.0), (3.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    spans = [["cli.main", 0.0, 10.0, -1], ["a.x", 1.0, 4.0, 0], ["a.y", 3.0, 5.0, 0]]
    assert tracer.self_times(spans)[0] == pytest.approx(6.0)


def test_layer_metrics_from_hand_built_process():
    spans = [
        ["cli.main", 0.0, 20.0, -1],                                # 0
        ["continuation.continue_wentzell", 1.0, 11.0, 0],          # 1
        ["continuation.make_record", 1.0, 2.0, 1],                 # 2 start record
        ["solver.newton_solve", 2.0, 6.0, 1],                      # 3 accepted step
        ["residual.assemble_residual", 2.0, 2.5, 3],               # initial residual
        ["solver.linear_solve", 2.5, 4.0, 3],
        ["solver.lu_factor", 2.5, 3.5, 5],
        ["solver.lu_solve", 3.5, 3.7, 5],
        ["solver.lu_solve", 3.7, 3.9, 5],                          # refinement
        ["residual.assemble_residual", 4.0, 4.5, 3],               # trial 1: rejected
        ["residual.assemble_residual", 4.5, 5.0, 3],               # trial 2: accepted
        ["continuation.make_record", 6.0, 7.0, 1],                 # 11
        ["diagnostics.run_diagnostics", 6.0, 6.5, 11],
        ["solver.newton_solve", 7.0, 11.0, 1],                     # rejected step
        ["cli.write_checkpoint", 12.0, 13.0, 0],
    ]
    process = {"pid": 1, "spans": spans, "maxima": {"solver.lu_factor.fill_nnz": 7},
               "counts": {"solver.newton_solve.iterations": 1,
                          "solver.newton_solve.failed": 1,
                          "cli.write_checkpoint.redundant": 1}}
    m = tracer.layer_metrics([process])
    assert m["solver.newton_solve.calls"] == 2
    assert m["solver.newton_solve.linesearch_trials"] == 1   # 3 residuals - 2 calls
    assert m["solver.newton_solve.step_accept_ratio"] == 1.0
    assert m["solver.lu_factor.count"] == 1
    assert m["solver.lu_refine.count"] == 1
    assert m["solver.lu_factor.fill_nnz"] == 7
    assert m["continuation.steps_accepted"] == 1
    assert m["continuation.steps_rejected"] == 1
    assert m["continuation.step_accept_ratio"] == 0.5
    assert m["solver.newton_solve.s"] == pytest.approx(8.0)
    assert m["diagnostics.self_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(20.0 - 10.0 - 1.0 + 1.0)
    assert m["cli.write_checkpoint.redundant"] == 1
    layers = sum(m[layer + ".self_s"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(20.0)
    assert tracer.main_tree_self_sum([process], 1) == pytest.approx(20.0)


def test_tracer_records_nested_spans_and_failures():
    t = tracer.Tracer()

    def inner():
        raise ValueError("boom")

    outer = t.wrap("cli.outer", lambda: t.wrap("solver.inner", inner)())
    with pytest.raises(ValueError):
        outer()
    names = [(s[0], s[3]) for s in t.records()["spans"]]
    assert names == [("cli.outer", -1), ("solver.inner", 0)]
    assert t.records()["counts"]["solver.inner.failed"] == 1
    assert t.stack == []


# --- correctness gate ---------------------------------------------------------

def test_gate_flags_one_false_certificate():
    text = csv_text(row("A", "0"), row("A", "0.5", "1,0,1,1"), row("C", "1"))
    problems = gate.certificate_problems(text)
    assert len(problems) == 1 and "monotone_ok" in problems[0]
    assert gate.certificate_problems(csv_text(row("A", "0"), row("C", "1"))) == []
    assert gate.certificate_problems(csv_text()) != []


def test_gate_flags_speed_off_by_2e6():
    ref = 0.29233733970427495
    assert gate.speed_problem(ref * (1 + 2e-6), ref) is not None
    assert gate.speed_problem(ref * (1 - 2e-6), ref) is not None
    assert gate.speed_problem(ref * (1 + 5e-7), ref) is None


def test_gate_resume_rows_must_match_byte_for_byte():
    full = csv_text(row("A", "0"), row("A", "0.1"), row("C", "1"))
    assert gate.resume_problem(full, csv_text(row("A", "0.1"), row("C", "1"))) is None
    changed = csv_text(row("A", "0.1"), row("C", "1").replace("0.29", "0.291"))
    assert gate.resume_problem(full, changed) is not None
    assert gate.resume_problem(full, csv_text()) is not None


def test_gate_on_run_directory(tmp_path):
    ref = 0.3
    (tmp_path / "path.csv").write_text(csv_text(row("A", "0"), row("C", "1", "1,1,0,1")))
    (tmp_path / "summary.json").write_text(json.dumps({"stages": {"C": {"c": ref * 1.00001}}}))
    problems = gate.run_dir_problems(tmp_path, ref)
    assert len(problems) == 2
    assert gate.run_dir_problems(tmp_path / "missing", ref) != []


# --- metric tables ------------------------------------------------------------

def test_benchmark_json_matches_tracer_and_predictions():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    derived = set(tracer.layer_metrics([])) | {
        "cli.sweep.point_busy_s", "cli.sweep.parallel_efficiency", "trace.run_s",
        "trace.untraced_run_s", "trace.overhead_s", "trace.self_sum_s",
        "probe.speed_factor", "probe.wall_run_s"}
    assert set(declared) == derived
    predictions = json.loads((HERE / "predictions.json").read_text())["per_layer"]
    assert list(predictions) == declared
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name, p in predictions.items():
        assert set(p["on"]) <= workloads and set(p["not_on"]) <= workloads, name
        assert not set(p["on"]) & set(p["not_on"]), name
        assert set(p["moves"]) <= e2e, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coarse_path",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
