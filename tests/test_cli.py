import argparse
import base64
import dataclasses
import importlib.util
import json
import logging
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stripwave
from stripwave import cli, continuation
from stripwave.cli import (EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, checkpoint_dict,
                           checkpoint_state, config_from_dict, config_hash, default_config_dict,
                           fmt_float, load_config, main, read_checkpoint, write_checkpoint,
                           write_profile_files)
from stripwave.continuation import ContinuationRecord
from stripwave.errors import ConfigError
from stripwave.grid import Grid
from stripwave.residual import HomotopyFamily, WaveState


def fast_config(outdir, **overrides):
    """Coarse but fully functional configuration for end-to-end tests."""
    cfg = default_config_dict(str(outdir))
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 481, "ny": 11}
    cfg["checkpoint_every"] = 3
    cfg.update(overrides)
    return cfg


def subprocess_env(**extra):
    """Environment in which a child interpreter imports this stripwave and,
    as the tests in this process do, treats every warning as an error."""
    src = str(Path(stripwave.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONWARNINGS="error", **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# --- validation ----------------------------------------------------------------

def test_default_config_is_valid():
    config_from_dict(default_config_dict())


def test_validation_error_names_field(tmp_path):
    cfg = fast_config(tmp_path / "out")
    cfg["params"]["D"] = -4.0
    with pytest.raises(ConfigError, match=r"params\.D"):
        config_from_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == EXIT_VALIDATION


def test_validation_rejects_unknown_field(tmp_path):
    cfg = fast_config(tmp_path / "out")
    cfg["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(cfg)


def test_validation_rejects_bad_grid(tmp_path):
    cfg = fast_config(tmp_path / "out")
    cfg["grid"]["ny"] = 10  # no node at y = -L/2
    with pytest.raises(ConfigError, match="grid"):
        config_from_dict(cfg)


def test_missing_field_report_is_hash_seed_independent(tmp_path):
    cfg = fast_config(tmp_path / "out")
    for key in ("params", "grid", "newton"):
        del cfg[key]
    path = write_config(tmp_path, cfg)
    for seed in range(1, 7):
        proc = subprocess.run([sys.executable, "-m", "stripwave.cli", "run", str(path)],
                              capture_output=True, text=True, timeout=120,
                              env=subprocess_env(PYTHONHASHSEED=str(seed)))
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "params: missing" in proc.stderr, (seed, proc.stderr)


def test_import_does_not_load_scipy_integrate():
    # nor scipy.sparse, nor the scipy package itself, not even once a wide
    # (13 x 161) bordered Jacobian is assembled, factored (dgetrf, dgetrs and
    # dgbtrf: its tail has K = 6) and solved (dgetrs and dgbtrs): J is its
    # diagonals, factored on the band by scipy's LAPACK wrappers alone
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import stripwave.cli
        from stripwave import (HomotopyFamily, ModelParams, NonlinearityKind, NonlinearitySpec,
                               WaveState, assemble_jacobian, build_grid, solver)
        params = ModelParams(d=1.0, D=4.0, mu=1.0, L=1.0)
        spec = NonlinearitySpec(kind=NonlinearityKind.SMOOTH_CUBIC, theta=0.3)
        grid = build_grid(params, -160.0, 80.0, 13, 161)
        psi = np.tile(0.5 * (1.0 + np.tanh(grid.x / 20.0)), (grid.ny, 1))
        state = WaveState(c=0.3, psi=psi, phi=None, family=HomotopyFamily.wentzell(1.0))
        J = assemble_jacobian(state, params, spec, grid)
        lu = solver.factorize(J)
        assert lu.tail.K > 0
        lu.solve(np.ones(J.shape[0]))
        print([m in sys.modules
               for m in ('scipy', 'scipy.linalg', 'scipy.integrate', 'scipy.sparse')])
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False]"


@pytest.mark.parametrize("first, then", [("stripwave.solver", "scipy.linalg"),
                                         ("scipy.linalg", "stripwave.solver")])
def test_solver_lapack_is_scipys_in_either_import_order(first, then):
    # solver binds scipy's compiled wrappers without the scipy package; a
    # later `import scipy.linalg` (analysis's lazy scipy.integrate imports it)
    # still works and re-exports the same objects, as does the reverse order
    code = textwrap.dedent(f"""
        import importlib
        importlib.import_module({first!r})
        importlib.import_module({then!r})
        from scipy.linalg import lapack
        from stripwave import solver
        print([getattr(solver.lapack, r) is getattr(lapack, r)
               for r in ('dgetrf', 'dgetrs', 'dgbtrf', 'dgbtrs')])
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True, True, True]"


def test_invalid_json_is_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["run", str(path)]) == EXIT_VALIDATION


def at(stage, edit):
    """`edit`, made to the completed run's first checkpoint of `stage` instead of its last."""
    edit.stage = stage
    return edit


def checkpoints(out, stage="[ABC]"):
    """The checkpoints of a run's `stage` in `out`, in row order."""
    return sorted(out.glob(f"ckpt_*_{stage}.json"))


@pytest.mark.parametrize("command, edit, code, named", [
    ("run", lambda cfg: cfg["params"].update(bogus=1.0), EXIT_VALIDATION, "params.bogus"),
    ("run", lambda cfg: cfg["newton"].update(maxiters=50), EXIT_VALIDATION, "newton.maxiters"),
    ("run", lambda cfg: cfg["newton"].update(max_iters=0), EXIT_VALIDATION, "newton.max_iters"),
    # json writes and reads Infinity: an infinite tolerance would certify any iterate
    ("run", lambda cfg: cfg["newton"].update(tol_residual=float("inf")), EXIT_VALIDATION,
     "newton.tol_residual: NewtonOptions.tol_residual must lie in (0, inf), got inf"),
    ("run", lambda cfg: cfg.update(shooting_tol=float("inf")), EXIT_VALIDATION,
     "ConfigError: shooting_tol: must lie in (0, inf), got inf"),
    ("run", lambda cfg: cfg["continuation"].update(initial_step=0.0), EXIT_VALIDATION,
     "ConfigError: continuation.initial_step: must be > 0, got 0.0"),
    ("run", lambda cfg: cfg["continuation"].update(initial_step=float("inf")), EXIT_VALIDATION,
     "ConfigError: continuation.initial_step: must be finite, got inf"),
    ("run", lambda cfg: cfg["grid"].update(x_left=-float("inf")), EXIT_VALIDATION,
     "ConfigError: grid.x_left: Grid.x_left must be finite, got -inf"),
    ("run", lambda cfg: cfg["grid"].update(x_right=float("inf")), EXIT_VALIDATION,
     "ConfigError: grid.x_right: Grid.x_right must be finite, got inf"),
    ("resume", lambda ckpt: ckpt.pop("psi"), EXIT_IO, "ckpt.json: missing field 'psi'"),
    ("profile", lambda ckpt: ckpt.pop("psi"), EXIT_IO, "ckpt.json: missing field 'psi'"),
    ("profile", lambda ckpt: ckpt["grid"].pop("nx"), EXIT_IO,
     "ckpt.json: missing field 'grid.nx'"),
    ("resume", lambda ckpt: ckpt.update(psi=ckpt["psi"][:-1]), EXIT_IO,
     "ckpt.json: field 'psi' holds 5290 values, not nx * ny = 5291"),
    ("profile", lambda ckpt: ckpt.update(psi=ckpt["psi"][:-1]), EXIT_IO,
     "ckpt.json: field 'psi' holds 5290 values, not nx * ny = 5291"),
    ("resume", lambda ckpt: ckpt["control"].update(prev_psi=ckpt["control"]["prev_psi"][1:]),
     EXIT_IO, "ckpt.json: field 'control.prev_psi' holds 5290 values"),
    ("profile", lambda ckpt: ckpt["grid"].update(nx=481.0), EXIT_IO,
     "ckpt.json: field 'grid.nx' must be an integer, got 481.0"),
    # text values are written as given, so these reach the file as raw JSON text
    ("resume", lambda ckpt: ckpt.update(psi="AAAA!AAA"), EXIT_IO,
     "ckpt.json: field 'psi' is not valid base64"),
    ("profile", lambda ckpt: ckpt.update(psi="AAAA!AAA"), EXIT_IO,
     "ckpt.json: field 'psi' is not valid base64"),
    ("resume", lambda ckpt: ckpt.update(psi="AAAAAAAAAAAAAAAA"), EXIT_IO,
     "ckpt.json: field 'psi' holds 12 bytes"),
    ("profile", lambda ckpt: ckpt.update(psi="AAAAAAAAAAAAAAAA"), EXIT_IO,
     "ckpt.json: field 'psi' holds 12 bytes"),
    ("resume", lambda ckpt: ckpt["control"].update(step=0.0), EXIT_IO,
     "ckpt.json: field 'control.step' must be > 0, got 0.0"),
    ("resume", lambda ckpt: ckpt["control"].update(step=-0.05), EXIT_IO,
     "ckpt.json: field 'control.step' must be > 0, got -0.05"),
    # checked on reading, though a profile makes no record from the step
    ("profile", lambda ckpt: ckpt["control"].update(step=0.0), EXIT_IO,
     "ckpt.json: field 'control.step' must be > 0, got 0.0"),
    # every writer gives a checkpoint a control object: a null one is malformed
    ("resume", lambda ckpt: ckpt.update(control=None), EXIT_IO,
     "ckpt.json: missing field 'control.step'"),
    ("profile", lambda ckpt: ckpt.update(control=None), EXIT_IO,
     "ckpt.json: missing field 'control.step'"),
    # the secant predictor needs a previous state behind the record; `{parameter}` is the
    # checkpoint's, below 0.9 at the first stage A checkpoint
    ("resume", at("A", lambda ckpt: ckpt["control"].update(prev_parameter=ckpt["parameter"])),
     EXIT_IO, "ckpt.json: field 'control.prev_parameter' must be below 'parameter' = "
     "{parameter!r}, got {parameter!r}"),
    ("resume", at("A", lambda ckpt: ckpt["control"].update(prev_parameter=0.9)), EXIT_IO,
     "ckpt.json: field 'control.prev_parameter' must be below 'parameter' = {parameter!r}, "
     "got 0.9"),
    ("profile", at("A", lambda ckpt: ckpt["control"].update(prev_parameter=0.9)), EXIT_IO,
     "ckpt.json: field 'control.prev_parameter' must be below 'parameter' = {parameter!r}, "
     "got 0.9"),
    *[(command, edit, EXIT_IO, f"ckpt.json: field {named}")
      for edit, named in [
          (lambda ckpt: ckpt.update(parameter="x"), "'parameter' must be a number, got 'x'"),
          (lambda ckpt: ckpt.update(c="x"), "'c' must be a number, got 'x'"),
          (lambda ckpt: ckpt["grid"].update(x_left="x"), "'grid.x_left' must be a number"),
          (lambda ckpt: ckpt["grid"].update(x_right=True),
           "'grid.x_right' must be a number, got True"),
          (lambda ckpt: ckpt["grid"].update(L="x"), "'grid.L' must be a number, got 'x'"),
          (lambda ckpt: ckpt["control"].update(step="x"), "'control.step' must be a number"),
          (lambda ckpt: ckpt["control"].update(prev_parameter=None),
           "'control.prev_parameter' must be a number, got None"),
          (lambda ckpt: ckpt["control"].update(prev_c=None),
           "'control.prev_c' must be a number, got None"),
          (lambda ckpt: ckpt.update(stage="Z"), "'stage' must be one of A, B, C, got 'Z'"),
          (lambda ckpt: ckpt.update(c=0.0), "'c' must be > 0, got 0.0"),
          (lambda ckpt: ckpt.update(c=-0.29), "'c' must be > 0, got -0.29"),
          # json writes and reads NaN and Infinity, so these reach the file too
          (lambda ckpt: ckpt.update(c=float("nan")), "'c' must be finite, got nan"),
          (lambda ckpt: ckpt["grid"].update(L=float("inf")),
           "'grid.L' must be finite, got inf"),
          (lambda ckpt: ckpt["control"].update(step=float("inf")),
           "'control.step' must be finite, got inf"),
          # the previous state gets the checks of the record's, in the same words
          (at("A", lambda ckpt: ckpt["control"].update(prev_c=-5)),
           "'control.prev_c' must be > 0, got -5"),
          (lambda ckpt: ckpt["control"].update(prev_c=0.0),
           "'control.prev_c' must be > 0, got 0.0"),
          (lambda ckpt: ckpt["control"].update(prev_parameter=1.5),
           "'control.prev_parameter' is out of range: exchange parameter eps must lie in (0, 1]"),
          (at("A", lambda ckpt: ckpt["control"].update(prev_psi=None)),
           "'control.prev_psi' must be base64 text, got NoneType"),
          (at("C", lambda ckpt: ckpt["control"].update(
              prev_phi=ckpt["control"]["prev_phi"][1:])),
           "'control.prev_phi' holds 480 values, not nx = 481"),
          (at("C", lambda ckpt: ckpt["control"].update(prev_phi=None)),
           "'control.prev_phi' must be base64 text, got NoneType"),
          (at("A", lambda ckpt: ckpt.update(psi=None)),
           "'psi' must be base64 text, got NoneType"),
          (lambda ckpt: ckpt.update(phi=ckpt["phi"][:-1]), "'phi' holds 480 values, not nx = 481"),
          (at("A", lambda ckpt: ckpt.update(phi=np.zeros(481))),
           "'phi' must be null in the wentzell family"),
          # the family follows the stage
          (lambda ckpt: ckpt.update(stage="A"),
           "'family' must be 'wentzell' at stage A, got 'exchange'"),
          # Grid owns the ranges; the field it rejects is named, or the grid
          (lambda ckpt: ckpt["grid"].update(nx=-481, ny=-11),
           "'grid.nx' is out of range: Grid.nx must be >= 3, got -481"),
          (lambda ckpt: ckpt["grid"].update(x_left=100.0),
           "'grid' is out of range: Grid requires x_left < x_right")]
      for command in ("resume", "profile")],
], ids=["params.bogus", "newton.maxiters", "newton.max_iters", "newton.tol_residual_inf",
        "shooting_tol_inf", "continuation.initial_step_zero", "continuation.initial_step_inf",
        "grid.x_left_inf", "grid.x_right_inf", "resume_no_psi",
        "profile_no_psi", "profile_no_grid_nx", "resume_psi_short",
        "profile_psi_short", "resume_prev_psi_short", "profile_grid_nx_float",
        "resume_psi_not_base64", "profile_psi_not_base64", "resume_psi_12_bytes",
        "profile_psi_12_bytes", "resume_step_zero", "resume_step_negative", "profile_step_zero",
        "resume_control_null", "profile_control_null", "resume_prev_equal", "resume_prev_ahead",
        "profile_prev_ahead",
        *[f"{command}_{field}" for field in (
            "parameter_text", "c_text", "grid_x_left_text", "grid_x_right_bool",
            "grid_L_text", "step_text", "prev_parameter_null", "prev_c_null", "stage_Z",
            "c_zero", "c_negative", "c_nan", "grid_L_inf", "step_inf", "prev_c_negative",
            "prev_c_zero", "prev_parameter_out_of_range", "prev_psi_null", "prev_phi_short",
            "prev_phi_null", "psi_null", "short_phi", "wentzell_phi", "stage_A_exchange",
            "grid_nx_negative", "grid_x_left_past_x_right")
          for command in ("resume", "profile")]])
def test_malformed_input_is_one_error_line(completed_run, tmp_path, capsys, command, edit,
                                           code, named):
    _, out, cfg, _ = completed_run
    cfg = json.loads(json.dumps(dict(cfg, output_dir=str(tmp_path / "o"))))
    if command == "run":
        edit(cfg)
        argv = ["run", str(write_config(tmp_path, cfg))]
    else:
        ckpt = read_checkpoint(checkpoints(out, edit.stage)[0] if hasattr(edit, "stage")
                               else checkpoints(out)[-1])
        named = named.format(parameter=ckpt["parameter"])
        edit(ckpt)
        write_checkpoint(tmp_path / "ckpt.json", ckpt)
        argv = [command, str(tmp_path / "ckpt.json"), str(write_config(tmp_path, cfg))
                if command == "resume" else str(tmp_path / "o.csv")]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert named in err
    # error.json once the config has loaded: not for a config that fails to load
    assert (tmp_path / "o" / "error.json").exists() == (command == "resume")


# --- checkpoint byte round-trip ---------------------------------------------------

# -0.0, a subnormal, the largest double below 1, a large finite value, and 0.1 + 0.2
EDGE_VALUES = [-0.0, 5e-324, 1.0 - 2.0 ** -53, 1e300, 0.30000000000000004]


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    psi = np.array(EDGE_VALUES * 3)
    prev_phi = -np.array(EDGE_VALUES)
    data = {
        "schema_version": cli.SCHEMA_VERSION, "stage": "C", "family": "exchange",
        "parameter": 0.25, "c": 0.2974473931806512,
        "grid": {"x_left": -160.0, "x_right": 80.0, "L": 1.0, "nx": 5, "ny": 3},
        "psi": psi, "phi": np.array(EDGE_VALUES[::-1]), "config_hash": "abc",
        "control": {"step": 0.15000000000000002, "prev_parameter": 0.1, "prev_c": 0.28,
                    "prev_psi": psi.reshape(3, 5) / 3.0, "prev_phi": prev_phi},
    }
    p1 = tmp_path / "a.json"
    write_checkpoint(p1, data)
    loaded = read_checkpoint(p1)
    p2 = tmp_path / "b.json"
    write_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    # every decoded array has the bits that were written, and is writable
    for section, name in [(None, "psi"), (None, "phi"), ("control", "prev_psi"),
                          ("control", "prev_phi")]:
        want = data[section][name] if section else data[name]
        got = loaded[section][name] if section else loaded[name]
        assert got.tobytes() == np.ravel(want).tobytes(), name
        assert got.flags.writeable
    # the scalars stay plain JSON, the arrays are text
    raw = json.loads(p1.read_text())
    assert raw["control"]["step"] == 0.15000000000000002 and isinstance(raw["psi"], str)


def canonical_checkpoint_bytes(data: dict) -> bytes:
    """A reference for `write_checkpoint`'s bytes: `data` as canonical JSON
    (`cli.canonical_json`), each array or list at any depth replaced by the
    base64 text of its float64 bytes first."""
    def encoded(section: dict) -> dict:
        return {key: encoded(value) if isinstance(value, dict)
                else base64.b64encode(np.asarray(value, dtype="<f8").tobytes()).decode()
                if isinstance(value, (np.ndarray, list)) else value
                for key, value in section.items()}
    return cli.canonical_json(encoded(data)).encode()


@pytest.mark.parametrize("stage, prev", [("A", False), ("A", True), ("C", False), ("C", True)],
                         ids=["wentzell", "wentzell_prev", "exchange", "exchange_prev"])
def test_checkpoint_bytes_are_the_canonical_json(tmp_path, stage, prev):
    nx, ny = 7, 3
    rng = np.random.default_rng(nx)
    family = HomotopyFamily.wentzell if stage == "A" else HomotopyFamily.exchange

    def state(parameter, c):
        psi = rng.standard_normal((ny, nx))
        psi.ravel()[:len(EDGE_VALUES)] = EDGE_VALUES
        return WaveState(c=c, psi=psi, phi=None if stage == "A" else rng.standard_normal(nx),
                         family=family(parameter))

    record = ContinuationRecord(stage=stage, state=state(0.45000000000000007, 0.30000000000000004),
                                residual_norm=0.0, diagnostics=None, step=5e-324,
                                prev_state=state(0.15, 0.28) if prev else None)
    grid = Grid(x_left=-2.0, x_right=1.0, L=1.0, nx=nx, ny=ny)
    data = checkpoint_dict(record, grid, "hashé")  # JSON escapes the non-ASCII letter
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, data)
    assert path.read_bytes() == canonical_checkpoint_bytes(data)
    loaded = read_checkpoint(path)
    assert loaded["control"]["prev_c"] == (0.28 if prev else None)
    assert loaded["psi"].tobytes() == record.state.psi.tobytes()
    write_checkpoint(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_checkpoint_bytes_of_an_empty_section(tmp_path):
    data = {"b": {}, "a": [0.5], "c": {"z": None, "y": {}}}
    write_checkpoint(tmp_path / "ckpt.json", data)
    assert (tmp_path / "ckpt.json").read_bytes() == canonical_checkpoint_bytes(data)


def as_bits(state):
    """Everything a state holds, its numbers as their bytes."""
    return (state.family.kind, np.float64([state.family.parameter, state.c]).tobytes(),
            state.psi.shape, state.psi.tobytes(),
            None if state.phi is None else state.phi.tobytes())


@st.composite
def checkpointed_states(draw):
    """A record and its grid, with or without a previous state, on a small
    grid and of either family; the arrays hold any bits."""
    nx, ny = draw(st.integers(5, 9)), draw(st.sampled_from([3, 5]))
    stage = draw(st.sampled_from(cli.STAGES))
    parameters = st.floats(0.0, 1.0, exclude_min=stage != "A")
    make_family = HomotopyFamily.wentzell if stage == "A" else HomotopyFamily.exchange

    def state(parameter):
        def array(n):
            return np.frombuffer(draw(st.binary(min_size=8 * n, max_size=8 * n)), dtype=float)
        return WaveState(c=draw(st.floats(5e-324, 1e300)), psi=array(nx * ny).reshape(ny, nx),
                         phi=None if stage == "A" else array(nx),
                         family=make_family(parameter))

    # a previous state lies behind the record
    behind, parameter = sorted([draw(parameters), draw(parameters)])
    record_state = state(parameter)
    prev = state(behind) if behind < parameter and draw(st.booleans()) else None
    record = ContinuationRecord(stage=stage, state=record_state, residual_norm=0.0,
                                diagnostics=None, step=draw(st.floats(5e-324, 1e300)),
                                prev_state=prev)
    return record, Grid(x_left=-2.0, x_right=1.0, L=1.0, nx=nx, ny=ny)


@settings(max_examples=60, deadline=None)
@given(checkpointed_states())
def test_checkpoint_round_trip_returns_both_states(tmp_path_factory, case):
    record, grid = case
    path = tmp_path_factory.mktemp("round_trip") / "ckpt.json"
    write_checkpoint(path, checkpoint_dict(record, grid, "hash"))
    state, got_grid, step, prev_state = checkpoint_state(read_checkpoint(path))
    assert got_grid == grid
    assert as_bits(state) == as_bits(record.state)
    assert step == record.step
    if record.prev_state is None:
        assert prev_state is None
    else:
        assert as_bits(prev_state) == as_bits(record.prev_state)


SCHEMA_1 = {  # a checkpoint of schema 1, whose arrays were JSON float lists
    "schema_version": 1, "stage": "A", "family": "wentzell", "parameter": 0.25,
    "c": 0.2974473931806512, "grid": {"x_left": -160.0, "x_right": 80.0, "L": 1.0,
                                      "nx": 5, "ny": 3},
    "psi": [0.1, 0.2, 0.30000000000000004, 0.4, 0.5] * 3, "phi": None, "config_hash": "abc",
    "control": {"step": 0.15000000000000002, "prev_parameter": 0.1, "prev_c": 0.28,
                "prev_psi": [0.0] * 15, "prev_phi": None},
}


@pytest.mark.parametrize("content", [{"schema_version": 99}, [1, 2], SCHEMA_1],
                         ids=["schema_99", "not_an_object", "schema_1"])
def test_checkpoint_schema_mismatch(tmp_path, capsys, content):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(content))
    assert main(["profile", str(p), str(tmp_path / "o.csv")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: SchemaMismatch: ")


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    data = dict(SCHEMA_1, schema_version=cli.SCHEMA_VERSION)
    old = tmp_path / "ckpt_0001_A.json"
    write_checkpoint(old, data)
    before = old.read_bytes()
    real_write_bytes = Path.write_bytes

    def write_half(self, data):  # a write that fails partway, as on a full disk
        real_write_bytes(self, data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half)
    for path in (old, tmp_path / "ckpt_0002_A.json"):
        with pytest.raises(OSError, match="No space"):
            write_checkpoint(path, data)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt_0001_A.json"]
    assert old.read_bytes() == before


def test_profile_writers_match_fmt_float(tmp_path):
    grid = Grid(x_left=-2.0, x_right=1.0, L=1.0, nx=4, ny=3)
    psi = np.array([[0.1, np.nan, -0.0, 1.0 / 3.0],
                    [2e-300, 0.5, 1.0, -1e-17],
                    [np.nan, 0.0, 0.7, 1.0]])
    phi = np.array([-0.0, np.nan, 0.25, 1.0 - 1e-16])
    state = WaveState(c=0.3, psi=psi, phi=phi, family=HomotopyFamily.exchange(0.05))
    write_profile_files(tmp_path / "field.csv", state, grid)
    x, y = list(grid.x), list(grid.y)
    want = "x,y,psi\n" + "".join(f"{fmt_float(x[i])},{fmt_float(y[j])},{fmt_float(psi[j, i])}\n"
                                 for j in range(grid.ny) for i in range(grid.nx))
    assert (tmp_path / "field.csv").read_text() == want
    want = "x,phi\n" + "".join(f"{fmt_float(x[i])},{fmt_float(phi[i])}\n"
                               for i in range(grid.nx))
    assert (tmp_path / "field_line.csv").read_text() == want


@pytest.mark.parametrize("rows", [cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS,
                                  cli.CSV_BLOCK_ROWS + 1, 2 * cli.CSV_BLOCK_ROWS + 1])
def test_block_csv_writer_past_one_block(tmp_path, rows):
    # a default-grid profile has 39 401 rows: each block boundary keeps every
    # row, in order, formatted by fmt_float
    values = np.random.default_rng(rows).standard_normal((rows, 3)) * [1e-5, 1.0, 1e5]
    special = [np.nan, -0.0, np.inf, 2e-300, -1e300, 1.0 / 3.0]
    values[::997, 1] = np.resize(special, len(values[::997]))
    cli._write_csv(tmp_path / "t.csv", "a,b,c", list(values.T))
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "a,b,c" and len(lines) == rows + 1
    for line, row in zip(lines[1:], values.tolist()):
        assert line == ",".join(map(fmt_float, row))


def test_truncated_checkpoint_is_io_error(tmp_path):
    p = tmp_path / "trunc.json"
    p.write_text('{"schema_version": 1, "stage": "A", "psi": [0.1, 0.2')
    assert main(["profile", str(p), str(tmp_path / "o.csv")]) == EXIT_IO


# --- full runs -----------------------------------------------------------------

@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    out = tmp / "out"
    cfg = fast_config(out)
    path = write_config(tmp, cfg)
    code = main(["run", str(path)])
    assert code == EXIT_OK
    return tmp, out, cfg, path


def test_run_artifacts(completed_run):
    _, out, _, _ = completed_run
    header, rows = read_rows(out / "path.csv")
    assert header[:3] == ["stage", "family_param", "c"]
    assert rows[0]["stage"] == "A" and rows[0]["family_param"] == "0"
    assert rows[-1]["stage"] == "C" and rows[-1]["family_param"] == "1"
    stages = [r["stage"] for r in rows]
    assert "B" in stages
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["stages"]) == {"A", "B", "C"}
    assert all(r["bounds_ok"] == "1" for r in rows)


def test_c_one_dim_is_the_certified_s0_speed(completed_run):
    # the discrete 1-D speed: the c of path.csv row 1 (stage A, s = 0), whose
    # certificates hold, and never the speed of the shooting guess
    _, out, _, _ = completed_run
    _, rows = read_rows(out / "path.csv")
    summary = json.loads((out / "summary.json").read_text())
    assert (rows[0]["stage"], rows[0]["family_param"]) == ("A", "0")
    assert fmt_float(summary["c_one_dim"]) == rows[0]["c"]
    assert all(rows[0][k] == "1" for k in ("bounds_ok", "monotone_ok", "sandwich_ok",
                                           "left_decay_ok"))


def test_run_path_parameters(completed_run):
    # every accepted step grows 3 times, so stages A and C each reach 1 in three steps
    _, out, _, _ = completed_run
    _, rows = read_rows(out / "path.csv")
    assert [(r["stage"], r["family_param"]) for r in rows] == [
        ("A", "0"), ("A", "0.10000000000000001"), ("A", "0.40000000000000002"), ("A", "1"),
        ("B", "0.050000000000000003"), ("C", "0.15000000000000002"),
        ("C", "0.45000000000000007"), ("C", "1")]


def test_stage_filter_a_only(tmp_path):
    out = tmp_path / "out"
    cfg = fast_config(out)
    cfg["continuation"]["target_stage"] = "A"
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == EXIT_OK
    _, rows = read_rows(out / "path.csv")
    assert all(r["stage"] == "A" for r in rows)


def read_field(path):
    """The float columns of a CSV that `write_profile_files` wrote, after its header."""
    header, _, body = Path(path).read_text().partition("\n")
    return header, np.array([[float(v) for v in line.split(",")] for line in body.splitlines()])


def test_profile_emission(completed_run):
    # an exchange checkpoint: psi on every node as x,y,psi, row by row from
    # y = -L, and phi as x,phi beside it, each value the checkpoint's own
    tmp, out, _, _ = completed_run
    ckpt = checkpoints(out, "C")[-1]
    state, grid, _, _ = checkpoint_state(read_checkpoint(ckpt))
    assert state.phi is not None
    dest = tmp / "field_c.csv"
    assert main(["profile", str(ckpt), str(dest)]) == EXIT_OK
    header, field = read_field(dest)
    assert header == "x,y,psi" and field.shape == (grid.nx * grid.ny, 3)
    x, y, psi = field.T.reshape(3, grid.ny, grid.nx)
    assert np.array_equal(x, np.broadcast_to(grid.x, x.shape))
    assert np.array_equal(y, np.broadcast_to(grid.y[:, None], y.shape))
    assert np.array_equal(psi, state.psi)
    # the slices y = 0, -L/2 and -L are rows of the file, in 17-digit text
    lines = dest.read_text().splitlines()[1:]
    for j in (grid.ny - 1, (grid.ny - 1) // 2, 0):
        assert [ln.rpartition(",")[2] for ln in lines[j * grid.nx:(j + 1) * grid.nx]] == [
            fmt_float(v) for v in state.psi[j]]
    header, line = read_field(tmp / "field_c_line.csv")
    assert header == "x,phi" and np.array_equal(line, np.column_stack([grid.x, state.phi]))
    assert sorted(p.name for p in tmp.glob("field_c*")) == ["field_c.csv", "field_c_line.csv"]


def test_profile_of_a_wentzell_state_has_no_line_file(completed_run, tmp_path):
    _, out, _, _ = completed_run
    ckpt = checkpoints(out, "A")[0]
    state, grid, _, _ = checkpoint_state(read_checkpoint(ckpt))
    dest = tmp_path / "field_a.csv"
    assert main(["profile", str(ckpt), str(dest)]) == EXIT_OK
    header, field = read_field(dest)
    assert header == "x,y,psi" and np.array_equal(field[:, 2], state.psi.ravel())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field_a.csv"]


@pytest.mark.parametrize("ckpt_name, out_name", [("a.json", "a.json"), ("a.json", "sub/../a.json"),
                                                 ("a_line.csv", "a.csv")],
                         ids=["same_path", "same_file", "line_file"])
def test_profile_refuses_to_overwrite_its_checkpoint(completed_run, tmp_path, capsys, ckpt_name,
                                                     out_name):
    # the checkpoint is the only copy of a stage's end state: refused, no file written
    _, out, _, _ = completed_run
    ckpt = tmp_path / ckpt_name
    ckpt.write_bytes(checkpoints(out, "C")[-1].read_bytes())
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["profile", str(ckpt), str(tmp_path / out_name)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: profile: ") and err.count("\n") == 1
    assert "which it would overwrite" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert read_checkpoint(ckpt)["stage"] == "C"


def test_profile_of_a_wentzell_state_may_share_a_line_name(completed_run, tmp_path):
    # a Wentzell state writes no line file, so a checkpoint named like one is kept
    _, out, _, _ = completed_run
    ckpt = tmp_path / "a_line.csv"
    ckpt.write_bytes(checkpoints(out, "A")[-1].read_bytes())
    assert main(["profile", str(ckpt), str(tmp_path / "a.csv")]) == EXIT_OK
    assert read_checkpoint(ckpt)["stage"] == "A"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a_line.csv"]


def test_wave_out_env_override(tmp_path, monkeypatch):
    redirected = tmp_path / "redirected"
    monkeypatch.setenv("WAVE_OUT", str(redirected))
    cfg = fast_config(tmp_path / "ignored")
    cfg["continuation"]["target_stage"] = "A"
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == EXIT_OK
    assert (redirected / "path.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_each_checkpoint_written_once(tmp_path, monkeypatch):
    written = []
    real_write = cli.write_checkpoint
    monkeypatch.setattr(cli, "write_checkpoint",
                        lambda path, data: (written.append(path.name), real_write(path, data)))
    out = tmp_path / "out"
    cfg = fast_config(out, checkpoint_every=1)
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    assert len(written) == len(set(written))
    _, rows = read_rows(out / "path.csv")
    assert {r["stage"] for r in rows} == {"A", "B", "C"}
    # one checkpoint per path.csv record, named by its row and stage
    assert sorted(p.name for p in out.glob("ckpt_*")) == sorted(written) == [
        f"ckpt_{k:04d}_{r['stage']}.json" for k, r in enumerate(rows, start=1)]


def test_rerun_deletes_an_earlier_error_json(tmp_path):
    out = tmp_path / "out"
    cfg = fast_config(out)
    cfg["continuation"]["target_stage"] = "A"
    cfg["grid"] = {"x_left": -20.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_SOLVER  # x_left too close
    assert json.loads((out / "error.json").read_text())["exit_code"] == EXIT_SOLVER
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    assert not (out / "error.json").exists()


def test_a_failed_certificate_stops_the_run(tmp_path, capsys, monkeypatch):
    # from the third record made on, every record fails monotone_ok: the start
    # and the first stage A step are rows with checkpoints; the march rejects
    # every later trial, halving its step until it collapses, and writes no
    # row for a rejected trial
    made = []
    real = continuation.run_diagnostics

    def uncertified_from_the_third(*args):
        made.append(real(*args))
        return dataclasses.replace(made[-1], monotone_ok=len(made) < 3)

    monkeypatch.setattr(continuation, "run_diagnostics", uncertified_from_the_third)
    out = tmp_path / "out"
    cfg = fast_config(out, checkpoint_every=1)
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    capsys.readouterr()
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_SOLVER
    _, rows = read_rows(out / "path.csv")
    assert [r["monotone_ok"] for r in rows] == ["1", "1"] and len(made) > 3
    assert sorted(p.name for p in out.glob("ckpt_*")) == ["ckpt_0001_A.json", "ckpt_0002_A.json"]
    assert not (out / "summary.json").exists()
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "StepCollapse" and error["exit_code"] == EXIT_SOLVER
    last = rows[-1]
    assert error["message"].startswith(f"continuation step below 0.0001 at A parameter "
                                       f"{float(last['family_param']):.6f}: record at parameter ")
    assert error["message"].endswith(", fails monotone_ok")
    assert capsys.readouterr().err == f"error: StepCollapse: {error['message']}\n"


def test_a_failed_stage_b_record_stops_the_run(tmp_path, capsys, monkeypatch):
    # stage B's record is made by no march, which would reject it: it stops the
    # run once its row is written, so path.csv shows the failure, but gets no
    # checkpoint
    real = continuation.run_diagnostics

    def uncertified_exchange(state, *args):
        report = real(state, *args)
        return dataclasses.replace(report, sandwich_ok=not state.family.is_exchange)

    monkeypatch.setattr(continuation, "run_diagnostics", uncertified_exchange)
    out = tmp_path / "out"
    cfg = fast_config(out, checkpoint_every=1)
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    capsys.readouterr()
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_SOLVER
    _, rows = read_rows(out / "path.csv")
    *marched, last = rows
    assert [r["stage"] for r in rows] == ["A"] * len(marched) + ["B"]
    assert [r["sandwich_ok"] for r in rows] == ["1"] * len(marched) + ["0"]
    assert sorted(p.name for p in out.glob("ckpt_*")) == [
        f"ckpt_{k:04d}_A.json" for k in range(1, len(rows))]
    assert not (out / "summary.json").exists()
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "CertificateFailed" and error["exit_code"] == EXIT_SOLVER
    assert error["message"] == (f"stage B record at parameter {last['family_param']}, "
                                f"c = {last['c']}, fails sandwich_ok")
    assert capsys.readouterr().err == f"error: CertificateFailed: {error['message']}\n"


def test_a_failed_certificate_stops_its_sweep_point(tmp_path, capsys, monkeypatch):
    real = continuation.run_diagnostics

    def uncertified_at_d4(state, params, *args):  # forked pool workers inherit it
        report = real(state, params, *args)
        return dataclasses.replace(report, left_decay_ok=params.D != 4.0)

    monkeypatch.setattr(continuation, "run_diagnostics", uncertified_at_d4)
    out = tmp_path / "out"
    cfg = fast_config(out)
    cfg["continuation"]["target_stage"] = "A"
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg)), "--sweep", "D=2,4"]) == EXIT_SOLVER
    assert capsys.readouterr().out == "D = 2: exit 0\nD = 4: exit 3\n"
    error = json.loads((out / "D_4" / "error.json").read_text())
    assert error["error"] == "CertificateFailed" and error["message"].startswith(
        "stage A record at parameter 0, c = ")
    assert error["message"].endswith(", fails left_decay_ok")
    assert not (out / "D_2" / "error.json").exists()
    _, rows = read_rows(out / "D_4" / "path.csv")
    assert [(r["family_param"], r["left_decay_ok"]) for r in rows] == [("0", "0")]


def test_wave_out_empty_is_refused(tmp_path, capsys, monkeypatch):
    # an empty WAVE_OUT names the current directory, whose checkpoints a run would delete
    cfg_path = write_config(tmp_path, fast_config(tmp_path / "out"))
    work = tmp_path / "work"
    work.mkdir()
    files = {"ckpt_0001_A.json": "{}", "error.json": '{"exit_code": 3}'}
    for name, text in files.items():
        (work / name).write_text(text)
    monkeypatch.chdir(work)
    monkeypatch.setenv("WAVE_OUT", "")
    for argv in (["run", str(cfg_path)], ["run", str(cfg_path), "--sweep", "D=2"],
                 ["resume", "ckpt_0001_A.json", str(cfg_path)],
                 ["symbol-scan", str(cfg_path), "--n", "11"]):
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION, argv
        assert capsys.readouterr().err == ("error: ConfigError: WAVE_OUT: must be nonempty "
                                           "when set\n")
        assert {p.name: p.read_text() for p in work.iterdir()} == files
    assert not (tmp_path / "out").exists()


def test_rerun_deletes_the_earlier_runs_checkpoints(tmp_path):
    # a run at D = 4 with a checkpoint per row, then one at D = 2 with one per
    # three rows, into the same directory: it ends as a lone D = 2 run's does
    cfg = fast_config(tmp_path / "out", checkpoint_every=1)
    cfg["continuation"]["target_stage"] = "A"
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    kept = ["notes.txt", "ckpt_1_A.json", "ckpt_0001_A.json.bak", "ckpt_0001_D.json"]
    for name in kept:  # not the program's checkpoint names
        (tmp_path / "out" / name).write_text("{}")
    cfg["params"]["D"], cfg["checkpoint_every"] = 2.0, 3
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    lone = dict(cfg, output_dir=str(tmp_path / "lone"))
    assert main(["run", str(write_config(tmp_path, lone, "lone.json"))]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "lone").iterdir())
    assert "ckpt_0003_A.json" in names
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(names + kept)


def test_a_rerun_leaves_no_earlier_summary_or_profiles(tmp_path):
    # a full run, then into the same directory a run that stops at stage A and
    # one that fails at its start (NegativeSpeed at theta = 0.9): neither
    # leaves the earlier run's summary.json, or the profiles an older version
    # wrote beside its rows; a run itself writes no profile
    out = tmp_path / "out"
    cfg = fast_config(out)
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir() if not cli.CHECKPOINT_NAME.fullmatch(p.name)) \
        == ["path.csv", "summary.json"]
    stale = ["profile_A_1.csv", "profile_B_0.05.csv", "profile_B_0.05_line.csv",
             "profile_C_1.csv", "profile_C_1_line.csv"]
    kept = ["profile_A_1.csv.bak", "profile_D_1.csv", "profile_A_x.csv", "summary.json.bak"]
    for name in stale + kept:  # the names of an older version's profiles, then other names
        (out / name).write_text("")
    cfg["continuation"]["target_stage"] = "A"
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    lone = dict(cfg, output_dir=str(tmp_path / "lone"))
    assert main(["run", str(write_config(tmp_path, lone, "lone.json"))]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "lone").iterdir())
    assert "summary.json" in names and not any(cli.PROFILE_NAME.fullmatch(n) for n in names)
    assert sorted(p.name for p in out.iterdir()) == sorted(names + kept)
    for name in stale:
        (out / name).write_text("")
    cfg["nonlinearity"]["theta"] = 0.9
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_SOLVER
    assert json.loads((out / "error.json").read_text())["error"] == "NegativeSpeed"
    assert sorted(p.name for p in out.iterdir()) == sorted(["error.json", "path.csv"] + kept)


def test_determinism_byte_identical_paths(tmp_path):
    cfg1 = fast_config(tmp_path / "o1")
    cfg1["continuation"]["target_stage"] = "A"
    cfg1["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    p1 = write_config(tmp_path, cfg1, "c1.json")
    cfg2 = dict(cfg1, output_dir=str(tmp_path / "o2"))
    p2 = write_config(tmp_path, cfg2, "c2.json")
    assert main(["run", str(p1)]) == EXIT_OK
    assert main(["run", str(p2)]) == EXIT_OK
    assert (tmp_path / "o1" / "path.csv").read_bytes() == \
           (tmp_path / "o2" / "path.csv").read_bytes()
    ckpts = sorted(p.name for p in (tmp_path / "o1").glob("ckpt_*.json"))
    assert ckpts and ckpts == sorted(p.name for p in (tmp_path / "o2").glob("ckpt_*.json"))
    for name in ckpts:
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


# --- resume ---------------------------------------------------------------------

def test_one_record_per_row(tmp_path, monkeypatch):
    # a march makes a record of each trial it solves and sends only those it
    # accepts, none rejected here: every record made is a row, apart from a
    # resume's start, the record of its checkpoint
    made = []

    def counting(make):
        def counted(stage, *args):
            made.append(stage)
            return make(stage, *args)
        return counted

    for module in (cli, continuation):
        monkeypatch.setattr(module, "make_record", counting(module.make_record))
    out = tmp_path / "out"
    cfg = fast_config(out)
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    _, rows = read_rows(out / "path.csv")
    assert made == [r["stage"] for r in rows]
    made.clear()
    resumed_out = tmp_path / "resumed"
    cfg_path = write_config(tmp_path, dict(cfg, output_dir=str(resumed_out)), "resume.json")
    assert main(["resume", str(out / "ckpt_0003_A.json"), str(cfg_path)]) == EXIT_OK
    _, rows = read_rows(resumed_out / "path.csv")
    assert made == ["A"] + [r["stage"] for r in rows]


# from the first checkpoint of each stage: the last, of stage C, ends the run
@pytest.mark.parametrize("stage", ["A", "B", "C"])
def test_resume_matches_uninterrupted(completed_run, tmp_path, stage):
    tmp, out, cfg, cfg_path = completed_run
    full = (out / "path.csv").read_bytes().splitlines(keepends=True)
    ckpt = checkpoints(out, stage)[0]
    row = int(ckpt.name[5:9])
    assert row < len(full) - 1
    resumed_out = tmp_path / "resumed"
    cfg_resume = dict(cfg, output_dir=str(resumed_out))
    cfg_resume_path = tmp_path / "resume.json"
    cfg_resume_path.write_text(json.dumps(cfg_resume, indent=1))
    # identical physics but different output_dir: the hash leaves output_dir out
    assert main(["resume", str(ckpt), str(cfg_resume_path)]) == EXIT_OK
    resumed = (resumed_out / "path.csv").read_bytes().splitlines(keepends=True)
    # the header, then the rows after the checkpoint's record
    assert resumed == full[:1] + full[1 + row:]
    # a resume writes no profile; the end state of each stage it ran, its
    # highest-row checkpoint, profiles byte for byte as the run's does
    assert not list(resumed_out.glob("profile_*"))
    for ran in {"A": "ABC", "B": "C", "C": "C"}[stage]:
        fields = []
        for run in (out, resumed_out):
            field = tmp_path / f"{run.name}_{ran}.csv"
            end = checkpoints(run, ran)[-1]
            assert main(["profile", str(end), str(field)]) == EXIT_OK
            fields.append([p.read_bytes() for p in sorted(tmp_path.glob(f"{run.name}_{ran}*"))])
        assert fields[0] == fields[1] and len(fields[0]) == (1 if ran == "A" else 2), ran


def test_resume_on_a_grid_with_a_coarse_level_matches_uninterrupted(tmp_path, caplog):
    # 241 x 21, the fewest rows with a coarse level (121 x 5): each stage A trial
    # starts from the two-grid predictor, a function of its record alone, so a
    # resume from the run's first records writes the uninterrupted rows byte for byte
    out = tmp_path / "out"
    cfg = fast_config(out, checkpoint_every=1)
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 21}
    with caplog.at_level(logging.INFO, logger="stripwave.continuation"):
        assert main(["run", str(write_config(tmp_path, cfg))]) == EXIT_OK
    assert sum("; two-grid predictor, " in line for line in caplog.messages) == 3
    full = (out / "path.csv").read_bytes().splitlines(keepends=True)
    for row in (1, 2):
        resumed_out = tmp_path / f"resumed_{row}"
        cfg_path = write_config(tmp_path, dict(cfg, output_dir=str(resumed_out)), "resume.json")
        assert main(["resume", str(out / f"ckpt_{row:04d}_A.json"), str(cfg_path)]) == EXIT_OK
        resumed = (resumed_out / "path.csv").read_bytes().splitlines(keepends=True)
        assert resumed == full[:1] + full[1 + row:]


def test_a_run_without_a_coarse_level_keeps_the_secant_path(completed_run, monkeypatch,
                                                             tmp_path):
    # 481 x 11 has no coarse level: its stage A marches on the secant
    # predictor, every Newton solve is on the run's grid or the start's three
    # rows, and its speeds are the bits the secant-only march wrote
    _, out, cfg, _ = completed_run
    assert continuation.coarse_level(config_from_dict(cfg).grid) is None
    _, rows = read_rows(out / "path.csv")
    assert [r["c"] for r in rows] == [
        "0.26338322826838345", "0.28311981735407105", "0.30265263685368288",
        "0.29399400704061951", "0.29391476264584776", "0.29375489429815871",
        "0.2932626067547458", "0.29232586899203239"]
    solve, grids = continuation.newton_solve, set()

    def recorded(init, params, spec, grid, opts, **kwargs):
        grids.add((grid.nx, grid.ny))
        return solve(init, params, spec, grid, opts, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", recorded)
    rerun = tmp_path / "rerun"
    assert main(["run", str(write_config(tmp_path, dict(cfg, output_dir=str(rerun))))]) == EXIT_OK
    assert grids == {(481, 3), (481, 11)}
    assert (rerun / "path.csv").read_bytes() == (out / "path.csv").read_bytes()


# a resume from the end of stage C, the last target, is refused: nothing is left to run
# (test_resume_past_the_target_stage_is_refused)
@pytest.mark.parametrize("stage", ["A"])
def test_resume_from_stage_end(completed_run, tmp_path, stage):
    tmp, out, cfg, _ = completed_run
    _, rows = read_rows(out / "path.csv")
    end = max(k for k, r in enumerate(rows, start=1) if r["stage"] == stage)
    resumed_out = tmp_path / "resumed"
    cfg_path = write_config(tmp_path, dict(cfg, output_dir=str(resumed_out), checkpoint_every=1))
    # checkpoint_every is not hashed, so this needs no --force
    assert main(["resume", str(out / f"ckpt_{end:04d}_{stage}.json"), str(cfg_path)]) == EXIT_OK
    _, resumed = read_rows(resumed_out / "path.csv")
    assert resumed == rows[end:]
    # the start record is not on path.csv, so it gets no checkpoint (no ckpt_0000_*)
    assert sorted(p.name for p in resumed_out.glob("ckpt_*")) == [
        f"ckpt_{k:04d}_{r['stage']}.json" for k, r in enumerate(resumed, start=1)]


@pytest.mark.parametrize("stage, field", [("A", "psi"), ("A", "control.prev_psi"),
                                          ("C", "control.prev_phi")],
                         ids=["psi", "prev_psi", "prev_phi"])
def test_resume_from_nan_state_stops(completed_run, tmp_path, capsys, monkeypatch, stage,
                                     field):
    # a NaN state is reported at once, by field, before any Newton solve
    _, out, cfg, _ = completed_run
    ckpt = read_checkpoint(checkpoints(out, stage)[-1])
    section, _, name = field.rpartition(".")
    (ckpt[section] if section else ckpt)[name][100] = np.nan
    ckpt_path = tmp_path / "ckpt.json"
    write_checkpoint(ckpt_path, ckpt)
    resumed_out = tmp_path / "resumed"
    cfg_path = write_config(tmp_path, dict(cfg, output_dir=str(resumed_out)))

    def no_newton(*args, **kwargs):
        raise AssertionError("newton_solve called on a non-finite checkpoint")

    for module in (cli, continuation):
        monkeypatch.setattr(module, "newton_solve", no_newton)
    capsys.readouterr()
    assert main(["resume", str(ckpt_path), str(cfg_path)]) == EXIT_IO
    assert capsys.readouterr().err == (f"error: ValueError: checkpoint {ckpt_path}: field "
                                       f"'{field}' holds a non-finite value\n")
    assert json.loads((resumed_out / "error.json").read_text())["exit_code"] == EXIT_IO
    assert not (resumed_out / "path.csv").exists()


def test_resume_continues_a_run_stopped_at_stage_a(completed_run, tmp_path):
    # target_stage is not hashed: the same config, continued to C, needs no --force
    _, out, cfg, _ = completed_run
    stopped = fast_config(tmp_path / "stopped")
    stopped["continuation"]["target_stage"] = "A"
    assert main(["run", str(write_config(tmp_path, stopped, "stopped.json"))]) == EXIT_OK
    last = checkpoints(tmp_path / "stopped")[-1]
    resumed_out = tmp_path / "resumed"
    cfg_path = write_config(tmp_path, dict(cfg, output_dir=str(resumed_out)))
    assert main(["resume", str(last), str(cfg_path)]) == EXIT_OK
    _, rows = read_rows(out / "path.csv")
    _, resumed = read_rows(resumed_out / "path.csv")
    _, stopped_rows = read_rows(tmp_path / "stopped" / "path.csv")
    end = len(stopped_rows)
    assert last.name == f"ckpt_{end:04d}_A.json" and resumed == rows[end:]


@pytest.mark.parametrize("stage, target, resumes_in", [("C", "A", "C"), ("B", "B", "C"),
                                                      ("A", "A", "A"), ("C", "C", "C")])
def test_resume_past_the_target_stage_is_refused(completed_run, tmp_path, capsys, stage,
                                                 target, resumes_in):
    # nothing is left to run, also from the last checkpoint of the target stage, which ends
    # it at parameter 1: the resume stops before it touches its directory
    _, out, cfg, _ = completed_run
    ckpt = checkpoints(out, stage)[-1]
    resumed_out = tmp_path / "resumed"
    resumed_out.mkdir()
    (resumed_out / "ckpt_0001_A.json").write_text("{}")  # an earlier run's checkpoint
    stopped = dict(cfg, output_dir=str(resumed_out))
    stopped["continuation"] = dict(cfg["continuation"], target_stage=target)
    capsys.readouterr()
    assert main(["resume", str(ckpt), str(write_config(tmp_path, stopped))]) == EXIT_VALIDATION
    reason = (f"resumes in stage {resumes_in}, past the target" if resumes_in != target
              else "at parameter 1 already ends the target stage")
    assert capsys.readouterr().err == (f"error: ConfigError: continuation.target_stage: a stage "
                                       f"{stage} checkpoint {reason} '{target}'\n")
    assert sorted(p.name for p in resumed_out.iterdir()) == ["ckpt_0001_A.json", "error.json"]


def test_resume_refuses_the_checkpoint_directory(tmp_path, capsys, monkeypatch):
    # a resume into the directory of its checkpoint would overwrite the run it resumes
    out = tmp_path / "out"
    cfg = fast_config(out, checkpoint_every=1)
    cfg["continuation"]["target_stage"] = "A"
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    ckpt = out / "ckpt_0001_A.json"
    capsys.readouterr()
    assert main(["resume", str(ckpt), str(cfg_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
    assert str(out) in err and str(ckpt) in err and "WAVE_OUT" in err and "output_dir" in err
    # the same directory by another name, through WAVE_OUT
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WAVE_OUT", "out/../out")
    assert main(["resume", str(ckpt), str(cfg_path)]) == EXIT_VALIDATION
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_hash_check(completed_run, tmp_path):
    tmp, out, cfg, _ = completed_run
    ckpt = next(iter(sorted(out.glob("ckpt_*.json"))))
    edited = dict(cfg)
    edited["params"] = dict(cfg["params"], D=8.0)
    edited_path = tmp_path / "edited.json"
    edited_path.write_text(json.dumps(edited, indent=1))
    assert main(["resume", str(ckpt), str(edited_path)]) == EXIT_VALIDATION


def test_resume_force_over_a_config_that_changes_no_number(completed_run, tmp_path, capsys):
    # max_iters 50 -> 51 changes the hash but no iterate: Newton converges well within 50
    _, out, cfg, _ = completed_run
    full = (out / "path.csv").read_bytes().splitlines(keepends=True)
    edited = dict(cfg, output_dir=str(tmp_path / "resumed"))
    edited["newton"] = dict(cfg["newton"], max_iters=51)
    edited_path = write_config(tmp_path, edited)
    ckpt = str(out / "ckpt_0003_A.json")
    assert main(["resume", ckpt, str(edited_path)]) == EXIT_VALIDATION
    assert "ConfigHashMismatch" in capsys.readouterr().err
    assert main(["resume", ckpt, str(edited_path), "--force"]) == EXIT_OK
    resumed = (tmp_path / "resumed" / "path.csv").read_bytes().splitlines(keepends=True)
    assert resumed == full[:1] + full[1 + 3:]


def test_resume_force_does_not_override_the_grid(completed_run, tmp_path, capsys):
    _, out, cfg, _ = completed_run
    edited = dict(cfg, output_dir=str(tmp_path / "resumed"))
    edited["grid"] = dict(cfg["grid"], nx=241)
    capsys.readouterr()
    assert main(["resume", str(out / "ckpt_0003_A.json"), str(write_config(tmp_path, edited)),
                 "--force"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("error: ConfigHashMismatch: checkpoint grid does not "
                                       "match the configuration grid\n")
    assert not (tmp_path / "resumed" / "path.csv").exists()


def test_resume_from_an_uncertified_checkpoint_stops(completed_run, tmp_path, capsys,
                                                     monkeypatch):
    # the start record is certified before any Newton solve and any write
    _, out, cfg, _ = completed_run
    ckpt = read_checkpoint(out / "ckpt_0003_A.json")
    psi = ckpt["psi"].reshape(cfg["grid"]["ny"], cfg["grid"]["nx"])
    front = int(np.argmax(psi[0] > 0.5))
    psi[:, front + 1] = psi[:, front] - 1e-3  # psi now decreases in x there
    ckpt_path = tmp_path / "ckpt.json"
    write_checkpoint(ckpt_path, ckpt)
    resumed_out = tmp_path / "resumed"
    resumed_out.mkdir()
    (resumed_out / "ckpt_0001_A.json").write_text("{}")  # an earlier run's checkpoint
    cfg_path = write_config(tmp_path, dict(cfg, output_dir=str(resumed_out)))

    def no_newton(*args, **kwargs):
        raise AssertionError("newton_solve called from an uncertified checkpoint")

    for module in (cli, continuation):
        monkeypatch.setattr(module, "newton_solve", no_newton)
    capsys.readouterr()
    assert main(["resume", str(ckpt_path), str(cfg_path)]) == EXIT_SOLVER
    assert capsys.readouterr().err == (
        f"error: CertificateFailed: stage A record at parameter {fmt_float(ckpt['parameter'])}, "
        f"c = {fmt_float(ckpt['c'])}, fails monotone_ok\n")
    assert json.loads((resumed_out / "error.json").read_text())["exit_code"] == EXIT_SOLVER
    # stopped before it touched its directory, as a refused resume is
    assert sorted(p.name for p in resumed_out.iterdir()) == ["ckpt_0001_A.json", "error.json"]


# --- other subcommands ------------------------------------------------------------

def test_oned_subcommand(tmp_path, capsys):
    cfg = fast_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    dest = tmp_path / "front.csv"
    assert main(["oned", str(path), "--out", str(dest)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("c = 0.26343617")
    assert dest.read_text().splitlines()[0] == "x,psi"


@pytest.mark.parametrize("nonlinearity", [{"kind": "smooth_cubic", "theta": 0.3},
                                          {"kind": "piecewise_linear_oracle", "theta": 0.25}],
                         ids=["cubic", "oracle"])
def test_oned_prints_the_confirmed_oracle_speed(tmp_path, capsys, monkeypatch, nonlinearity):
    # `wave oned` stays the shooting oracle, confirmed at the fine step, and
    # never the coarse guess a run starts from
    def refuse(*args):
        raise AssertionError("wave oned called the run's guess")

    monkeypatch.setattr(cli, "one_dim_guess", refuse)
    path = write_config(tmp_path, fast_config(tmp_path / "out", nonlinearity=nonlinearity))
    assert main(["oned", str(path)]) == EXIT_OK
    cfg = load_config(path)
    wave = stripwave.solve_1d_ignition_shooting(cfg.params.d, cfg.nonlinearity, cfg.shooting_tol)
    printed = capsys.readouterr().out
    assert printed == f"c = {fmt_float(wave.c)}\n" and float(printed[4:]) == wave.c


def test_symbol_scan_subcommand(tmp_path, capsys):
    cfg = fast_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    dest = tmp_path / "scan.csv"
    assert main(["symbol-scan", str(path), "--n", "101", "--xi-max", "10",
                 "--out", str(dest)]) == EXIT_OK
    lines = dest.read_text().splitlines()
    assert lines[0] == "xi,re_F,im_F,abs_F"
    assert len(lines) == 102
    # sinh(beta L) overflows at the ends of the default scan for L = 20
    cfg["params"]["L"] = 20.0
    path = write_config(tmp_path, cfg, "long.json")
    assert main(["symbol-scan", str(path), "--out", str(tmp_path / "long.csv")]) == EXIT_OK
    text = (tmp_path / "long.csv").read_text()
    assert "inf" in text and "nan" not in text
    capsys.readouterr()
    assert main(["symbol-scan", str(path), "--n", "0", "--out", str(tmp_path / "none.csv")]) \
        == EXIT_IO
    assert capsys.readouterr().err == "error: ValueError: n must be >= 2, got 0\n"
    assert not (tmp_path / "none.csv").exists()
    assert main(["symbol-scan", str(path), "--epsilon", "-1",
                 "--out", str(tmp_path / "negative.csv")]) == EXIT_IO
    assert capsys.readouterr().err == "error: ValueError: epsilon must be >= 0, got -1.0\n"
    assert not (tmp_path / "negative.csv").exists()
    # a non-finite argument would print min |F| = nan, certifying nothing
    for flag, value in [("--xi-max", "inf"), ("--epsilon", "nan"), ("--c0", "inf"),
                        ("--c1", "inf")]:
        dest = tmp_path / f"{flag[2:]}_{value}.csv"
        assert main(["symbol-scan", str(path), flag, value, "--out", str(dest)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert f"{flag[2:].replace('-', '_')} must be finite, got {value}" in err
        assert not dest.exists()


def test_config_hash_is_stable():
    cfg = default_config_dict()
    h1 = config_hash(cfg)
    h2 = config_hash(json.loads(json.dumps(cfg)))
    assert h1 == h2
    cfg["output_dir"] = "elsewhere"  # a deployment path, not the numerics
    cfg["checkpoint_every"] = 1  # which files a run writes, and where it stops
    cfg["continuation"]["target_stage"] = "A"
    assert config_hash(cfg) == h1 and len(h1) == 64
    cfg["continuation"]["initial_step"] = 0.2
    assert config_hash(cfg) != h1
    cfg["continuation"]["initial_step"] = 0.1
    assert config_hash(cfg) == h1
    cfg["params"]["D"] = 8.0
    assert config_hash(cfg) != h1


def test_sweep_runs_independent_configs(tmp_path):
    out = tmp_path / "sweep_out"
    cfg = fast_config(out)
    cfg["continuation"]["target_stage"] = "A"
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--sweep", "D=2,4"]) == EXIT_OK
    for v in ("2", "4"):
        rows = (out / f"D_{v}" / "path.csv").read_text().strip().splitlines()
        assert len(rows) > 2
    # the points stop after stage A, so no row has a system speed
    _, rows = read_rows(out / "sweep.csv")
    assert [r["D"] for r in rows] == ["2", "4"]
    assert all(np.isfinite(float(r["c_wentzell"])) and r["c_system"] == "nan" for r in rows)


@pytest.mark.parametrize("sweep", ["D=abc", "mu=1,2", "D="])
def test_sweep_parse_error(tmp_path, capsys, sweep):
    cfg = fast_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path), "--sweep", sweep]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ConfigError: --sweep")


@pytest.mark.parametrize("sweep, named", [("D=1,1.0000001", "D=1 and D=1.0000001"),
                                          ("D=1,1", "D=1 and D=1")])
def test_sweep_values_sharing_a_directory(tmp_path, capsys, sweep, named):
    out = tmp_path / "out"
    path = write_config(tmp_path, fast_config(out))
    assert main(["run", str(path), "--sweep", sweep]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: --sweep") and f"{named} would both write" in err
    assert str(out / "D_1") in err
    assert not out.exists()  # refused before any work


@pytest.fixture
def guess_calls(tmp_path, monkeypatch):
    """A function that counts the `one_dim_guess` calls of the CLI so far,
    in this process and in the pool workers, which are forked from it and
    so inherit the patch: each call appends a line to a file."""
    calls = tmp_path / "guess_calls"
    calls.touch()
    real_guess = cli.one_dim_guess

    def counted_guess(*args, **kwargs):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_guess(*args, **kwargs)

    monkeypatch.setattr(cli, "one_dim_guess", counted_guess)
    return lambda: len(calls.read_text().splitlines())


def test_sweep_point_equals_standalone_run(tmp_path, guess_calls):
    cfg = fast_config(tmp_path / "sweep")
    assert main(["run", str(write_config(tmp_path, cfg)), "--sweep", "D=2,4"]) == EXIT_OK
    assert guess_calls() == 1  # one start for the whole sweep
    for v in (2.0, 4.0):
        point, alone = tmp_path / "sweep" / f"D_{v:g}", tmp_path / f"alone_{v:g}"
        data = json.loads(json.dumps(cfg))
        data["params"]["D"], data["output_dir"] = v, str(alone)
        assert main(["run", str(write_config(tmp_path, data, f"alone_{v:g}.json"))]) == EXIT_OK
        names = sorted(p.name for p in alone.iterdir())
        assert sorted(p.name for p in point.iterdir()) == names
        _, rows = read_rows(alone / "path.csv")
        assert {"path.csv", f"ckpt_{len(rows):04d}_C.json", "summary.json"} <= set(names)
        for name in names:
            if name != "summary.json":
                assert (point / name).read_bytes() == (alone / name).read_bytes(), (v, name)
        summaries = [json.loads((d / "summary.json").read_text()) for d in (point, alone)]
        timings = [summary.pop("timings_s") for summary in summaries]
        assert summaries[0] == summaries[1]
        # the point did not shoot, so it reports no shooting time
        assert sorted(timings[0]) == ["A", "B", "C"]
        assert sorted(timings[1]) == ["A", "B", "C", "shooting"]
    assert guess_calls() == 3


def test_sweep_failed_start_is_reported_per_point(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = fast_config(out, shooting_tol=0.5)
    cfg["nonlinearity"] = {"kind": "piecewise_linear_oracle", "theta": 0.9}
    assert main(["run", str(write_config(tmp_path, cfg)), "--sweep", "D=2,4"]) == EXIT_SOLVER
    for v in ("2", "4"):
        error = json.loads((out / f"D_{v}" / "error.json").read_text())
        assert error["error"] == "BracketNotFound" and error["exit_code"] == EXIT_SOLVER
    assert capsys.readouterr().out == "D = 2: exit 3\nD = 4: exit 3\n"
    assert (out / "sweep.csv").read_text() == (
        "D,c_one_dim,c_wentzell,c_system\n2,nan,nan,nan\n4,nan,nan,nan\n")


def test_a_failed_sweep_start_leaves_each_point_as_its_plain_run(tmp_path, guess_calls):
    # the start fails (theta 0.9 gives c <= 0) over a sweep that succeeded:
    # each point then runs its own start, which fails as its plain run's does,
    # so its directory is reset as that run's, with no checkpoint, profile or
    # summary of the earlier run left in it
    out = tmp_path / "out"
    cfg = fast_config(out)
    cfg["continuation"]["target_stage"] = "A"
    cfg["grid"] = {"x_left": -160.0, "x_right": 80.0, "nx": 241, "ny": 5}
    assert main(["run", str(write_config(tmp_path, cfg)), "--sweep", "D=2,4"]) == EXIT_OK
    assert guess_calls() == 1  # the shared start alone
    cfg["nonlinearity"]["theta"] = 0.9
    assert main(["run", str(write_config(tmp_path, cfg)), "--sweep", "D=2,4"]) == EXIT_SOLVER
    assert guess_calls() == 1 + 1 + 2  # the shared start, then each point's own
    for v in (2.0, 4.0):
        point, alone = out / f"D_{v:g}", tmp_path / f"alone_{v:g}"
        data = json.loads(json.dumps(cfg))
        data["params"]["D"], data["output_dir"] = v, str(alone)
        assert main(["run", str(write_config(tmp_path, data, f"alone_{v:g}.json"))]) \
            == EXIT_SOLVER
        assert sorted(p.name for p in alone.iterdir()) == ["error.json", "path.csv"]
        assert sorted(p.name for p in point.iterdir()) == ["error.json", "path.csv"]
        for name in ("error.json", "path.csv"):
            assert (point / name).read_bytes() == (alone / name).read_bytes(), (v, name)
        assert json.loads((point / "error.json").read_text())["error"] == "NegativeSpeed"


def test_sweep_pool_fits_the_cpus_the_process_may_use(tmp_path, monkeypatch):
    asked = []

    class PoolAsked(Exception):
        pass

    def pool(max_workers):
        asked.append(max_workers)
        raise PoolAsked

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", pool)
    cfg = load_config(write_config(tmp_path, fast_config(tmp_path / "out")))
    with pytest.raises(PoolAsked):
        cli._run_sweep(cfg, tmp_path / "out", "D=2,4")
    assert asked == [1]  # two points, but one CPU to run them on


def test_sweep_table(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, fast_config(out))), "--sweep", "D=1"]) \
        == EXIT_OK
    header, rows = read_rows(out / "sweep.csv")
    assert header == ["D", "c_one_dim", "c_wentzell", "c_system"]
    assert len(rows) == 1 and float(rows[0]["D"]) == 1.0
    speeds = [float(rows[0][k]) for k in header[1:]]
    assert all(np.isfinite(speeds)) and min(speeds) > 0.0
    # the row holds the point's own speeds, to the last bit
    summary = json.loads((out / "D_1" / "summary.json").read_text())
    assert speeds == [summary["c_one_dim"], summary["stages"]["A"]["c"],
                      summary["stages"]["C"]["c"]]


def test_sweep_table_row_of_a_failed_point(tmp_path, capsys):
    # D = 64 needs |x_left| >= 8 D / c at s = 0, far beyond the grid's 160
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, fast_config(out))), "--sweep", "D=2,64"]) \
        == EXIT_SOLVER
    assert capsys.readouterr().out == "D = 2: exit 0\nD = 64: exit 3\n"
    assert json.loads((out / "D_64" / "error.json").read_text())["error"] == "ExtentTooSmall"
    _, rows = read_rows(out / "sweep.csv")
    assert [r["D"] for r in rows] == ["2", "64"]
    assert all(np.isfinite(float(v)) and float(v) > 0.0 for v in list(rows[0].values())[1:])
    # the shared start succeeded, so the failed point keeps its 1-D speed
    assert rows[1]["c_one_dim"] == rows[0]["c_one_dim"]
    assert (rows[1]["c_wentzell"], rows[1]["c_system"]) == ("nan", "nan")


# --- scripts ------------------------------------------------------------------------

def test_dispersion_curves_script(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "dispersion_curves.py"
    out = tmp_path / "dispersion.csv"
    proc = subprocess.run([sys.executable, str(script), str(out)], capture_output=True,
                          text=True, timeout=300, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    header, rows = read_rows(out)
    assert header == ["family", "parameter", "gamma", "gamma_lower_bound", "gamma_lim"]
    assert len(rows) == 42
    gammas = [float(r["gamma"]) for r in rows]
    assert all(np.isfinite(gammas)) and min(gammas) > 0.0


def test_run_default_script(tmp_path):
    # the documented script runs the default A -> B -> C path on 961 x 41
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_default.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=600, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    _, rows = read_rows(tmp_path / "out" / "path.csv")
    # the pinned stage-C speed of the default grid (test_pinned_default_path_speeds)
    assert rows[-1]["stage"] == "C"
    assert float(rows[-1]["c"]) == pytest.approx(0.292337339704275, abs=1e-9)


def test_scenario_scan_script(tmp_path):
    # two scenarios of the scan, compared with this same checkout
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "scenario_scan.py"),
                           "--against", str(root), "--keep", str(tmp_path / "scan"),
                           "default", "D=8"],
                          capture_output=True, text=True, timeout=600, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    default, d8 = proc.stdout.splitlines()
    assert default.startswith("default    exit=0 error=- rows=8 ") and default.endswith(" same")
    assert d8.startswith("D=8        exit=3 error=ExtentTooSmall rows=0 ")
    assert d8.endswith(" same")
    # the comparison reads every file, and a summary.json without its timings
    spec = importlib.util.spec_from_file_location("scenario_scan",
                                                  root / "scripts" / "scenario_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    ours, theirs = tmp_path / "scan" / "this" / "default" / "out", tmp_path / "theirs"
    theirs.mkdir()
    for path in ours.iterdir():
        (theirs / path.name).write_bytes(path.read_bytes())
    summary = json.loads((theirs / "summary.json").read_text())
    summary["timings_s"]["A"] += 1.0
    (theirs / "summary.json").write_text(json.dumps(summary))
    assert scan.differing(ours, theirs) == []
    (theirs / "path.csv").write_bytes((ours / "path.csv").read_bytes() + b"\n")
    (theirs / "extra.csv").write_text("")
    assert scan.differing(ours, theirs) == ["extra.csv", "path.csv"]
    # a differing path.csv is measured: the largest relative difference of c over
    # the rows matched by (stage, family_param), or that the rows differ
    assert scan.c_change(ours / "path.csv", theirs / "path.csv") == "c within 0.0e+00 relative"
    lines = (ours / "path.csv").read_text().splitlines(keepends=True)
    row = lines[2].split(",")
    row[2] = repr(float(row[2]) * (1.0 + 1e-13))
    (theirs / "path.csv").write_text("".join(lines[:2] + [",".join(row)] + lines[3:]))
    assert scan.c_change(theirs / "path.csv", ours / "path.csv") == "c within 1.0e-13 relative"
    (theirs / "path.csv").write_text("".join(lines[:-1]))
    assert scan.c_change(ours / "path.csv", theirs / "path.csv") == "rows differ"



def test_lu_layer_script():
    # a seconds-long run of the LU timing script on 241 x 21, against this same
    # checkout: each shape of J the default run factors (the grid in either
    # family, its 3-row start and its 5-row coarse level) gets one line per
    # part, the residual and Jacobian assembly included, before -> after, and
    # one for its pivot reach
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "lu_layer.py"), "--grid",
                           "241x21", "--rounds", "2", "--pairs", "1", "--against", str(root)],
                          capture_output=True, text=True, timeout=600, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line[:26] for line in lines] == [
        f"{shape:10} {part:14} " for shape in ("241 x 22", "241 x 21", "241 x 3", "121 x 5")
        for part in ("fill", "tail", "dgbtrf", "first solve", "checked solve", "residual",
                     "jacobian", "pivot reach")]
    times = r"\d+\.\d\d \(\d+\.\d\d-\d+\.\d\d\)"
    reach = r"\d+(\.5)? \[\d+\]"
    assert all(re.fullmatch(rf".{{26}}{times} -> {times} ms", line)
               or line[11:22] == "pivot reach" and re.fullmatch(rf".{{26}}{reach} -> {reach} rows",
                                                                 line) for line in lines), lines
    # a scenario of the scan by name; an unknown one is refused
    proc = subprocess.run([sys.executable, str(root / "scripts" / "lu_layer.py"), "--grid",
                           "241x21", "--rounds", "1", "--pairs", "1", "--scenario", "L=4"],
                          capture_output=True, text=True, timeout=600, env=subprocess_env())
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == len(lines), proc.stderr
    proc = subprocess.run([sys.executable, str(root / "scripts" / "lu_layer.py"), "--scenario",
                           "L=3"], capture_output=True, text=True, timeout=600,
                          env=subprocess_env())
    assert proc.returncode == 2 and "unknown scenario 'L=3'; known: default, D=0.25" in proc.stderr

def test_scenario_scan_counts_the_coarse_level_apart():
    # on 241 x 21, the fewest rows with a coarse level, each stage A step factors
    # twice on 121 x 5; the fine count keeps the s = 0 start's three rows
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "scenario_scan.py"),
                           "--grid", "241x21", "default"],
                          capture_output=True, text=True, timeout=600, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("default    exit=0 error=- rows=8 factorizations=8 "
                                  "coarse_factorizations=6 start_iterations=")
    proc = subprocess.run([sys.executable, str(root / "scripts" / "scenario_scan.py"),
                           "--grid", "241by21", "default"],
                          capture_output=True, text=True, timeout=600, env=subprocess_env())
    assert proc.returncode == 2 and "expected NXxNY, such as 961x41, got '241by21'" in proc.stderr


def test_readme_library_snippet(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=subprocess_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the pinned stage-A speed of the default grid (test_pinned_default_path_speeds)
    assert float(proc.stdout.split()[-1]) == pytest.approx(0.294006370441180, abs=1e-9)


def test_readme_default_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\nA full default configuration:\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == default_config_dict()


def test_readme_command_line_names_every_subcommand():
    # each subcommand of the parser, with its positional arguments in order,
    # starts a line of README's command-line block, and the block names no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        usage = " ".join(["wave", name] + [f"<{a.metavar or a.dest}>" for a in sub._actions
                                           if not a.option_strings])
        assert any(f"{line} ".startswith(f"{usage} ") for line in lines), usage
    assert {line.split()[1] for line in lines} == set(commands.choices)


# --- the benchmark's hook points ----------------------------------------------------

TRACED_MAIN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
spans = tracer.Tracer()
tracer.instrument(spans, sys.argv[2])  # AttributeError if a hooked name is gone
from stripwave.cli import main
assert main(sys.argv[3:]) == 0
print(json.dumps(sorted({span[0] for span in spans.spans})))
"""


def traced_main(worker_dumps, *argv, **env):
    """Span names of `main(argv)` run under perfbench's tracer, which writes
    the records of each sweep worker call into `worker_dumps`."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run([sys.executable, "-c", TRACED_MAIN, str(perfbench), str(worker_dumps),
                           *argv], capture_output=True, text=True, env=subprocess_env(**env),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_benchmark_hook_points(completed_run, tmp_path):
    _, out, _, cfg_path = completed_run
    names = traced_main(tmp_path, "resume", str(out / "ckpt_0003_A.json"), str(cfg_path),
                        WAVE_OUT=str(tmp_path / "traced"))
    assert {"continuation.continue_wentzell", "continuation.handoff_to_system",
            "continuation.continue_exchange", "cli.write_checkpoint", "cli.read_checkpoint",
            "cli.checkpoint_dict", "cli.checkpoint_state", "cli.PathWriter.write"} <= names
    # a sweep: one dump per point, named after its directory, with the point's march
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    traced_main(dumps, "run", str(cfg_path), "--sweep", "D=2,4",
                WAVE_OUT=str(tmp_path / "traced_sweep"))
    assert sorted(p.name.partition("-")[0] for p in dumps.iterdir()) == ["D_2", "D_4"]
    for dump in dumps.iterdir():
        spans = {span[0] for span in json.loads(dump.read_text())["spans"]}
        assert {"cli._sweep_worker", "cli.execute_run",
                "continuation.continue_wentzell"} <= spans, dump.name
        assert "solver.solve_1d_ignition_shooting" not in spans, dump.name  # the shared start


TRACER_ONLY = "# noqa: F401 (not called; kept for perfbench/tracer.py)"

TRACER_REPLACES = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
names = json.loads(sys.argv[3])
owners = [(importlib.import_module("stripwave." + name.partition(".")[0]),
           name.partition(".")[2]) for name in names]
before = [getattr(module, attr) for module, attr in owners]
tracer.instrument(tracer.Tracer(), sys.argv[2])
print(json.dumps([name for name, (module, attr), value in zip(names, owners, before)
                  if getattr(module, attr) is value]))
"""


def test_the_names_kept_for_the_tracer_are_the_ones_it_replaces(tmp_path):
    # src/ keeps a few names only for perfbench/tracer.py: each import tagged
    # TRACER_ONLY, and solver.linear_solve, which Newton does not call.  Each
    # must be an attribute that the tracer's `instrument` replaces on its
    # module; once the tracer stops patching one, this fails, and the name
    # can go (ROADMAP item 14).  Nothing is written under perfbench/
    src = Path(stripwave.__file__).resolve().parent
    kept = ["solver.linear_solve"]
    for path in sorted(src.glob("*.py")):
        for line in path.read_text().splitlines():
            if line.endswith(TRACER_ONLY):
                kept.append(f"{path.stem}.{line.split(' import ')[1].split()[0]}")
    assert len(kept) > 1, "no import carries the tag"
    perfbench = src.parents[1] / "perfbench"
    proc = subprocess.run([sys.executable, "-c", TRACER_REPLACES, str(perfbench), str(tmp_path),
                           json.dumps(kept)], capture_output=True, text=True, timeout=120,
                          env=subprocess_env(PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [], kept


def test_a_traced_benchmark_call(tmp_path, monkeypatch):
    # one call of perfbench/rep.py with a spans path, as a traced benchmark call
    # makes it, on a 481 x 11 run: the tracer patches every name it wraps
    # (`solver.assemble_jacobian`, `solver.linear_solve`, `solver.eval_nonlinearity`,
    # `cli.embed_one_dim_wave`, ...), so a name the program lost fails the call,
    # and its layer metrics read the exchange Jacobian's 31 639 stencil slots.
    # Nothing is written under perfbench/, not even a bytecode cache
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    config = write_config(tmp_path, fast_config(tmp_path / "out"))
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(perfbench / "rep.py"), str(perfbench.parent),
                           str(spans), config.name, "run", config.name],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          env=subprocess_env(PERFBENCH_SPAWN_TIME=repr(time.time()),
                                             PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["exit"] == EXIT_OK
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", perfbench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    metrics = tracer.layer_metrics(json.loads(spans.read_text())["processes"])
    assert metrics["residual.jacobian_nnz"] == 31_639
