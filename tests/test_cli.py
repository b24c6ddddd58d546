import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stripwave
from stripwave import cli, continuation
from stripwave.cli import (EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, checkpoint_dict,
                           checkpoint_state, config_from_dict, config_hash, default_config_dict,
                           emit_profile, fmt_float, load_config, main, read_checkpoint,
                           write_checkpoint, write_profile_files)
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
    """Environment in which a child interpreter imports this stripwave."""
    src = str(Path(stripwave.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
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
    # nor scipy.sparse.linalg, which only SuperLU grids and general matrices use
    code = ("import sys, stripwave, stripwave.cli; "
            "print([m in sys.modules for m in ('scipy.integrate', 'scipy.sparse.linalg')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


def test_invalid_json_is_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["run", str(path)]) == EXIT_VALIDATION


def at(name, edit):
    """`edit`, made to the completed run's checkpoint `name` instead of its last."""
    edit.checkpoint = name
    return edit


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
    # the secant predictor needs a previous state behind the record (0.25 here, after 0.1)
    ("resume", at("0003_A", lambda ckpt: ckpt["control"].update(prev_parameter=0.25)), EXIT_IO,
     "ckpt.json: field 'control.prev_parameter' must be below 'parameter' = 0.25, got 0.25"),
    ("resume", at("0003_A", lambda ckpt: ckpt["control"].update(prev_parameter=0.9)), EXIT_IO,
     "ckpt.json: field 'control.prev_parameter' must be below 'parameter' = 0.25, got 0.9"),
    ("profile", at("0003_A", lambda ckpt: ckpt["control"].update(prev_parameter=0.9)), EXIT_IO,
     "ckpt.json: field 'control.prev_parameter' must be below 'parameter' = 0.25, got 0.9"),
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
          (at("0003_A", lambda ckpt: ckpt["control"].update(prev_c=-5)),
           "'control.prev_c' must be > 0, got -5"),
          (lambda ckpt: ckpt["control"].update(prev_c=0.0),
           "'control.prev_c' must be > 0, got 0.0"),
          (lambda ckpt: ckpt["control"].update(prev_parameter=1.5),
           "'control.prev_parameter' is out of range: exchange parameter eps must lie in (0, 1]"),
          (at("0003_A", lambda ckpt: ckpt["control"].update(prev_psi=None)),
           "'control.prev_psi' must be base64 text, got NoneType"),
          (at("0009_C", lambda ckpt: ckpt["control"].update(
              prev_phi=ckpt["control"]["prev_phi"][1:])),
           "'control.prev_phi' holds 480 values, not nx = 481"),
          (at("0009_C", lambda ckpt: ckpt["control"].update(prev_phi=None)),
           "'control.prev_phi' must be base64 text, got NoneType"),
          (at("0003_A", lambda ckpt: ckpt.update(psi=None)),
           "'psi' must be base64 text, got NoneType"),
          (lambda ckpt: ckpt.update(phi=ckpt["phi"][:-1]), "'phi' holds 480 values, not nx = 481"),
          (at("0006_A", lambda ckpt: ckpt.update(phi=np.zeros(481))),
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
        ckpt = read_checkpoint(out / f"ckpt_{getattr(edit, 'checkpoint', '0012_C')}.json")
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
    real_write_text = Path.write_text

    def write_half(self, text, *args, **kwargs):  # a write that fails partway, as on a full disk
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
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
    record = ContinuationRecord(stage="B", state=state, residual_norm=0.0, diagnostics=None,
                                step=0.1)
    write_profile_files(tmp_path, record, grid)
    x, y = list(grid.x), list(grid.y)
    want = "x,y,psi\n" + "".join(f"{fmt_float(x[i])},{fmt_float(y[j])},{fmt_float(psi[j, i])}\n"
                                 for j in range(grid.ny) for i in range(grid.nx))
    assert (tmp_path / "profile_B_0.05.csv").read_text() == want
    want = "x,phi\n" + "".join(f"{fmt_float(x[i])},{fmt_float(phi[i])}\n"
                               for i in range(grid.nx))
    assert (tmp_path / "profile_B_0.05_line.csv").read_text() == want

    ckpt = tmp_path / "ckpt.json"
    write_checkpoint(ckpt, checkpoint_dict(record, grid, "hash"))
    emit_profile(ckpt, tmp_path / "slices.csv")
    want = "x,psi_top,psi_mid,psi_bottom,phi\n" + "".join(
        f"{fmt_float(x[i])},{fmt_float(psi[-1, i])},{fmt_float(psi[1, i])},"
        f"{fmt_float(psi[0, i])},{fmt_float(phi[i])}\n" for i in range(grid.nx))
    assert (tmp_path / "slices.csv").read_text() == want


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


def test_run_path_parameters(completed_run):
    # step growth counts factorizations, not chord iterations: the path keeps
    # the parameters that full Newton, factoring at every iteration, took
    _, out, _, _ = completed_run
    _, rows = read_rows(out / "path.csv")
    assert [(r["stage"], r["family_param"]) for r in rows] == [
        ("A", "0"), ("A", "0.10000000000000001"), ("A", "0.25"), ("A", "0.47500000000000003"),
        ("A", "0.8125"), ("A", "1"), ("B", "0.050000000000000003"),
        ("C", "0.15000000000000002"), ("C", "0.30000000000000004"),
        ("C", "0.52500000000000013"), ("C", "0.86250000000000016"), ("C", "1")]


def test_stage_filter_a_only(tmp_path):
    out = tmp_path / "out"
    cfg = fast_config(out)
    cfg["continuation"]["target_stage"] = "A"
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == EXIT_OK
    _, rows = read_rows(out / "path.csv")
    assert all(r["stage"] == "A" for r in rows)


def test_profile_emission(completed_run):
    tmp, out, _, _ = completed_run
    ckpts = sorted(out.glob("ckpt_*_C.json"))
    assert ckpts
    dest = tmp / "slices.csv"
    assert main(["profile", str(ckpts[-1]), str(dest)]) == EXIT_OK
    lines = dest.read_text().splitlines()
    assert lines[0] == "x,psi_top,psi_mid,psi_bottom,phi"
    assert lines[1].count(",") == 4
    assert lines[1].split(",")[4] != ""  # exchange checkpoint carries phi


def test_profile_wentzell_has_empty_phi(completed_run):
    tmp, out, _, _ = completed_run
    ckpts = sorted(out.glob("ckpt_*_A.json"))
    dest = tmp / "slices_a.csv"
    assert main(["profile", str(ckpts[0]), str(dest)]) == EXIT_OK
    assert dest.read_text().splitlines()[1].endswith(",")


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
    # the record's row is written, so path.csv shows the failure, but no checkpoint
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
    assert [r["monotone_ok"] for r in rows] == ["1", "1", "0"]
    assert sorted(p.name for p in out.glob("ckpt_*")) == ["ckpt_0001_A.json", "ckpt_0002_A.json"]
    assert not (out / "summary.json").exists()
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "CertificateFailed" and error["exit_code"] == EXIT_SOLVER
    last = rows[-1]
    assert error["message"] == (f"stage {last['stage']} record at parameter "
                                f"{last['family_param']}, c = {last['c']}, fails monotone_ok")
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
    # a march records only the steps it accepts: every record made is a row,
    # apart from a resume's start, the record of its checkpoint
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


@pytest.mark.parametrize("name", ["ckpt_0003_A", "ckpt_0007_B", "ckpt_0009_C"])
def test_resume_matches_uninterrupted(completed_run, tmp_path, name):
    tmp, out, cfg, cfg_path = completed_run
    full = (out / "path.csv").read_bytes().splitlines(keepends=True)
    ckpt = out / f"{name}.json"
    assert ckpt.exists()
    resumed_out = tmp_path / "resumed"
    cfg_resume = dict(cfg, output_dir=str(resumed_out))
    cfg_resume_path = tmp_path / "resume.json"
    cfg_resume_path.write_text(json.dumps(cfg_resume, indent=1))
    # identical physics but different output_dir: the hash leaves output_dir out
    assert main(["resume", str(ckpt), str(cfg_resume_path)]) == EXIT_OK
    resumed = (resumed_out / "path.csv").read_bytes().splitlines(keepends=True)
    # the header, then the rows after the checkpoint's record
    assert resumed == full[:1] + full[1 + int(name[5:9]):]
    # the profiles of every stage the resume ran, as the run wrote them
    ran = {"A": "ABC", "B": "C", "C": "C"}[name[-1]]
    profiles = sorted(p.name for p in out.glob("profile_*") if p.name[8] in ran)
    assert sorted(p.name for p in resumed_out.glob("profile_*")) == profiles
    for profile in profiles:
        assert (resumed_out / profile).read_bytes() == (out / profile).read_bytes(), profile


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
    ckpt = read_checkpoint(sorted(out.glob(f"ckpt_*_{stage}.json"))[-1])
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
    last = sorted((tmp_path / "stopped").glob("ckpt_*.json"))[-1]
    resumed_out = tmp_path / "resumed"
    cfg_path = write_config(tmp_path, dict(cfg, output_dir=str(resumed_out)))
    assert main(["resume", str(last), str(cfg_path)]) == EXIT_OK
    _, rows = read_rows(out / "path.csv")
    _, resumed = read_rows(resumed_out / "path.csv")
    assert last.name == "ckpt_0006_A.json" and resumed == rows[6:]


@pytest.mark.parametrize("stage, target, resumes_in", [("C", "A", "C"), ("B", "B", "C"),
                                                      ("A", "A", "A"), ("C", "C", "C")])
def test_resume_past_the_target_stage_is_refused(completed_run, tmp_path, capsys, stage,
                                                 target, resumes_in):
    # nothing is left to run, also from the last checkpoint of the target stage, which ends
    # it at parameter 1: the resume stops before it touches its directory
    _, out, cfg, _ = completed_run
    ckpt = sorted(out.glob(f"ckpt_*_{stage}.json"))[-1]
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


def test_sweep_point_equals_standalone_run(tmp_path, monkeypatch):
    calls = tmp_path / "shooting_calls"
    real_shooting = cli.solve_1d_ignition_shooting

    def counted_shooting(*args, **kwargs):  # forked pool workers inherit it
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_shooting(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_1d_ignition_shooting", counted_shooting)
    cfg = fast_config(tmp_path / "sweep")
    assert main(["run", str(write_config(tmp_path, cfg)), "--sweep", "D=2,4"]) == EXIT_OK
    assert len(calls.read_text().splitlines()) == 1  # one shooting for the whole sweep
    for v in (2.0, 4.0):
        point, alone = tmp_path / "sweep" / f"D_{v:g}", tmp_path / f"alone_{v:g}"
        data = json.loads(json.dumps(cfg))
        data["params"]["D"], data["output_dir"] = v, str(alone)
        assert main(["run", str(write_config(tmp_path, data, f"alone_{v:g}.json"))]) == EXIT_OK
        names = sorted(p.name for p in alone.iterdir())
        assert sorted(p.name for p in point.iterdir()) == names
        assert {"path.csv", "ckpt_0012_C.json", "profile_C_1_line.csv"} <= set(names)
        for name in names:
            if name != "summary.json":
                assert (point / name).read_bytes() == (alone / name).read_bytes(), (v, name)
        summaries = [json.loads((d / "summary.json").read_text()) for d in (point, alone)]
        timings = [summary.pop("timings_s") for summary in summaries]
        assert summaries[0] == summaries[1]
        # the point did not shoot, so it reports no shooting time
        assert sorted(timings[0]) == ["A", "B", "C"]
        assert sorted(timings[1]) == ["A", "B", "C", "shooting"]
    assert len(calls.read_text().splitlines()) == 3


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
            "cli.checkpoint_dict", "cli.checkpoint_state", "cli.write_profile_files",
            "cli.PathWriter.write"} <= names
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
