"""Command-line driver: configuration, full runs, resume, and CSV output.

Subcommands
-----------
wave run <config.json>        full continuation run (stages A -> B -> C)
wave resume <ckpt> <config>   continue an interrupted run from a checkpoint
wave profile <ckpt> <out.csv> a checkpoint's full field as CSV
wave symbol-scan <config>     boundary-symbol zero-free scan as CSV
wave oned <config>            1-D shooting speed and profile only

Exit codes: 0 ok, 2 validation, 3 solver or a failed certificate, 4 I/O or
malformed input.  The environment variable WAVE_OUT, when nonempty, overrides
the configured output directory.
A run writes path.csv, checkpoints and summary.json; each stage's end state
is a checkpoint, which `wave profile` turns into CSV.  All float output is
formatted with 17 significant digits so identical configs produce
byte-identical files; checkpoints hold their arrays as base64 text of the
float64 bytes, so a resume starts from the exact state.
"""

from __future__ import annotations

import argparse
import base64
import concurrent.futures
import hashlib
import json
import logging
import math
import os
import re
import sys
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .continuation import (PARAMETER_TOL, ContinuationOptions, ContinuationRecord,
                           continue_exchange, continue_wentzell, handoff_to_system, make_record,
                           one_dim_start)
from .continuation import embed_one_dim_wave  # noqa: F401 (not called; kept for perfbench/tracer.py)
from .diagnostics import CERTIFICATES
from .errors import (AnchorNotOnGrid, BadExtent, CertificateFailed, ConfigError,
                     ConfigHashMismatch, SchemaMismatch, StripWaveError)
from .grid import Grid, build_grid
from .model import ModelParams, NonlinearityKind, NonlinearitySpec
from .residual import EXCHANGE, WENTZELL, HomotopyFamily, WaveState, assemble_residual
from .solver import (NewtonOptions, NewtonResult, band_workspace, newton_solve, one_dim_guess,
                     solve_1d_ignition_shooting)
from . import analysis

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2
EXIT_OK, EXIT_VALIDATION, EXIT_SOLVER, EXIT_IO = 0, 2, 3, 4
STAGES = ("A", "B", "C")

PATH_COLUMNS = ("stage", "family_param", "c", "residual_norm", "speed_identity_gap",
                "cmax_margin", "min_psi", "max_psi", "min_dx_psi", "gamma_fit",
                "gamma_pred", "bounds_ok", "monotone_ok", "sandwich_ok", "left_decay_ok")


def fmt_float(v: float) -> str:
    return f"{v:.17g}"


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(data: dict) -> str:
    """SHA-256 of the config without the fields that change no number a run
    writes: `output_dir`, a deployment path like WAVE_OUT, and
    `checkpoint_every` and `continuation.target_stage`, which decide only
    which files are written and where the run stops."""
    kept = {key: value for key, value in data.items()
            if key not in ("output_dir", "checkpoint_every")}
    kept["continuation"] = {key: value for key, value in data["continuation"].items()
                            if key != "target_stage"}
    return hashlib.sha256(canonical_json(kept).encode()).hexdigest()


# --- configuration -----------------------------------------------------------

@dataclass
class RunConfig:
    params: ModelParams
    nonlinearity: NonlinearitySpec
    grid: Grid
    newton: NewtonOptions
    continuation: ContinuationOptions
    initial_step: float  # of the first record of stages A and B
    target_stage: str
    shooting_tol: float
    output_dir: str
    checkpoint_every: int
    raw: dict


def default_config_dict(output_dir: str = "waveout") -> dict:
    return {
        "params": {"d": 1.0, "D": 4.0, "mu": 1.0, "L": 1.0},
        "nonlinearity": {"kind": "smooth_cubic", "theta": 0.3},
        "grid": {"x_left": -160.0, "x_right": 80.0, "nx": 961, "ny": 41},
        "newton": {"tol_residual": 1e-10, "max_iters": 50, "damping": 0.5,
                   "min_step": 1e-8},
        "continuation": {"epsilon0": 0.05, "initial_step": 0.1, "min_step": 1e-4,
                         "target_stage": "C"},
        "shooting_tol": 1e-9,
        "output_dir": output_dir,
        "checkpoint_every": 5,
    }


def _checked(data, template: dict, prefix: str = "") -> dict:
    """`data` with exactly the keys of `template`, at every level, each value
    of its default's type; ints widen to floats, bools are rejected."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'}: must be a JSON object, got {data!r}")
    for key in [*data, *template]:  # unknown keys, then missing ones in a fixed order
        if key not in template:
            raise ConfigError(f"{prefix}{key}: unknown field")
        if key not in data:
            raise ConfigError(f"{prefix}{key}: missing")
    out = {}
    for key, default in template.items():
        value = data[key]
        if isinstance(default, dict):
            value = _checked(value, default, f"{prefix}{key}.")
        elif isinstance(default, float) and type(value) is int:
            value = float(value)
        elif not isinstance(value, type(default)) or isinstance(value, bool):
            raise ConfigError(f"{prefix}{key}: expected {type(default).__name__}, got {value!r}")
        out[key] = value
    return out


def _named_field(exc: Exception) -> str:
    """The field an error names by starting its message with `Class.field`,
    as the ValueErrors of the library objects do, or "" for none."""
    return str(exc).partition(" ")[0].partition(".")[2]


def _build(section: str, make, *args, **fields):
    """`make(*args, **fields)`, its error as a ConfigError that names
    `section.field` when it names a field (`_named_field`), and `section`
    otherwise."""
    try:
        return make(*args, **fields)
    except (ValueError, BadExtent, AnchorNotOnGrid) as exc:
        field = _named_field(exc)
        raise ConfigError(f"{section}.{field}: {exc}" if field else f"{section}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """Checks the shape of `data` here; each value range is checked once, by
    the object its section builds."""
    c = _checked(data, default_config_dict())
    params = _build("params", ModelParams, **c["params"])
    kind, kinds = c["nonlinearity"]["kind"], [k.value for k in NonlinearityKind]
    if kind not in kinds:
        raise ConfigError(f"nonlinearity.kind: must be one of {kinds}, got {kind!r}")
    spec = _build("nonlinearity", NonlinearitySpec, kind=NonlinearityKind(kind),
                  theta=c["nonlinearity"]["theta"])
    grid = _build("grid", build_grid, params, **c["grid"])
    newton = _build("newton", NewtonOptions, **c["newton"])
    target_stage = c["continuation"].pop("target_stage")
    initial_step = c["continuation"].pop("initial_step")
    cont = _build("continuation", ContinuationOptions, **c["continuation"])
    # the fields no library object owns
    if target_stage not in STAGES:
        raise ConfigError(f"continuation.target_stage: must be one of A, B, C, got {target_stage!r}")
    if not initial_step > 0:
        raise ConfigError(f"continuation.initial_step: must be > 0, got {initial_step!r}")
    if initial_step == math.inf:  # json reads Infinity; a march would halve it forever
        raise ConfigError(f"continuation.initial_step: must be finite, got {initial_step!r}")
    if not 0 < c["shooting_tol"] < math.inf:
        raise ConfigError(f"shooting_tol: must lie in (0, inf), got {c['shooting_tol']!r}")
    if not c["output_dir"]:
        raise ConfigError("output_dir: must be nonempty")
    if c["checkpoint_every"] < 0:
        raise ConfigError(f"checkpoint_every: must be >= 0, got {c['checkpoint_every']!r}")
    return RunConfig(params=params, nonlinearity=spec, grid=grid, newton=newton,
                     continuation=cont, initial_step=initial_step, target_stage=target_stage,
                     shooting_tol=c["shooting_tol"], output_dir=c["output_dir"],
                     checkpoint_every=c["checkpoint_every"], raw=data)


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: cannot load {path}: {exc}") from exc
    return config_from_dict(data)


def resolve_output_dir(cfg: RunConfig) -> Path:
    """WAVE_OUT if set, else the config's `output_dir`; an empty WAVE_OUT, which
    would name the current directory, is refused."""
    out = os.environ.get("WAVE_OUT", cfg.output_dir)
    if not out:
        raise ConfigError("WAVE_OUT: must be nonempty when set")
    return Path(out)


# --- checkpoints --------------------------------------------------------------
# A checkpoint is a record's restart point: its state, as the top-level
# STATE_FIELDS, and in `control` its step and the previous accepted state, of the
# same layout and family, as `control.prev_<name>` (all four null for none).
STATE_FIELDS = ("parameter", "c", "psi", "phi")
GRID_FIELDS = {"x_left": float, "x_right": float, "L": float, "nx": int, "ny": int}
STAGE_FAMILY = {"A": WENTZELL, "B": EXCHANGE, "C": EXCHANGE}


def _state_fields(state: WaveState | None, prefix: str = "") -> dict:
    """The checkpoint fields of `state`, each name with `prefix`; nulls for none."""
    values = (None,) * 4 if state is None else (state.family.parameter, state.c,
                                                 state.psi.ravel(), state.phi)
    return {prefix + name: value for name, value in zip(STATE_FIELDS, values)}


def checkpoint_dict(record: ContinuationRecord, grid: Grid, cfg_hash: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "stage": record.stage,
            "family": record.state.family.kind, **_state_fields(record.state),
            "grid": {name: getattr(grid, name) for name in GRID_FIELDS},
            "config_hash": cfg_hash,
            "control": {"step": record.step, **_state_fields(record.prev_state, "prev_")}}


def _json_chunks(data: dict, chunks: list) -> None:
    """Append to `chunks` the bytes of `data` as canonical JSON, each array or
    list at any depth as a string of the base64 of its float64 bytes.  The
    base64 bytes are appended as they are: they need no JSON escaping."""
    opening = b"{"
    for key in sorted(data):
        value = data[key]
        chunks.append(opening + json.dumps(key).encode() + b":")
        opening = b","
        if isinstance(value, dict):
            _json_chunks(value, chunks)
        elif isinstance(value, (np.ndarray, list)):
            raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
            chunks += (b'"', base64.b64encode(raw), b'"')
        else:
            chunks.append(json.dumps(value).encode())
    chunks.append(b"{}" if opening == b"{" else b"}")


def _decoded(text, where: str) -> np.ndarray:
    """The writable float array that `_json_chunks` wrote as `text`."""
    if not isinstance(text, str):
        raise ValueError(f"{where} must be base64 text, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise ValueError(f"{where} is not valid base64: {exc}") from exc
    if len(raw) % 8:
        raise ValueError(f"{where} holds {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(bytearray(raw), dtype="<f8")


def write_checkpoint(path: Path, data: dict) -> None:
    """`data` as canonical JSON (`canonical_json`), arrays in base64.  It is
    written to a temporary file that then replaces `path`, so a write that
    fails or is killed leaves no partial checkpoint."""
    tmp = path.with_name(f".{path.name}.tmp")
    chunks = []
    _json_chunks(data, chunks)
    try:
        tmp.write_bytes(b"".join(chunks))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _states(data: dict) -> list[tuple[dict, str, str]]:
    """Each state of a checkpoint as (section, key prefix, field prefix): the
    record's, then the previous one unless its fields are all null."""
    ctrl = data["control"]
    prev = any(ctrl["prev_" + name] is not None for name in STATE_FIELDS)
    return [(data, "", "")] + ([(ctrl, "prev_", "control.prev_")] if prev else [])


def _bad(path, field: str, text: str) -> ValueError:
    return ValueError(f"checkpoint {path}: field '{field}' {text}")


def _number(value, field: str, path, kind: type = float):
    """`value`, a finite JSON number (an integer for `kind` int), never a bool."""
    if type(value) not in ((int,) if kind is int else (int, float)):
        raise _bad(path, field, f"must be {'an integer' if kind is int else 'a number'}, "
                                f"got {value!r}")
    if not math.isfinite(value):  # json reads NaN and Infinity
        raise _bad(path, field, f"must be finite, got {value!r}")
    return value


def _check_state(section: dict, key: str, field: str, family: str, grid: dict, path) -> None:
    """Check the state held as `section[key + name]` for each STATE_FIELDS
    name, reported as field `field + name`, and decode its arrays in place."""
    parameter = _number(section[key + "parameter"], field + "parameter", path)
    try:
        HomotopyFamily(kind=family, parameter=parameter)
    except ValueError as exc:
        raise _bad(path, field + "parameter", f"is out of range: {exc}") from exc
    c = _number(section[key + "c"], field + "c", path)
    if not c > 0:
        raise _bad(path, field + "c", f"must be > 0, got {c!r}")
    arrays = [("psi", grid["nx"] * grid["ny"], "nx * ny")]
    if family == EXCHANGE:
        arrays.append(("phi", grid["nx"], "nx"))
    elif section[key + "phi"] is not None:
        raise _bad(path, field + "phi", f"must be null in the {family} family")
    for name, size, rule in arrays:
        where = f"checkpoint {path}: field '{field}{name}'"
        section[key + name] = values = _decoded(section[key + name], where)
        if values.size != size:
            raise ValueError(f"{where} holds {values.size} values, not {rule} = {size}")


def read_checkpoint(path) -> dict:
    """The checkpoint at `path` with its arrays decoded, once its header, its
    grid, `control.step` and each of its states are checked, and the previous
    state, if any, lies below the record's parameter."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise OSError(f"cannot load checkpoint {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaMismatch(f"checkpoint {path}: top level is a {type(data).__name__}, "
                             f"not a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaMismatch(f"checkpoint schema {data.get('schema_version')!r} "
                             f"is not supported (want {SCHEMA_VERSION})")
    sections = [("", data, ("stage", "family", "grid", "config_hash") + STATE_FIELDS),
                ("grid.", data.get("grid"), GRID_FIELDS),
                ("control.", data.get("control"), ["step"] + ["prev_" + n for n in STATE_FIELDS])]
    for prefix, section, fields in sections:
        for name in fields:
            if not isinstance(section, dict) or name not in section:
                raise ValueError(f"checkpoint {path}: missing field '{prefix}{name}'")
    for name, kind in GRID_FIELDS.items():
        _number(data["grid"][name], "grid." + name, path, kind)
    try:
        Grid(**{name: data["grid"][name] for name in GRID_FIELDS})
    except ValueError as exc:  # Grid names the field it rejects, or none for a relation
        field = _named_field(exc)
        raise _bad(path, f"grid.{field}" if field else "grid", f"is out of range: {exc}") from exc
    step = _number(data["control"]["step"], "control.step", path)
    if not step > 0:
        raise _bad(path, "control.step", f"must be > 0, got {step!r}")
    stage, family = data["stage"], data["family"]
    if stage not in STAGES:
        raise _bad(path, "stage", f"must be one of A, B, C, got {stage!r}")
    if family != STAGE_FAMILY[stage]:
        raise _bad(path, "family", f"must be {STAGE_FAMILY[stage]!r} at stage {stage}, "
                                   f"got {family!r}")
    for section, key, field in _states(data):
        _check_state(section, key, field, family, data["grid"], path)
    prev = data["control"]["prev_parameter"]
    if prev is not None and not prev < data["parameter"]:  # the secant needs a state behind
        raise _bad(path, "control.prev_parameter",
                   f"must be below 'parameter' = {data['parameter']!r}, got {prev!r}")
    return data


def require_finite_arrays(data: dict, path) -> None:
    """Raise ValueError naming the first array of a `read_checkpoint` result
    that holds a NaN or an infinity, from which a resume would start Newton;
    `read_checkpoint` accepts them, so that `wave profile` can write them."""
    for section, key, field in _states(data):
        for name in ("psi", "phi"):
            values = section[key + name]
            if values is not None and not np.isfinite(values).all():
                raise _bad(path, field + name, "holds a non-finite value")


def checkpoint_state(data: dict) -> tuple[WaveState, Grid, float, WaveState | None]:
    """The state, grid, step and previous state (or None) of a `read_checkpoint` result."""
    grid = Grid(**{name: data["grid"][name] for name in GRID_FIELDS})
    states = [WaveState(c=section[key + "c"], psi=section[key + "psi"].reshape(grid.ny, grid.nx),
                        phi=section[key + "phi"],
                        family=HomotopyFamily(data["family"], float(section[key + "parameter"])))
              for section, key, _ in _states(data)]
    return states[0], grid, data["control"]["step"], states[1] if len(states) > 1 else None


# --- CSV sinks ----------------------------------------------------------------

# the name `PathWriter.checkpoint` gives its files, and the name of the profiles
# that runs wrote before `wave profile` took them over, which a rerun still deletes
CHECKPOINT_NAME = re.compile(r"ckpt_\d{4,}_[ABC]\.json")
PROFILE_NAME = re.compile(r"profile_[ABC]_[-+.0-9e]+(_line)?\.csv")


def certify(record: ContinuationRecord) -> None:
    """Raise CertificateFailed naming each certificate `record` fails."""
    failed = record.diagnostics.failed
    if failed:
        raise CertificateFailed(f"stage {record.stage} record at parameter "
                                f"{fmt_float(record.parameter)}, c = {fmt_float(record.c)}, "
                                f"fails {', '.join(failed)}")


class PathWriter:
    """Streams path.csv rows and checkpoints as records are accepted.

    Opening path.csv deletes the directory's error.json, summary.json,
    checkpoints and the profiles of an older version, which would otherwise
    describe an earlier run beside this one's rows.

    Every record it is given becomes a row: a march sends only the records
    of the steps it accepts, never its start, which is already on the path
    or is the checkpoint a resume starts from.  A march rejects a trial whose
    record fails a certificate, so only a record no march made, the run's
    start or stage B's, can reach a row uncertified: it stops the run
    (`certify`) once its row is written, before its checkpoint.
    """

    def __init__(self, outdir: Path, cfg: RunConfig, cfg_hash: str) -> None:
        self.outdir = outdir
        self.cfg = cfg
        self.cfg_hash = cfg_hash
        self.count = 0
        self.checkpointed = False  # whether the last row written has a checkpoint
        outdir.mkdir(parents=True, exist_ok=True)
        for old in outdir.iterdir():
            if (old.name in ("error.json", "summary.json") or CHECKPOINT_NAME.fullmatch(old.name)
                    or PROFILE_NAME.fullmatch(old.name)):
                old.unlink()
        self.fh = open(outdir / "path.csv", "w")
        self.fh.write(",".join(PATH_COLUMNS) + "\n")
        self.fh.flush()

    def write(self, record: ContinuationRecord) -> None:
        values = [record.parameter, record.c, record.residual_norm]
        values += [getattr(record.diagnostics, name) for name in PATH_COLUMNS[4:]]
        row = [record.stage] + [fmt_float(v) for v in values]
        self.fh.write(",".join(row) + "\n")
        self.fh.flush()
        self.count += 1
        self.checkpointed = False
        certify(record)
        every = self.cfg.checkpoint_every
        if every > 0 and self.count % every == 0:
            self.checkpoint(record)

    def checkpoint(self, record: ContinuationRecord) -> None:
        path = self.outdir / f"ckpt_{self.count:04d}_{record.stage}.json"
        write_checkpoint(path, checkpoint_dict(record, self.cfg.grid, self.cfg_hash))
        self.checkpointed = True

    def close(self) -> None:
        self.fh.close()


CSV_BLOCK_ROWS = 4096


def _write_csv(path, header: str, columns: list) -> None:
    """Columns of floats as CSV, each value formatted like `fmt_float`, as
    `np.savetxt` with `fmt="%.17g"` writes them, byte for byte; each block of
    rows is formatted by one `%` on a repeated row format."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _line_path(out: Path) -> Path:
    """Where `write_profile_files` writes the line profile of `out`."""
    return out.with_name(f"{out.stem}_line.csv")


def write_profile_files(out: Path, state: WaveState, grid: Grid) -> None:
    """The full field of `state`: `x,y,psi` in `out`, row by row from y = -L,
    and for an exchange state `x,phi` in `_line_path(out)`."""
    x = grid.x
    _write_csv(out, "x,y,psi", [np.tile(x, grid.ny), np.repeat(grid.y, grid.nx), state.psi.ravel()])
    if state.phi is not None:
        _write_csv(_line_path(out), "x,phi", [x, state.phi])


# --- drivers ------------------------------------------------------------------

# the diagnostics of a stage's end record that its summary entry holds
SUMMARY_FIELDS = CERTIFICATES + ("speed_identity_gap", "gamma_fit", "gamma_pred")


def _stage_summary(record: ContinuationRecord) -> dict:
    return {"parameter": record.parameter, "c": record.c, "residual_norm": record.residual_norm,
            **{name: getattr(record.diagnostics, name) for name in SUMMARY_FIELDS}}


def _run_stages(cfg: RunConfig, writer: PathWriter, summary: dict, start: ContinuationRecord,
                t0: float, work: np.ndarray) -> None:
    """Stages `start.stage` .. `cfg.target_stage`, from the record `start`.

    A and C march their parameter to 1 from the previous end record, their
    restart point; B hands the Wentzell state over to the exchange system at
    eps0, in a record with the initial step.  Each stage ends with a checkpoint
    of its end record, the last row written, unless that row has one, and
    with its entry in `summary`; its timing runs from the previous stage's
    end, or from `t0`.  Every Newton solve factors in `work`.
    """
    grid, params, spec, opts = cfg.grid, cfg.params, cfg.nonlinearity, cfg.continuation
    end = start
    for name in STAGES[STAGES.index(start.stage):STAGES.index(cfg.target_stage) + 1]:
        if name == "B":
            predictor = handoff_to_system(end.state, opts.epsilon0, params, grid)
            corrected = newton_solve(predictor, params, spec, grid, cfg.newton, work=work)
            end = make_record("B", corrected.state, corrected.residual_norm, params, spec, grid,
                              cfg.initial_step)
            writer.write(end)
        else:
            march = continue_wentzell if name == "A" else continue_exchange
            end = march(end, params, spec, grid, cfg.newton, 1.0, opts, sink=writer.write,
                        work=work)
        # no row yet: the end record is the resume start, which is not on the path
        if writer.count and not writer.checkpointed:
            writer.checkpoint(end)
        summary["stages"][name] = _stage_summary(end)
        now = time.perf_counter()
        summary["timings_s"][name] = now - t0
        t0 = now


def _write_summary(outdir: Path, summary: dict) -> dict:
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    return summary


def run_start(cfg: RunConfig, timings: dict, work: np.ndarray | None = None) -> NewtonResult:
    """The start of a run, the solution at Wentzell s = 0 (the Neumann strip
    problem): a coarse shooting guess of the 1-D front (`one_dim_guess`),
    corrected on three rows and broadcast over y (`one_dim_start`).  Its
    speed is the discrete 1-D speed, the run's `c_one_dim`; the guess's speed
    is never reported.  The shooting time goes to `timings`.

    In the Wentzell family `D` enters only the top-row term
    `(s/mu)(D psi_xx - c psi_x)`, which with its Jacobian entries is exactly
    +-0 at s = 0; so the start is the same, bit for bit, for every `D`, and a
    `--sweep D=...` computes it once for all its points.  Newton factors in
    `work`, or in a `band_workspace` of its own.
    """
    t0 = time.perf_counter()
    guess = one_dim_guess(cfg.params.d, cfg.nonlinearity, cfg.shooting_tol)
    timings["shooting"] = time.perf_counter() - t0
    return one_dim_start(guess, cfg.params, cfg.nonlinearity, cfg.grid, cfg.newton,
                         work=band_workspace(cfg.grid) if work is None else work)


def execute_run(cfg: RunConfig, outdir: Path, start: NewtonResult | None = None) -> dict:
    """A full run.  Given `start`, the `run_start` of a config that differs
    from `cfg` at most in `D`, the run does not shoot: its summary then has
    no `shooting` time, and stage A's time is the march alone.  Without it
    the run computes its own start."""
    summary: dict = {"config_hash": config_hash(cfg.raw), "stages": {}, "timings_s": {}}
    work = band_workspace(cfg.grid)  # every factorization of the run, one at a time
    with closing(PathWriter(outdir, cfg, summary["config_hash"])) as writer:
        t0 = time.perf_counter()
        if start is None:
            start = run_start(cfg, summary["timings_s"], work)
            t0 += summary["timings_s"]["shooting"]  # stage A's time starts when shooting ends
        summary["c_one_dim"] = start.state.c
        first = make_record("A", start.state, start.residual_norm, cfg.params,
                            cfg.nonlinearity, cfg.grid, cfg.initial_step)
        writer.write(first)
        _run_stages(cfg, writer, summary, first, t0, work)
    return _write_summary(outdir, summary)


def execute_resume(cfg: RunConfig, outdir: Path, ckpt: dict, force: bool) -> dict:
    cfg_hash = config_hash(cfg.raw)
    if ckpt["config_hash"] != cfg_hash and not force:
        raise ConfigHashMismatch("checkpoint was produced by a different configuration "
                                 "(rerun with --force to override)")
    # a B checkpoint holds the corrected handoff, which is where stage C starts
    stage = "C" if ckpt["stage"] == "B" else ckpt["stage"]
    if STAGES.index(stage) > STAGES.index(cfg.target_stage):
        raise ConfigError(f"continuation.target_stage: a stage {ckpt['stage']} checkpoint "
                          f"resumes in stage {stage}, past the target {cfg.target_stage!r}")
    state, ck_grid, step, prev_state = checkpoint_state(ckpt)
    if ck_grid != cfg.grid:
        raise ConfigHashMismatch("checkpoint grid does not match the configuration grid")
    if stage == cfg.target_stage and ckpt["parameter"] >= 1.0 - PARAMETER_TOL:
        raise ConfigError(f"continuation.target_stage: a stage {ckpt['stage']} checkpoint at "
                          f"parameter {ckpt['parameter']:g} already ends the target stage "
                          f"{cfg.target_stage!r}")
    residual_norm = float(np.abs(assemble_residual(state, cfg.params, cfg.nonlinearity,
                                                   cfg.grid)).max())
    summary: dict = {"config_hash": cfg_hash, "stages": {}, "timings_s": {},
                     "resumed_from": {"stage": ckpt["stage"], "parameter": ckpt["parameter"]}}
    t0 = time.perf_counter()
    start = make_record(stage, state, residual_norm, cfg.params, cfg.nonlinearity, cfg.grid,
                        step, prev_state)
    certify(start)  # before the output directory is touched
    with closing(PathWriter(outdir, cfg, cfg_hash)) as writer:
        _run_stages(cfg, writer, summary, start, t0, band_workspace(cfg.grid))
    return _write_summary(outdir, summary)


def _report(outdir: Path | None, exc: Exception) -> int:
    """Print `exc`, record it in `outdir`/error.json if given; return its exit code."""
    if isinstance(exc, (ConfigError, ConfigHashMismatch, SchemaMismatch)):
        exit_code = EXIT_VALIDATION
    elif isinstance(exc, StripWaveError):
        exit_code = EXIT_SOLVER
    else:  # OSError, or a malformed file or argument
        exit_code = EXIT_IO
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "error.json").write_text(json.dumps(record, sort_keys=True, indent=2))
        except OSError:
            pass
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return exit_code


# --- subcommand entry points --------------------------------------------------
# Each raises on bad input or a failed run, and `main` reports CLI_ERRORS.  A run
# or resume sets `args.outdir` once its config has loaded, for its error.json; a
# resume only once its output directory is not the checkpoint's.
CLI_ERRORS = (StripWaveError, OSError, KeyError, ValueError)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    outdir = resolve_output_dir(cfg)
    if args.sweep:  # each point records its own error.json
        return _run_sweep(cfg, outdir, args.sweep)
    args.outdir = outdir
    summary = execute_run(cfg, outdir)
    final_stage = max(summary["stages"])
    print(f"done: stage {final_stage} c = {fmt_float(summary['stages'][final_stage]['c'])} "
          f"(artifacts in {outdir})")
    return EXIT_OK


def _sweep_worker(payload: tuple[dict, str, NewtonResult | None]) -> tuple[int, dict]:
    """A point's exit code and summary, `{}` when it failed."""
    data, outdir, start = payload
    try:  # a pool process: its errors are reported here, not by `main`
        return EXIT_OK, execute_run(config_from_dict(data), Path(outdir), start)
    except CLI_ERRORS as exc:
        return _report(Path(outdir), exc), {}


def _run_sweep(cfg: RunConfig, outdir: Path, sweep: str) -> int:
    """One run per `D` value, each in its subdirectory `D_<value>`, on a
    process pool.  The points share their start (`run_start` does not depend
    on `D`), which one pool task computes before the points run; when it
    fails, each point computes its own start, and so fails as its plain run
    does.  Then sweep.csv tabulates the speeds, one row per value: the
    shared discrete 1-D speed (stage A's s = 0 speed, `nan` when the shared
    start failed) and each point's stage A and C end speeds, `nan` where
    none was reached."""
    name, _, values_txt = sweep.partition("=")
    texts = [v.strip() for v in values_txt.split(",")]
    try:
        values = [float(v) for v in texts]
    except ValueError:
        values = []
    if name != "D" or not values:
        raise ConfigError(f"--sweep: expected 'D=v1,v2,...', got {sweep!r}")
    jobs, value_of = [], {}
    for text, v in zip(texts, values):
        sub = outdir / f"D_{v:g}"
        if sub in value_of:
            raise ConfigError(f"--sweep: D={value_of[sub]} and D={text} would both write {sub}")
        value_of[sub] = text
        data = json.loads(canonical_json(cfg.raw))
        data["params"]["D"] = v
        data["output_dir"] = str(sub)
        jobs.append((data, str(sub)))
    # the CPUs this process may run on (taskset, cpusets), not the machine's
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(jobs), cpus or 1)
    c_one_dim = float("nan")
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            start = pool.submit(run_start, cfg, {}).result()
            c_one_dim = start.state.c
        except CLI_ERRORS:  # each point runs its own start, which fails the same way
            start = None
        points = list(pool.map(_sweep_worker, [job + (start,) for job in jobs]))
    speeds = [[summary.get("stages", {}).get(stage, {}).get("c", float("nan"))
               for _, summary in points] for stage in "AC"]
    _write_csv(outdir / "sweep.csv", "D,c_one_dim,c_wentzell,c_system",
               [values, [c_one_dim] * len(values), *speeds])
    for v, (code, _) in zip(values, points):
        print(f"D = {v:g}: exit {code}")
    return max(code for code, _ in points)


def cmd_resume(args) -> int:
    cfg = load_config(args.config)
    outdir = resolve_output_dir(cfg)
    if outdir.resolve() == Path(args.checkpoint).resolve().parent:
        raise ConfigError(f"resume: output directory {outdir} holds the checkpoint "
                          f"{args.checkpoint}, whose run it would overwrite; set WAVE_OUT "
                          f"or output_dir to another directory")
    args.outdir = outdir
    ckpt = read_checkpoint(args.checkpoint)
    require_finite_arrays(ckpt, args.checkpoint)
    execute_resume(cfg, outdir, ckpt, args.force)
    print(f"resumed from {args.checkpoint} (artifacts in {outdir})")
    return EXIT_OK


def cmd_profile(args) -> int:
    """The checkpoint's full field (`write_profile_files`), refused when a file
    it would write is the checkpoint, the only copy of a stage's end state."""
    state, grid, _, _ = checkpoint_state(read_checkpoint(args.checkpoint))
    out, ckpt = Path(args.out), Path(args.checkpoint).resolve()
    for target in [out] + ([_line_path(out)] if state.phi is not None else []):
        if target.resolve() == ckpt:
            raise ValueError(f"profile: {target} is the checkpoint {args.checkpoint}, "
                             f"which it would overwrite")
    write_profile_files(out, state, grid)
    return EXIT_OK


def cmd_symbol_scan(args) -> int:
    cfg = load_config(args.config)
    table = analysis.symbol_scan_table(cfg.params, args.epsilon, args.c0, args.c1,
                                       args.xi_max, args.n)
    out = Path(args.out) if args.out else resolve_output_dir(cfg) / "symbol_scan.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, "xi,re_F,im_F,abs_F", [table])
    print(f"min |F| = {fmt_float(float(table[:, 3].min()))} over {args.n} frequencies "
          f"in [-{args.xi_max:g}, {args.xi_max:g}] -> {out}")
    return EXIT_OK


def cmd_oned(args) -> int:
    cfg = load_config(args.config)
    wave = solve_1d_ignition_shooting(cfg.params.d, cfg.nonlinearity, cfg.shooting_tol)
    print(f"c = {fmt_float(wave.c)}")
    if args.out:
        x_tail = np.linspace(-8.0 * cfg.params.d / wave.c, 0.0, 200, endpoint=False)
        xs = np.concatenate([x_tail, wave.x])
        _write_csv(args.out, "x,psi", [xs, wave.evaluate(xs)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wave",
                                     description="Travelling-wave continuation for a "
                                                 "reaction-diffusion strip coupled to a line "
                                                 "of fast diffusion")
    parser.add_argument("--verbose", action="store_true", help="log continuation progress")
    parser.set_defaults(outdir=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full continuation run from a JSON config")
    p.add_argument("config", metavar="config.json")
    p.add_argument("--sweep", help="e.g. D=1,2,4: one run per value, in subdirectory "
                                   "D_<value>; the runs share their D-independent start "
                                   "(the coarse shooting guess and the s = 0 correction), "
                                   "and sweep.csv tabulates their speeds")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("resume", help="continue from a checkpoint")
    p.add_argument("checkpoint", metavar="ckpt.json")
    p.add_argument("config", metavar="config.json")
    p.add_argument("--force", action="store_true", help="ignore config hash mismatch")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("profile", help="write a checkpoint's full field: x,y,psi to out.csv "
                                       "and, for an exchange state, x,phi to out_line.csv")
    p.add_argument("checkpoint", metavar="ckpt.json")
    p.add_argument("out", metavar="out.csv")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("symbol-scan", help="scan the boundary symbol denominator")
    p.add_argument("config", metavar="config.json")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--xi-max", type=float, default=50.0, dest="xi_max")
    p.add_argument("--n", type=int, default=10001)
    p.add_argument("--out")
    p.set_defaults(func=cmd_symbol_scan)

    p = sub.add_parser("oned", help="1-D shooting speed and profile only")
    p.add_argument("config", metavar="config.json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oned)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except CLI_ERRORS as exc:
        return _report(args.outdir, exc)


if __name__ == "__main__":
    raise SystemExit(main())
