"""Correctness gate applied to every benchmark run of stripwave.

A run fails if it exits non-zero, if any path.csv row has a false
certificate, if its final stage-C speed is off by more than `SPEED_RTOL`
relative from the reference, or (resume) if its path.csv rows differ
from the matching rows of the uninterrupted run.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

SPEED_RTOL = 1e-6  # the relative tolerance of acceptance criterion 05
CERTIFICATES = ("bounds_ok", "monotone_ok", "sandwich_ok", "left_decay_ok")


def certificate_problems(path_csv_text: str) -> list[str]:
    """One message per path.csv row with a certificate that is not 1."""
    rows = list(csv.DictReader(io.StringIO(path_csv_text)))
    if not rows:
        return ["path.csv has no records"]
    problems = []
    for number, row in enumerate(rows, start=1):
        bad = [name for name in CERTIFICATES if row.get(name) != "1"]
        if bad:
            problems.append(f"path.csv row {number} ({row['stage']} {row['family_param']}): "
                            f"{', '.join(bad)} false")
    return problems


def speed_problem(c: float, reference: float) -> str | None:
    if abs(c - reference) <= SPEED_RTOL * abs(reference):
        return None
    return f"stage C speed {c!r} is off the reference {reference!r} by " \
           f"{abs(c - reference) / abs(reference):.3g} relative (limit {SPEED_RTOL:g})"


def resume_problem(full_csv_text: str, resumed_csv_text: str) -> str | None:
    """The resumed rows must equal, byte for byte, the uninterrupted run's
    rows after the record the resume started from (path.csv row 1)."""
    full = full_csv_text.splitlines(keepends=True)
    resumed = resumed_csv_text.splitlines(keepends=True)
    if len(resumed) < 2 or resumed != full[:1] + full[2:]:
        return "resumed path.csv rows are not byte-identical to the uninterrupted run's"
    return None


def run_dir_problems(outdir: Path, reference: float) -> list[str]:
    """Certificates and final speed of one finished run directory."""
    try:
        path_csv = (outdir / "path.csv").read_text()
        summary = json.loads((outdir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{outdir.name}: missing or unreadable output: {exc}"]
    problems = certificate_problems(path_csv)
    if "C" not in summary.get("stages", {}):
        problems.append("summary.json has no stage C")
    else:
        problem = speed_problem(summary["stages"]["C"]["c"], reference)
        if problem:
            problems.append(problem)
    return [f"{outdir.name}: {p}" for p in problems]
