"""Printed digits of cheap CLI runs against the benchmark reference.

The benchmark checks every CLI output against SHA-256 digests of its data
and summary lines (``bench/reference.json``), and each row of a sweep
against the reference's row for that ramp length.  A few cheap operations
are checked here the same way, so that a change to the integrator or to the
operator and certification layers that moves a printed digit fails the test
suite and not only the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dickesim import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference.json"


@pytest.mark.parametrize("command", [
    "evolve --n 2 --eta-omega-t 78",
    "evolve --model full --n 6 --eta-omega-t 20",
    "scan-noise --model full --n 2 --eta-omega-t 70 --cuts 401",
    "witness --source ideal --n 8",
    "parity --source ideal --shots 1000 --seed 1",
    "bounds --input data/paper_fourion.cfg",
    "witness --source simulated --n 2",
    "parity --source simulated --shots 200 --seed 1",
    "evolve --model full --n 4 --eta-omega-t 40",
])
def test_output_matches_reference_digest(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the bounds input is a path relative to the repository
    expected = json.loads(REFERENCE.read_text())["digests"][command]
    assert cli.main(command.split()) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected


@pytest.mark.parametrize("command, total_time", [
    ("evolve --n 2 --eta-omega-t 78", 78.0),
    ("evolve --model full --n 6 --eta-omega-t 20", 20.0),
    ("scan-noise --model full --n 2 --eta-omega-t 70 --cuts 401", 70.0),
    # the simulated sources integrate the strict ramp (T = 480) to its midpoint
    ("witness --source simulated --n 2", 240.0),
    ("parity --source simulated --shots 200 --seed 1", 240.0),
])
def test_header_records_the_run(command, total_time, capsys):
    expected = json.loads(REFERENCE.read_text())["digests"][command]
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out.splitlines()
    record = dict(line[2:].split(" = ", 1) for line in out
                  if line.startswith("# ") and " = " in line)
    assert record["propagator"] == "rk4"
    n_steps, dt = int(record["n_steps"]), float(record["dt"])
    assert n_steps > 0 and n_steps * dt == pytest.approx(total_time, rel=1e-12)
    assert 0 <= float(record["max_norm_drift"]) <= 1e-8
    assert ("truncation_leak" in record) == ("--model full" in command)
    # the run record adds header lines only: the data rows keep their digits
    lines = [line for line in out if not line.startswith("#")]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected


def test_sweep_rows_match_reference(capsys):
    # the reference holds one row per ramp length, read here and never written
    rows = json.loads(REFERENCE.read_text())["sweep_rows"]
    assert cli.main(["sweep", "--n", "4", "--eta-omega-t-list", "20,40"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert lines == [rows["header"], rows["20"], rows["40"]]
