"""Printed digits of cheap CLI runs against the benchmark reference.

The benchmark checks every CLI output against SHA-256 digests of its data
and summary lines (``bench/reference.json``), and each row of a sweep
against the reference's row for that ramp length.  A few cheap operations
are checked here the same way, so that a change to the integrator or to the
operator and certification layers that moves a printed digit fails the test
suite and not only the benchmark.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from dickesim import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference.json"


#: each pinned command, with the total time of the ramp that it integrates
#: or None; the simulated sources integrate the strict ramp (T = 480) to its
#: midpoint
COMMANDS = {
    "evolve --n 2 --eta-omega-t 78": 78.0,
    "evolve --model full --n 6 --eta-omega-t 20": 20.0,
    "scan-noise --model full --n 2 --eta-omega-t 70 --cuts 401": 70.0,
    "witness --source ideal --n 8": None,
    "parity --source ideal --shots 1000 --seed 1": None,
    "bounds --input data/paper_fourion.cfg": None,
    "witness --source simulated --n 2": 240.0,
    "parity --source simulated --shots 200 --seed 1": 240.0,
    "evolve --model full --n 4 --eta-omega-t 40": 40.0,
}


@functools.lru_cache(maxsize=None)
def _output(command):
    """The printed lines of one run of ``command``, shared by both tests."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)  # the bounds input is a path relative to the repository
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(command.split()) == 0
    finally:
        os.chdir(cwd)
    return tuple(out.getvalue().splitlines())


def _digest(command):
    # the run record adds header lines only: the data rows keep their digits
    lines = [line for line in _output(command) if not line.startswith("#")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_reference_digest(command):
    expected = json.loads(REFERENCE.read_text())["digests"][command]
    assert _digest(command) == expected


@pytest.mark.parametrize("command, total_time", [
    (command, total_time) for command, total_time in COMMANDS.items()
    if total_time is not None
])
def test_header_records_the_run(command, total_time):
    expected = json.loads(REFERENCE.read_text())["digests"][command]
    out = _output(command)
    record = dict(line[2:].split(" = ", 1) for line in out
                  if line.startswith("# ") and " = " in line)
    assert record["propagator"] == "rk4"
    n_steps, dt = int(record["n_steps"]), float(record["dt"])
    assert n_steps > 0 and n_steps * dt == pytest.approx(total_time, rel=1e-12)
    assert 0 <= float(record["max_norm_drift"]) <= 1e-8
    assert ("truncation_leak" in record) == ("--model full" in command)
    assert _digest(command) == expected


def test_sweep_rows_match_reference(capsys):
    # the reference holds one row per ramp length, read here and never written
    rows = json.loads(REFERENCE.read_text())["sweep_rows"]
    assert cli.main(["sweep", "--n", "4", "--eta-omega-t-list", "20,40"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert lines == [rows["header"], rows["20"], rows["40"]]
