"""Printed digits of cheap CLI runs against the benchmark reference.

The benchmark checks every CLI output against SHA-256 digests of its data
and summary lines (``bench/reference.json``).  A few cheap operations are
checked here the same way, so that a change to the integrator or to the
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
])
def test_output_matches_reference_digest(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the bounds input is a path relative to the repository
    expected = json.loads(REFERENCE.read_text())["digests"][command]
    assert cli.main(command.split()) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected
