"""Printed digits of cheap integration runs against the benchmark reference.

The benchmark checks every CLI output against SHA-256 digests of its data
and summary lines (``bench/reference.json``).  Three cheap operations are
checked here the same way, so that a change to the integrator that moves a
printed digit fails the test suite and not only the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dickesim import cli

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize("command", [
    "evolve --n 2 --eta-omega-t 78",
    "evolve --model full --n 6 --eta-omega-t 20",
    "scan-noise --model full --n 2 --eta-omega-t 70 --cuts 401",
])
def test_output_matches_reference_digest(command, capsys):
    expected = json.loads(REFERENCE.read_text())["digests"][command]
    assert cli.main(command.split()) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected
