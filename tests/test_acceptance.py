"""Release acceptance checks, one test per row of ``repro.ROWS``.

The table is computed once for this module.  Each row's test prints its
verdict line and details (run pytest with -s or check the captured output).
The rows that ``repro.DOCUMENTED_SHORTFALLS`` declares are expected
failures, kept strict so that a shortfall that starts to pass fails loudly.
"""

from pathlib import Path

import pytest

from dickesim import cli, repro


@pytest.fixture(scope="module")
def table():
    return {result.cid: result for result in repro.run_all()}


SHORTFALL = pytest.mark.xfail(strict=True, reason="declared in repro.DOCUMENTED_SHORTFALLS")


@pytest.mark.parametrize("cid", [
    pytest.param(cid, marks=SHORTFALL) if cid in repro.DOCUMENTED_SHORTFALLS else cid
    for cid in repro.ROWS
])
def test_criterion(table, cid):
    result = table[cid]
    print(f"\ncriterion {result.cid}: {result.verdict}")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, "; ".join(result.details)


def test_repro_prints_the_golden_table(table, monkeypatch, capsys):
    # the whole acceptance table, byte for byte, as tests/repro_stdout.txt
    # recorded it; a change that moves a printed digit regenerates the file
    monkeypatch.setattr(repro, "run_all", lambda: list(table.values()))
    assert cli.main(["repro"]) == cli.EXIT_OK
    golden = (Path(__file__).parent / "repro_stdout.txt").read_bytes()
    assert capsys.readouterr().out.encode() == golden
