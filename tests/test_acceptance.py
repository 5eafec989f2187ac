"""Release acceptance checks, one test per criterion.

Each test prints its criterion verdict line (run pytest with -s or check the
captured output).  The originally stated settings for the adiabatic-transfer
criterion are physically unable to meet their own thresholds (see the notes
shipped with the repository); those rows are expected failures, kept strict
so any change in that conclusion surfaces loudly, and the corrected strict
preset carries the criterion.
"""

import pytest

from dickesim import repro

STATED_SETTINGS_REASON = (
    "stated tuple eta*omega_bar*T = 40, delta = 20*eta*omega_bar cannot reach "
    "final <Jz> >= 1.98 / midpoint fidelity >= 0.99: the transfer gap is "
    "second order, ~ (eta*omega_bar)^2/delta, making this ramp ~8x too fast "
    "(measured: <Jz> = 0.891, fidelity = 0.745, step-size converged)"
)


def _check(result):
    print(f"\ncriterion {result.cid}: {result.verdict}")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, "; ".join(result.details)


def test_criterion_01_dark_state_algebra():
    _check(repro.criterion_1())


def test_criterion_02_coupling_oracle():
    _check(repro.criterion_2())


def test_criterion_03_adiabatic_transfer_strict_preset():
    _check(repro.criterion_3(stated=False))


@pytest.mark.xfail(strict=True, reason=STATED_SETTINGS_REASON)
def test_criterion_03_adiabatic_transfer_stated_settings():
    _check(repro.criterion_3(stated=True))


def test_criterion_04_full_vs_reduced_consistency():
    _check(repro.criterion_4())


def test_criterion_05_spin_noise_profile():
    _check(repro.criterion_5())


def test_criterion_06_witness_strict_preset():
    _check(repro.criterion_6(stated=False))


@pytest.mark.xfail(strict=True, reason=STATED_SETTINGS_REASON)
def test_criterion_06_witness_stated_settings():
    _check(repro.criterion_6(stated=True))


def test_criterion_07_paper_arithmetic():
    _check(repro.criterion_7())


def test_criterion_08_bound_sandwich_oracle():
    _check(repro.criterion_8())


def test_criterion_09_parity_pipeline():
    _check(repro.criterion_9())


def test_criterion_10_shot_noise_statistics():
    _check(repro.criterion_10())
