"""Scripted reproduction of the release acceptance checks.

Each criterion function recomputes its quantities from scratch.  ``ROWS``
lists the table's rows and ``DOCUMENTED_SHORTFALLS`` declares the rows that
fail by design, once, for the CLI `repro` subcommand and the test suite.

Criterion 3 (and the witness follow-up in criterion 6) is evaluated twice:
once at the corrected strict-adiabatic preset, where the required transfer
quality holds, and once at the originally stated demo-speed settings
(eta*omega_bar*T = 40 at delta = 20*eta*omega_bar).  The stated settings
cannot reach the required fidelity in this model: the transfer bottleneck is
the second-order two-photon gap ~ (eta*omega_bar)^2 / delta, which those
numbers make about eight times too slow for the ramp.  The stated-settings
rows are therefore reported as documented shortfalls with their measured
values, not silently retuned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import certification, dark_state, evolution, measurement, model, observables, spin_algebra

PAPER_WITNESS = 5.46
PAPER_POPULATIONS = (0.00, 0.03, 0.88, 0.03, 0.03)
PAPER_BOUNDS = (0.84, 0.88)
PAPER_TWO_ION_POPULATIONS = (0.516, 0.033, 0.451)
PAPER_TWO_ION_AMPLITUDE = 0.95
PAPER_TWO_ION_FIDELITY = 0.96

#: what a criterion returns: its row's description, verdict and details
Row = tuple[str, bool, list[str]]


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    details: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL (documented shortfall)" if self.cid in DOCUMENTED_SHORTFALLS else "FAIL"


@spin_algebra.constant_cache(spin_algebra.check_n_ions)
def strict_trajectory(n_ions: int) -> evolution.Trajectory:
    return evolution.integrate_reduced(*evolution.adiabatic_preset("strict", n_ions))


@spin_algebra.constant_cache(spin_algebra.check_n_ions)
def fast_trajectory(n_ions: int) -> evolution.Trajectory:
    return evolution.integrate_reduced(*evolution.adiabatic_preset("fast", n_ions))


def criterion_1() -> Row:
    """Dark states are exact chain kernels and Jx null vectors, the
    equal-tone one Ry(pi/2)|D^{N/2}> to 1e-10; printed two- and four-ion
    expansions match to 1e-12."""
    worst_h = worst_jx = worst_fid = 0.0
    wr, wb = (w.ravel() for w in np.meshgrid(*[np.linspace(0.2, 2.0, 10)] * 2))
    for n in (2, 4, 6):
        hs = model.reduced_hamiltonian(model.SystemParams(n_ions=n, delta=7.0), wr, wb)
        _, amplitudes = dark_state.normalized_amplitudes(
            dark_state.closed_form_coefficients(n), wr, wb)
        worst_h = max(worst_h, *map(dark_state.verify_dark,
                                    dark_state.chain_vector(amplitudes), hs))
        worst_jx = max(worst_jx, dark_state.jx_annihilation_check(n))
        equal = dark_state.chain_vector(dark_state.dark_coefficients(n, 1.0, 1.0)[1])
        fid = abs(np.vdot(spin_algebra.half_excited_x(n), equal)) ** 2
        worst_fid = max(worst_fid, abs(1 - fid))
    two = dark_state.dark_coefficients(2, 1.0, 1.0)[1]
    four = dark_state.dark_coefficients(4, 1.0, 1.0)[1]
    err_two = float(np.max(np.abs(two - np.array([1, -1]) / np.sqrt(2))))
    err_four = float(np.max(np.abs(
        four - np.array([np.sqrt(3 / 8), -np.sqrt(1 / 4), np.sqrt(3 / 8)])
    )))
    passed = (worst_h < 1e-10 and worst_jx < 1e-10 and worst_fid <= 1e-10
              and err_two < 1e-12 and err_four < 1e-12)
    return (
        "dark-state algebra", passed,
        [f"max ||H psi_d|| = {worst_h:.2e} (< 1e-10)",
         f"max ||Jx psi_d|| = {worst_jx:.2e} (< 1e-10)",
         f"printed-expansion errors: N=2 {err_two:.2e}, N=4 {err_four:.2e} (< 1e-12)"],
    )


def criterion_2() -> Row:
    """Closed-form couplings equal full 2^N-space matrix elements to 1e-12."""
    worst = 0.0
    for n in range(1, 9):
        v = spin_algebra.symmetric_isometry(n)
        # <D^{m+1}|J+|D^m> on the subdiagonals, the closed form on J+'s lower band
        oracle = np.diagonal(v.conj().T @ spin_algebra.full_space_oracle(n, "j+") @ v, -1)
        formula = np.diagonal(spin_algebra.build_collective(n, "j+"), -1)
        worst = max(worst, float(np.max(np.abs(oracle.real - formula.real))))
    return (
        "coupling oracle", worst < 1e-12,
        [f"max |formula - oracle| over N <= 8 = {worst:.2e} (< 1e-12)"],
    )


def criterion_3(stated: bool) -> Row:
    """Full transfer and >= 0.99 midpoint fidelity to the half-excited Dicke
    state, at the strict preset (row 3) or at the stated settings (row 3s),
    whose failure is a documented shortfall."""
    traj = fast_trajectory(4) if stated else strict_trajectory(4)
    final_jz, mid_fid = evolution.transfer_numbers(traj)
    passed = final_jz >= 1.98 and mid_fid >= 0.99
    details = [f"final <Jz> = {final_jz:.6f} (>= 1.98)",
               f"midpoint fidelity = {mid_fid:.6f} (>= 0.99)"]
    if stated:
        details.append("two-photon gap ~ (eta*omega_bar)^2/delta is too small at these settings")
    settings = "stated settings" if stated else "strict preset"
    return (f"adiabatic transfer ({settings}, eta*omega_bar*T = {traj.schedule.total_time:g})",
            passed, details)


def _model_agreement(n_ions: int, delta: float) -> float:
    schedule = evolution.PulseSchedule(total_time=40.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    # the chain driven at half the rates is the full model's resonant block
    half = evolution.PulseSchedule(total_time=40.0, omega_bar=0.5)
    reduced = evolution.integrate_reduced(half, params)
    full = evolution.integrate_full(schedule, params)
    [fid] = full.chain_fidelities([full.midpoint], [reduced.states[reduced.midpoint]])
    return float(fid)


def criterion_4() -> Row:
    """The full model at t = 0 on the chain states equals the chain at half
    the rates and delta = 0 exactly (N <= 8, a rate grid); full-vs-reduced
    midpoint agreement >= 0.95 with the chain at omega_bar/2, improving when
    the detuning doubles."""
    wr, wb = (w.ravel() for w in np.meshgrid(*[np.linspace(0.0, 2.0, 9)] * 2))
    diff = 0.0
    for n in range(1, 9):
        params = model.SystemParams(n_ions=n, delta=20.0)
        chain = np.ix_(*[model.chain_indices(n, params.n_max)] * 2)
        block = model.full_hamiltonian(params, np.zeros(len(wr)), wr, wb)[(..., *chain)]
        half = model.reduced_hamiltonian(model.SystemParams(n_ions=n), wr / 2, wb / 2)
        diff = max(diff, float(np.max(np.abs(block - half))))
    details = [f"full model at t = 0 on the chain states - chain at omega_bar/2, "
               f"delta = 0: max |difference| = {diff:.2e} (= 0)"]
    passed = diff == 0
    for n in (2, 4):
        fid_1 = _model_agreement(n, delta=20.0)
        fid_2 = _model_agreement(n, delta=40.0)
        details.append(
            f"N={n}: agreement {fid_1:.6f} (>= 0.95), at doubled delta {fid_2:.6f} (improves)"
        )
        passed = passed and fid_1 >= 0.95 and (1 - fid_2) < (1 - fid_1)
    return "full-vs-reduced consistency", passed, details


def criterion_5() -> Row:
    """Dark-state spin noise over the ramp angle, from ``spin_readout``: the
    x variance vanishes exactly at the midpoint and the endpoint theta = 0,
    the all-down pole, is coherent-state noise."""
    thetas = np.linspace(0.0, np.pi, 81)
    _, amplitudes = dark_state.normalized_amplitudes(dark_state.closed_form_coefficients(4),
                                                     *evolution.tones(thetas))
    states = dark_state.chain_vector(amplitudes)
    _, var_x, var_y, var_z = observables.spin_readout(model.spin_marginals(states, 4))
    idx_min = int(np.argmin(var_x))
    idx_half = int(np.argmin(np.abs(thetas - np.pi / 2)))
    end_err = max(abs(var_x[0] - 1), abs(var_y[0] - 1), abs(var_z[0]))
    passed = idx_min == idx_half and var_x[idx_min] < 1e-10 and end_err < 1e-10
    return (
        "spin-noise profile", passed,
        [f"min var(Jx) = {var_x[idx_min]:.2e} at theta = {thetas[idx_min]:.6f} (pi/2 exactly)",
         f"endpoint variances (1, 1, 0) within {end_err:.2e}"],
    )


def criterion_6(stated: bool) -> Row:
    """Witness >= 5.9 on the midpoint of the strict preset (row 6), where the
    ideal state's must be 6.000, or of the stated settings (row 6s), whose
    failure is a documented shortfall."""
    traj = fast_trajectory(4) if stated else strict_trajectory(4)
    w_mid = observables.witness(traj.spin_marginals([traj.midpoint])[0], ("y", "z"))
    passed = w_mid >= 5.9
    settings = "stated settings" if stated else "strict preset"
    label = "stated-settings" if stated else "strict"
    details = [f"{label} midpoint <W_yz> = {w_mid:.6f} (>= 5.9)"]
    if not stated:
        w_ideal = observables.witness(spin_algebra.half_excited_x(4), ("y", "z"))
        passed = (abs(w_ideal - 6.0) <= 1e-9
                  and w_ideal > observables.WITNESS_THRESHOLD_FOUR_ION and passed)
        details.insert(0, f"ideal <W_yz> = {w_ideal:.12f} (= 6 +- 1e-9, > 5.23)")
    return f"entanglement witness ({settings})", passed, details


def criterion_7() -> Row:
    """The published measured inputs reproduce the published arithmetic."""
    lower = certification.fidelity_lower(PAPER_WITNESS, PAPER_POPULATIONS)
    upper = certification.fidelity_upper(PAPER_POPULATIONS)
    lower4, upper4 = certification.fidelity_sandwich_4ion(PAPER_WITNESS, PAPER_POPULATIONS)
    p_minus, _, p_plus = PAPER_TWO_ION_POPULATIONS
    two_ion = observables.parity_fidelity(p_minus, p_plus, PAPER_TWO_ION_AMPLITUDE)
    passed = (
        abs(lower - PAPER_BOUNDS[0]) <= 0.005
        and abs(upper - PAPER_BOUNDS[1]) <= 0.005
        and abs(two_ion - PAPER_TWO_ION_FIDELITY) <= 0.005
        and abs(lower4 - lower) < 1e-12
        and abs(upper4 - upper) < 1e-12
    )
    return (
        "paper-arithmetic reproduction", passed,
        [f"F_lo = {lower:.4f} (target 0.84 +- 0.005)",
         f"F_hi = {upper:.4f} (target 0.88 +- 0.005)",
         f"two-ion F = {two_ion:.4f} (target 0.96 +- 0.005)"],
    )


def criterion_8() -> Row:
    """Bound sandwich on 100 random pure and 100 random mixed four-qubit
    states; four-ion closed form identical to the general bound."""
    target = certification.half_excited_full(4, "x")
    worst_lo, worst_hi = np.inf, np.inf
    for seed in range(100):
        pure = certification.haar_random_pure(16, np.random.default_rng(seed))
        mixed = certification.random_mixture(16, 8, np.random.default_rng(1000 + seed))
        for state in (pure, mixed):
            rec = certification.certify_from_state(state, "x")
            fid = observables.direct_fidelity(state, target)
            worst_lo = min(worst_lo, fid - rec.f_lower)
            worst_hi = min(worst_hi, rec.f_upper - fid)
    rng = np.random.default_rng(2026)
    worst_eq = 0.0
    for _ in range(1000):
        w = rng.uniform(0, 6)
        pops = rng.uniform(0, 1, size=5)
        lo4, hi4 = certification.fidelity_sandwich_4ion(w, pops)
        worst_eq = max(
            worst_eq,
            abs(lo4 - certification.fidelity_lower(w, pops)),
            abs(hi4 - certification.fidelity_upper(pops)),
        )
    passed = worst_lo > -1e-9 and worst_hi > -1e-9 and worst_eq < 1e-12
    return (
        "bound-sandwich oracle", passed,
        [f"min(F - F_lo) = {worst_lo:.3e}, min(F_hi - F) = {worst_hi:.3e} (> -1e-9)",
         f"max |closed form - general| over 1000 inputs = {worst_eq:.2e} (< 1e-12)"],
    )


def criterion_9() -> Row:
    """Two-ion parity pipeline: exact on the ideal state, >= 0.99 on the
    strict-preset midpoint."""
    ideal = dark_state.chain_vector(dark_state.dark_coefficients(2, 1.0, 1.0)[1]).astype(complex)
    scan_ideal = observables.parity_scan(ideal)
    scan_mid = observables.parity_scan(evolution.strict_midpoint(2)[0])
    passed = (
        scan_ideal.amplitude >= 0.999
        and abs(scan_ideal.fidelity - 1.0) <= 1e-6
        and scan_mid.fidelity >= 0.99
    )
    return (
        "parity pipeline", passed,
        [f"ideal A_p = {scan_ideal.amplitude:.8f} (>= 0.999), "
         f"F = {scan_ideal.fidelity:.8f} (1 +- 1e-6)",
         f"strict midpoint F = {scan_mid.fidelity:.6f} (>= 0.99)"],
    )


def criterion_10() -> Row:
    """Shot statistics within 3 sigma at 1e6 shots; seeded replay draws the
    same counts on the same key, from which the record derives the rest."""
    state = spin_algebra.rotation_y(4, np.pi / 2) @ spin_algebra.dicke_state(4, 0)
    exact = observables.populations_along(state, "z")
    config = measurement.ShotConfig(n_shots=10**6, seed=20260810)
    rec = measurement.sample_populations(state, config, "z")
    sigma = np.sqrt(exact * (1 - exact) / config.n_shots)
    dev = np.abs(rec.frequencies - exact)
    within = bool(np.all(dev <= 3 * sigma + 1e-15))
    replay = measurement.sample_populations(state, config, "z")
    identical = (np.array_equal(rec.counts, replay.counts)
                 and (rec.seed, rec.stream) == (replay.seed, replay.stream))
    passed = within and identical
    return (
        "shot-noise statistics", passed,
        [f"max |freq - p| / sigma = {float(np.max(dev / np.maximum(sigma, 1e-300))):.2f} (<= 3)",
         f"seeded replay draws the same counts, seed and stream: {identical}"],
    )


#: the acceptance table in print order: each row's id and its criterion
ROWS = {
    "1": criterion_1,
    "2": criterion_2,
    "3": partial(criterion_3, stated=False),
    "3s": partial(criterion_3, stated=True),
    "4": criterion_4,
    "5": criterion_5,
    "6": partial(criterion_6, stated=False),
    "6s": partial(criterion_6, stated=True),
    "7": criterion_7,
    "8": criterion_8,
    "9": criterion_9,
    "10": criterion_10,
}

#: the stated-settings rows, which print FAIL and their values and do not
#: fail the table
DOCUMENTED_SHORTFALLS = frozenset({"3s", "6s"})


def run_all() -> list[CriterionResult]:
    return [CriterionResult(cid, *row()) for cid, row in ROWS.items()]
