"""The paper's "spin squeezing operation" on the symmetric sector.

Eliminating the chain's one-phonon sites leaves H_eff = -A^dag A / delta with
A = Omega_b J+ + Omega_r J- = 2 (Jx - i cos(theta) Jy) at the tones of
``evolution.tones(theta)``, so A^dag A = 4 (Jx^2 + cos^2(theta) Jy^2 +
cos(theta) Jz).  The dark state is A's kernel, and along the ramp it is an
intelligent spin state: Var Jx = cos^2(theta) Var Jy and Var Jx Var Jy =
<Jz>^2 / 4.  At theta = pi/2, H_eff is one-axis twisting in Jx, whose
Jx = 0 state Jz couples to Jx = +-1 with |<+-1|Jz|0>|^2 = N(N+2)/16.
On a pure state 4 Var J_n is the quantum Fisher information along n, which
for that state is N(N+2)/2 along y and z and 0 along x.

At theta = pi/2 adiabatic perturbation theory gives the ramp's midpoint
1 - F = theta_dot^2 * sum_{k != d} |<k|dH/dtheta|d>|^2 / (E_k - E_d)^4 to
first order.  On H_eff that sum is N(N+2) / (8 g^2) with g = 4 omega_bar^2 /
delta, the ramp-time law; on the chain it is the law times exactly
(1 + 4 omega_bar^2 / delta^2).
"""

import numpy as np
import pytest

from dickesim import model
from dickesim.dark_state import chain_vector, dark_coefficients
from dickesim.evolution import PulseSchedule, dark_fidelity_series, integrate_reduced, tones
from dickesim.observables import spin_readout
from dickesim.spin_algebra import build_collective, half_excited_x

THETAS = np.linspace(0.0, np.pi, 13)


def _lowering_mix(n_ions, theta):
    """A = Omega_b J+ + Omega_r J- at the tones of ``theta``."""
    omega_r, omega_b = tones(theta)
    jp = build_collective(n_ions, "j+")
    return omega_b * jp + omega_r * jp.conj().T


@pytest.mark.parametrize("n", range(1, 11))
def test_effective_hamiltonian_is_the_two_axis_form(n):
    jx, jy, jz = (build_collective(n, "j" + axis) for axis in "xyz")
    for theta in THETAS:
        a = _lowering_mix(n, theta)
        cos = np.cos(theta)
        closed = 4 * (jx @ jx + cos**2 * (jy @ jy) + cos * jz)
        assert np.max(np.abs(a.conj().T @ a - closed)) < 1e-12, theta


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_dark_state_is_the_kernel_of_the_lowering_mix(n):
    for theta in THETAS:
        dark = chain_vector(dark_coefficients(n, *tones(theta))[1])
        assert np.linalg.norm(_lowering_mix(n, theta) @ dark) <= 1e-12, theta


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_dark_path_is_an_intelligent_spin_state(n):
    states = [chain_vector(dark_coefficients(n, *tones(theta))[1]) for theta in THETAS]
    mean_jz, var_x, var_y, _ = map(np.array, spin_readout(model.spin_marginals(states, n)))
    cos2 = np.cos(THETAS) ** 2
    assert np.max(np.abs(var_x - cos2 * var_y)) < 1e-12
    np.testing.assert_allclose(var_x * var_y, mean_jz**2 / 4, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_jz_couples_the_jx_zero_state_to_its_neighbours(n):
    # eigh orders Jx's eigenvectors by m - N/2, so column N/2 is Jx = 0
    basis = np.linalg.eigh(build_collective(n, "jx"))[1]
    jz_in_x = basis.conj().T @ build_collective(n, "jz") @ basis
    zero = n // 2
    for neighbour in (zero - 1, zero + 1):
        assert abs(jz_in_x[neighbour, zero]) ** 2 == pytest.approx(n * (n + 2) / 16, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 11, 2))
def test_half_excited_x_state_has_the_dicke_fisher_information(n):
    # for a pure state F_Q = 4 Var J_n; the Jx = 0 eigenstate has none along
    # x and N(N+2)/2 along y and z, the Fisher information of D_N^{N/2}
    psi = half_excited_x(n)
    _, var_x, var_y, var_z = spin_readout(np.outer(psi, psi.conj())[None])
    assert abs(var_x[0]) <= 1e-15
    for var in (var_y[0], var_z[0]):
        assert 4 * var == pytest.approx(n * (n + 2) / 2, rel=1e-12)


def _first_order_sum(n_ions, delta, omega_bar):
    """sum_{k != d} |<k|dH/dtheta|d>|^2 / (E_k - E_d)^4 of the chain at
    theta = pi/2, where Omega_r = Omega_b = omega_bar and dH/dtheta =
    omega_bar (K_b - K_r); d is the dark state, the eigenvalue 0."""
    kr, kb, _ = model.reduced_coupling_parts(n_ions)
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    energies, basis = np.linalg.eigh(model.reduced_hamiltonian(params, omega_bar, omega_bar))
    dark = int(np.argmin(np.abs(energies)))
    couplings = basis.T @ (omega_bar * (kb - kr)) @ basis[:, dark]
    others = np.arange(n_ions + 1) != dark
    return float(np.sum(couplings[others] ** 2 / (energies[others] - energies[dark]) ** 4))


@pytest.mark.parametrize("n", range(2, 13, 2))
@pytest.mark.parametrize("delta", [7.0, 20.0, 80.0])
@pytest.mark.parametrize("omega_bar", [1.0, 0.5])
def test_first_order_sum_is_the_ramp_time_law_times_one_plus_the_gap_ratio(n, delta, omega_bar):
    law = n * (n + 2) * delta**2 / (128 * omega_bar**4)
    exact = law * (1 + 4 * omega_bar**2 / delta**2)
    assert _first_order_sum(n, delta, omega_bar) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_slow_linear_ramp_meets_the_first_order_midpoint_infidelity(n):
    # theta_dot = pi / T on the linear ramp; at T = 1920 the higher orders
    # in theta_dot are below 0.4 %
    schedule, delta = PulseSchedule(total_time=1920.0), 20.0
    params = model.SystemParams(n_ions=n, delta=delta)
    traj = integrate_reduced(schedule, params, capture_times=[schedule.total_time / 2])
    [fidelity] = dark_fidelity_series(traj, [traj.midpoint])
    first_order = (np.pi / schedule.total_time) ** 2 * _first_order_sum(n, delta, 1.0)
    assert 1 - fidelity == pytest.approx(first_order, rel=0.01)
