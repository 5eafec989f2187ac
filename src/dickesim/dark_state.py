"""Analytic dark states of the sideband chain for even ion numbers.

For even N and sideband amplitudes (Omega_r, Omega_b) != (0, 0), the chain
Hamiltonian has a one-dimensional kernel supported on the even-excitation
Dicke states at phonon vacuum:

    |psi_d> = A * sum_i  C_i * Omega_b^i * Omega_r^(N/2 - i) |D^{2i}>|0>,

with C_0 = 1 and C_i = (-1)^i * prod_{j=1..i} R_{2j-2} / R_{2j-1}.  At equal
amplitudes this is the half-excited Dicke state along x, annihilated by Jx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_algebra import _frozen, build_collective, collective_coupling, dicke_state, rotation_y

FULL_CHECK_MAX_IONS = 10


@dataclass(frozen=True)
class DarkState:
    """Normalized dark state with its closed-form ingredients kept visible."""

    n_ions: int
    omega_r: float
    omega_b: float
    coeffs: np.ndarray        # C_0 .. C_{N/2}, sign-alternating, C_0 = 1
    norm_a: float             # normalizing constant A
    amplitudes: np.ndarray    # A * C_i * Omega_b^i * Omega_r^(N/2-i)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(np.array(self.coeffs, dtype=float)))
        object.__setattr__(self, "amplitudes", _frozen(np.array(self.amplitudes, dtype=float)))

    @property
    def chain_vector(self) -> np.ndarray:
        """Amplitudes embedded in the chain basis, zeros on the odd slots.

        The chain pairs even Dicke levels with phonon vacuum, so the same
        vector is also the spin state in the Dicke basis."""
        vec = np.zeros(self.n_ions + 1)
        vec[0::2] = self.amplitudes
        return vec


def dark_coefficients(n_ions: int, omega_r: float, omega_b: float) -> DarkState:
    """Closed-form dark state of the chain for given sideband amplitudes."""
    if n_ions % 2 != 0 or n_ions < 2:
        raise ValueError(f"dark states exist only for even n_ions >= 2, got {n_ions}")
    if omega_r < 0 or omega_b < 0:
        raise ValueError("sideband amplitudes must be nonnegative")
    if omega_r == 0 and omega_b == 0:
        raise ValueError("at least one sideband amplitude must be nonzero")
    half = n_ions // 2
    coeffs = np.ones(half + 1)
    for i in range(1, half + 1):
        coeffs[i] = -coeffs[i - 1] * (
            collective_coupling(n_ions, 2 * i - 2) / collective_coupling(n_ions, 2 * i - 1)
        )
    raw = np.array([coeffs[i] * omega_b**i * omega_r ** (half - i) for i in range(half + 1)])
    norm = np.linalg.norm(raw)
    return DarkState(
        n_ions=n_ions,
        omega_r=omega_r,
        omega_b=omega_b,
        coeffs=coeffs,
        norm_a=1.0 / norm,
        amplitudes=raw / norm,
    )


def verify_dark(state: DarkState, hamiltonian: np.ndarray) -> float:
    """Residual ||H psi|| of the dark state against a chain Hamiltonian.

    Stays below 1e-10 for any valid dark state built from the same
    amplitudes, independent of the detuning.
    """
    vec = state.chain_vector
    if hamiltonian.shape[0] != vec.shape[0]:
        raise ValueError(
            f"dimension mismatch: state {vec.shape[0]}, hamiltonian {hamiltonian.shape[0]}"
        )
    return float(np.linalg.norm(hamiltonian @ vec))


def jx_annihilation_check(n_ions: int) -> float:
    """||Jx psi_d(Omega, Omega)|| on the spin factor; contract < 1e-10.

    Also verifies that the equal-amplitude dark state coincides (up to a
    global phase) with Ry(pi/2)|D^{N/2}>, raising if that fidelity is not 1.
    """
    if n_ions % 2 != 0:
        raise ValueError("equal-amplitude dark states need an even ion number")
    if n_ions > FULL_CHECK_MAX_IONS:
        raise ValueError(f"check limited to n_ions <= {FULL_CHECK_MAX_IONS}")
    psi = dark_coefficients(n_ions, 1.0, 1.0).chain_vector
    jx = build_collective(n_ions, "jx")
    residual = float(np.linalg.norm(jx @ psi))
    rotated = rotation_y(n_ions, np.pi / 2) @ dicke_state(n_ions, n_ions // 2)
    fidelity = abs(np.vdot(rotated, psi)) ** 2
    if abs(fidelity - 1.0) > 1e-10:
        raise AssertionError(
            f"dark state at equal amplitudes is not Ry(pi/2)|D^(N/2)>: fidelity {fidelity}"
        )
    return residual
