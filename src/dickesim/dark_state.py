"""Analytic dark states of the sideband chain for even ion numbers.

For even N and sideband amplitudes (Omega_r, Omega_b) != (0, 0), the chain
Hamiltonian has a one-dimensional kernel supported on the even-excitation
Dicke states at phonon vacuum:

    |psi_d> = A * sum_i  C_i * Omega_b^i * Omega_r^(N/2 - i) |D^{2i}>|0>,

with C_0 = 1 and C_i = (-1)^i * prod_{j=1..i} R_{2j-2} / R_{2j-1}.  At equal
amplitudes this is the half-excited Dicke state along x, annihilated by Jx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_algebra import _frozen, build_collective, collective_coupling, half_excited_x


@dataclass(frozen=True)
class DarkState:
    """Normalized dark state: its normalizing constant and amplitudes."""

    norm_a: float             # normalizing constant A
    amplitudes: np.ndarray    # A * C_i * Omega_b^i * Omega_r^(N/2-i)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(np.array(self.amplitudes, dtype=float)))

    @property
    def chain_vector(self) -> np.ndarray:
        return chain_vector(self.amplitudes)


def chain_vector(amplitudes: np.ndarray) -> np.ndarray:
    """Dark-state amplitudes embedded in the chain basis, zeros on the odd
    slots; a (S, N/2+1) stack gives one row per sample.

    The chain pairs even Dicke levels with phonon vacuum, so the same vector
    is also the spin state in the Dicke basis."""
    amplitudes = np.asarray(amplitudes)
    vec = np.zeros((*amplitudes.shape[:-1], 2 * amplitudes.shape[-1] - 1))
    vec[..., 0::2] = amplitudes
    return vec


def closed_form_coefficients(n_ions: int) -> np.ndarray:
    """C_0 .. C_{N/2} of the closed form, sign-alternating with C_0 = 1."""
    if n_ions % 2 != 0 or n_ions < 2:
        raise ValueError(f"dark states exist only for even n_ions >= 2, got {n_ions}")
    half = n_ions // 2
    coeffs = np.ones(half + 1)
    for i in range(1, half + 1):
        coeffs[i] = -coeffs[i - 1] * (
            collective_coupling(n_ions, 2 * i - 2) / collective_coupling(n_ions, 2 * i - 1)
        )
    return coeffs


def normalized_amplitudes(coeffs: np.ndarray, omega_r, omega_b) -> tuple[np.ndarray, np.ndarray]:
    """(A, amplitudes) of each sample of the 1-D tone arrays ``omega_r`` and
    ``omega_b``, shapes (S,) and (S, N/2+1), with amplitudes = A * C_i *
    Omega_b^i * Omega_r^(N/2-i).

    ``coeffs`` comes from ``closed_form_coefficients``, so a ramp evaluates
    them once and calls this once for all its samples.  A sample's words do
    not depend on the others: the powers are libm's ``pow`` on Python floats
    (numpy's array power rounds otherwise), and each norm is one ddot, as in
    ``np.linalg.norm``.  The tones of a sample whose powers would leave the
    float range are divided by the larger one first; below that guard no
    Python power can overflow.
    """
    omega_r, omega_b = np.asarray(omega_r, dtype=float), np.asarray(omega_b, dtype=float)
    half = len(coeffs) - 1
    big = np.maximum(omega_r, omega_b)
    with np.errstate(divide="ignore"):
        over = (big > 0) & (half * np.abs(np.log2(big)) > 400)  # A rounds to 0 or inf
    scale = np.where(over, big, 1.0)
    powers = np.arange(half + 1)
    wr = (omega_r / scale).astype(object)[:, None]
    wb = (omega_b / scale).astype(object)[:, None]
    raw = coeffs * (wb**powers).astype(float) * (wr ** powers[::-1]).astype(float)
    norm = np.sqrt(raw[:, None, :] @ raw[:, :, None])[:, 0, 0]
    norm_a = 1.0 / norm
    with np.errstate(over="ignore", under="ignore"):
        # numpy's scalar pow on each rescaled sample's tone: inf, not OverflowError
        norm_a[over] *= (np.array(list(big[over]), dtype=object) ** -half).astype(float)
    return norm_a, raw / norm[:, None]


def dark_coefficients(n_ions: int, omega_r: float, omega_b: float) -> DarkState:
    """Closed-form dark state of the chain for given sideband amplitudes."""
    coeffs = closed_form_coefficients(n_ions)
    if not (np.isfinite(omega_r) and np.isfinite(omega_b)):
        raise ValueError("sideband amplitudes must be finite")
    if omega_r < 0 or omega_b < 0:
        raise ValueError("sideband amplitudes must be nonnegative")
    if omega_r == 0 and omega_b == 0:
        raise ValueError("at least one sideband amplitude must be nonzero")
    norm_a, amplitudes = normalized_amplitudes(coeffs, [omega_r], [omega_b])
    return DarkState(norm_a[0], amplitudes[0])


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
    return math.hypot(*np.abs(hamiltonian @ vec))  # no overflow in the squares


def jx_annihilation_check(n_ions: int) -> float:
    """||Jx psi_d(Omega, Omega)|| on the spin factor; contract < 1e-10.

    Also verifies that the equal-amplitude dark state coincides (up to a
    global phase) with Ry(pi/2)|D^{N/2}>, raising if that fidelity is not 1.
    """
    psi = dark_coefficients(n_ions, 1.0, 1.0).chain_vector
    jx = build_collective(n_ions, "jx")
    residual = float(np.linalg.norm(jx @ psi))
    fidelity = abs(np.vdot(half_excited_x(n_ions), psi)) ** 2
    if abs(fidelity - 1.0) > 1e-10:
        raise AssertionError(
            f"dark state at equal amplitudes is not Ry(pi/2)|D^(N/2)>: fidelity {fidelity}"
        )
    return residual
