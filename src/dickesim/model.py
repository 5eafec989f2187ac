"""Sideband interaction Hamiltonians: full spin-phonon model and reduced chain.

The full model is the interaction-picture two-tone sideband Hamiltonian

    H(t) = (Omega_r/2) (a J+ e^{-i delta t} + a^dag J- e^{+i delta t})
         + (Omega_b/2) (a^dag J+ e^{+i delta t} + a J- e^{-i delta t})

on the (N+1)(n_max+1)-dimensional Dicke (x) Fock product space, with the
oscillating phases kept explicit (no second rotating-frame transform).

The reduced model keeps the resonant ladder only: the alternating chain
|D^0>|0>, |D^1>|1>, |D^2>|0>, ..., |D^N>|0 or 1>, on which the rotating-frame
Hamiltonian is real symmetric tridiagonal with detuning delta on the
odd (one-phonon) sites and couplings R_k * Omega_{b,r} alternating
blue/red along the chain.  Omega_{r,b} are sideband Rabi rates (eta times
the carrier rates); their scale lives only in ``evolution.PulseSchedule``.

Convention note: the reduced chain couplings are implemented without the
1/2 prefactors of the interaction Hamiltonian; ``coupling_scale`` rescales
them globally.  ``coupling_scale=0.5`` makes the chain exactly the resonant
sub-block of the full model, which is the calibrated value used by the
full-vs-reduced consistency checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicsConfigError
from .spin_algebra import build_collective, collective_coupling

#: coupling_scale under which the chain matches the full model's resonant block
CALIBRATED_COUPLING_SCALE = 0.5


def default_n_max(n_ions: int) -> int:
    """Fock truncation with headroom above the single-phonon ladder."""
    return n_ions // 2 + 4


@dataclass(frozen=True)
class SystemParams:
    """Ion number, common sideband detuning delta and phonon truncation
    n_max; the drive comes from ``evolution.PulseSchedule`` or is passed to
    the Hamiltonian builders."""

    n_ions: int
    delta: float = 0.0
    n_max: int | None = None

    def __post_init__(self):
        if int(self.n_ions) != self.n_ions or self.n_ions < 1:
            raise ValueError(f"n_ions must be a positive integer, got {self.n_ions}")
        if self.n_max is None:
            object.__setattr__(self, "n_max", default_n_max(self.n_ions))
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be finite and nonnegative")
        if int(self.n_max) != self.n_max or self.n_max < 0:
            raise ValueError(f"n_max must be a nonnegative integer, got {self.n_max}")

    def reduced_model_trusted(self, drive: float) -> bool:
        """Whether the detuning dominates a peak sideband rate ``drive`` =
        max(Omega_r, Omega_b) enough to neglect phonon-number-changing
        (two-photon off-resonant) transitions; an undriven chain neglects
        nothing."""
        return drive == 0 or 2 * self.delta > 10 * drive


def chain_phonon_numbers(n_ions: int) -> np.ndarray:
    """Phonon occupation paired with each Dicke level along the chain."""
    return np.arange(n_ions + 1) % 2


def reduced_coupling_parts(n_ions: int, coupling_scale: float = 1.0):
    """Constant matrices (K_r, K_b, D) with H = Omega_r*K_r + Omega_b*K_b + delta*D.

    Splitting the tridiagonal this way lets time-dependent drives rebuild the
    Hamiltonian with two scalar multiplies per step.
    """
    n = n_ions
    kr = np.zeros((n + 1, n + 1))
    kb = np.zeros((n + 1, n + 1))
    for k in range(n):
        target = kb if k % 2 == 0 else kr
        target[k, k + 1] = target[k + 1, k] = coupling_scale * collective_coupling(n, k)
    d = np.diag((np.arange(n + 1) % 2).astype(float))
    return kr, kb, d


def reduced_hamiltonian(params: SystemParams, omega_r: float, omega_b: float,
                        coupling_scale: float = 1.0) -> np.ndarray:
    """Rotating-frame chain Hamiltonian for fixed sideband rates, as a real
    symmetric tridiagonal matrix on the alternating chain."""
    kr, kb, d = reduced_coupling_parts(params.n_ions, coupling_scale)
    return omega_r * kr + omega_b * kb + params.delta * d


class FullHamiltonian:
    """Interaction-picture spin-phonon Hamiltonian with explicit phases.

    H(t) is the dense sum of the four sideband operators scaled by amplitude
    and phase, evaluated only on the entries where some operator is nonzero
    plus one entry where all are zero: every other entry gets that same
    value, signed zeros included, so the result equals the dense sum bit for
    bit at a fraction of its cost.
    """

    def __init__(self, params: SystemParams):
        n, n_max = params.n_ions, params.n_max
        if n_max < n / 2 + 2:
            raise PhysicsConfigError(
                f"n_max = {n_max} leaves no Fock headroom; need n_max >= N/2 + 2 = {n / 2 + 2}"
            )
        self.params = params
        a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
        jp = build_collective(n, "j+")
        # red: spin up, phonon down; blue: spin up, phonon up
        red = np.kron(jp, a)
        blue = np.kron(jp, a.conj().T)
        ops = (red, red.conj().T, blue, blue.conj().T)
        self._support = np.nonzero(np.any([op != 0 for op in ops], axis=0))
        # all zeros of one operator carry the same signs (+0+0j in red and
        # blue, +0-0j in their conjugates), so the diagonal entry (0, 0),
        # where all four are zero, stands for every entry off the support
        picked = tuple(np.append(index, 0) for index in self._support)
        self._red, self._red_dag, self._blue, self._blue_dag = (op[picked] for op in ops)
        self.dimension = (n + 1) * (n_max + 1)

    def at(self, t: float | np.ndarray, omega_r: float | np.ndarray,
           omega_b: float | np.ndarray) -> np.ndarray:
        """Dense Hermitian H(t) at sideband rates ``omega_r``, ``omega_b``.

        A scalar ``t`` gives one (d, d) matrix; an array of k times, with
        amplitude arrays of the same length, gives the (k, d, d) stack.
        """
        t = np.asarray(t, dtype=float)
        phase = np.exp(-1j * self.params.delta * t)[..., None]
        cr = np.asarray(omega_r, dtype=float)[..., None] / 2
        cb = np.asarray(omega_b, dtype=float)[..., None] / 2
        values = (
            cr * (phase * self._red + np.conj(phase) * self._red_dag)
            + cb * (np.conj(phase) * self._blue + phase * self._blue_dag)
        )
        h = np.empty(t.shape + (self.dimension, self.dimension), dtype=complex)
        h[...] = values[..., -1, None, None]
        h[(...,) + self._support] = values[..., :-1]
        return h


def embed_chain_state(chain_vec: np.ndarray, n_ions: int, n_max: int) -> np.ndarray:
    """Lift a chain vector onto the product space at its paired phonon numbers."""
    chain_vec = np.asarray(chain_vec)
    if chain_vec.shape != (n_ions + 1,):
        raise ValueError(f"chain vector must have length {n_ions + 1}, got {chain_vec.shape}")
    full = np.zeros((n_ions + 1) * (n_max + 1), dtype=complex)
    phonons = chain_phonon_numbers(n_ions)
    for k in range(n_ions + 1):
        full[k * (n_max + 1) + phonons[k]] = chain_vec[k]
    return full


def interaction_to_chain_frame(psi: np.ndarray, t: float, params: SystemParams) -> np.ndarray:
    """Map an interaction-picture product state into the chain's rotating frame.

    The chain Hamiltonian lives in the frame where Fock level n carries
    energy n*delta, i.e. states pick up exp(-i * delta * t * n).
    """
    n_levels = params.n_max + 1
    if psi.shape != ((params.n_ions + 1) * n_levels,):
        raise ValueError("state dimension does not match params")
    nvec = np.tile(np.arange(n_levels), params.n_ions + 1)
    return psi * np.exp(-1j * params.delta * t * nvec)
