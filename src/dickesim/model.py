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

Both models are built from the same sideband operators: the chain's
K_r, K_b and D are the rows and columns, at the chain states, of a J+ and
a^dag J+ plus their adjoints and of the phonon number.  The chain carries
them without the interaction picture's 1/2, so the chain driven at half
the sideband rates is exactly the full model's resonant block in the
chain's rotating frame (which meets the interaction picture at t = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PhysicsConfigError
from .spin_algebra import _frozen, build_collective


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


def sideband_operators(n_ions: int, n_max: int):
    """(red, blue, number) on the Dicke (x) Fock product space: a J+ (spin
    up, phonon down), a^dag J+ (spin up, phonon up) and the phonon number."""
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    jp = build_collective(n_ions, "j+")
    number = np.kron(np.eye(n_ions + 1), np.diag(np.arange(n_max + 1.0)))
    return np.kron(jp, a), np.kron(jp, a.conj().T), number


def chain_indices(n_ions: int, n_max: int) -> np.ndarray:
    """Product-space index of each chain state |D^k>|k mod 2>."""
    k = np.arange(n_ions + 1)
    return k * (n_max + 1) + k % 2


@lru_cache(maxsize=None)
def reduced_coupling_parts(n_ions: int):
    """Constant read-only matrices (K_r, K_b, D) with
    H = Omega_r*K_r + Omega_b*K_b + delta*D: the red and blue sideband
    operators plus their adjoints, and the phonon number, at the chain
    states.  Every coupling is R_k * sqrt(1), so one phonon level above the
    vacuum gives them all."""
    red, blue, number = sideband_operators(n_ions, 1)
    chain = np.ix_(*[chain_indices(n_ions, 1)] * 2)
    kr, kb = ((op + op.conj().T)[chain].real.copy() for op in (red, blue))
    return _frozen(kr), _frozen(kb), _frozen(number[chain])


def reduced_hamiltonian(params: SystemParams, omega_r, omega_b) -> np.ndarray:
    """Rotating-frame chain Hamiltonian, real symmetric tridiagonal, at
    sideband rates ``omega_r``, ``omega_b``: scalars give one matrix, arrays
    of k rates the (k, N+1, N+1) stack."""
    kr, kb, d = reduced_coupling_parts(params.n_ions)
    wr = np.asarray(omega_r, dtype=float)[..., None, None]
    wb = np.asarray(omega_b, dtype=float)[..., None, None]
    return wr * kr + wb * kb + params.delta * d


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
        red, blue, _ = sideband_operators(n, n_max)
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
    full[chain_indices(n_ions, n_max)] = chain_vec
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
