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

Each model is a pair of functions: its cached support, the fixed flat
indices where some operator is nonzero, the dimension of its space and the
operators' entries there (``full_support``, ``reduced_support``), and its
Hamiltonians at given times and rates on that support (``full_values``,
``reduced_values``), which ``expand`` makes dense (``full_hamiltonian``,
``reduced_hamiltonian``).
Only this module knows the product-space layout, the chain pairing and the
interaction picture: ``spin_marginals``, ``chain_frame`` and
``top_fock_populations`` read states out through them for the integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import PhysicsConfigError
from .spin_algebra import build_collective, check_n_ions, constant_cache, whole

_check_n_max = partial(whole, name="n_max", low=0)


@dataclass(frozen=True)
class SystemParams:
    """Ion number, common sideband detuning delta and phonon truncation
    n_max; the drive comes from ``evolution.PulseSchedule`` or is passed to
    the Hamiltonian builders."""

    n_ions: int
    delta: float = 0.0
    n_max: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_ions", check_n_ions(self.n_ions))
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be finite and nonnegative")
        # by default, Fock headroom above the single-phonon ladder
        n_max = self.n_ions // 2 + 4 if self.n_max is None else self.n_max
        object.__setattr__(self, "n_max", _check_n_max(n_max))

    def reduced_model_trusted(self, drive: float) -> bool:
        """Whether the detuning dominates a peak sideband rate ``drive`` =
        max(Omega_r, Omega_b) enough to neglect phonon-number-changing
        (two-photon off-resonant) transitions; an undriven chain neglects
        nothing."""
        return drive == 0 or 2 * self.delta > 10 * drive


def sideband_operators(n_ions: int, n_max: int):
    """(red, blue, number) on the Dicke (x) Fock product space: a J+ (spin
    up, phonon down), a^dag J+ (spin up, phonon up) and the phonon number."""
    n_ions, n_max = check_n_ions(n_ions), _check_n_max(n_max)
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    jp = build_collective(n_ions, "j+")
    number = np.kron(np.eye(n_ions + 1), np.diag(np.arange(n_max + 1.0)))
    return np.kron(jp, a), np.kron(jp, a.conj().T), number


def chain_indices(n_ions: int, n_max: int) -> np.ndarray:
    """Product-space index of each chain state |D^k>|k mod 2>."""
    n_ions, n_max = check_n_ions(n_ions), _check_n_max(n_max)
    k = np.arange(n_ions + 1)
    return k * (n_max + 1) + k % 2


@constant_cache(check_n_ions)
def reduced_coupling_parts(n_ions: int):
    """Constant read-only matrices (K_r, K_b, D) with
    H = Omega_r*K_r + Omega_b*K_b + delta*D: the red and blue sideband
    operators plus their adjoints, and the phonon number, at the chain
    states.  Every coupling is R_k * sqrt(1), so one phonon level above the
    vacuum gives them all."""
    red, blue, number = sideband_operators(n_ions, 1)
    chain = np.ix_(*[chain_indices(n_ions, 1)] * 2)
    kr, kb = ((op + op.conj().T)[chain].real.copy() for op in (red, blue))
    return kr, kb, number[chain]


def _support(ops) -> tuple[np.ndarray, int, tuple[np.ndarray, ...]]:
    """The flat indices of the entries where any of the square matrices
    ``ops`` is nonzero, their dimension, and each matrix's entries there and
    then at (0, 0).  All zeros of one matrix here carry the same signs, so
    (0, 0), off the support in both models, stands for every entry off it,
    signed zeros included."""
    support = np.flatnonzero(np.any([op != 0 for op in ops], axis=0))
    picked = np.append(support, 0)
    return support, len(ops[0]), tuple(op.ravel()[picked] for op in ops)


@constant_cache(check_n_ions)
def reduced_support(n_ions: int):
    """(support, N + 1, (K_r, K_b, D) at the support and at (0, 0)) of the
    chain, as ``_support`` gives them for ``reduced_coupling_parts``."""
    return _support(reduced_coupling_parts(n_ions))


def reduced_values(params: SystemParams, omega_r: np.ndarray, omega_b: np.ndarray) -> np.ndarray:
    """The chain's H = Omega_r*K_r + Omega_b*K_b + delta*D at the k rates
    ``omega_r``, ``omega_b``, taken only at the s entries of
    ``reduced_support`` and then at (0, 0): a complex (k, s+1) array, the
    one place where the chain's sum is written."""
    *_, (kr, kb, d) = reduced_support(params.n_ions)
    wr = np.asarray(omega_r, dtype=float)[..., None]
    wb = np.asarray(omega_b, dtype=float)[..., None]
    return (wr * kr + wb * kb + params.delta * d).astype(complex)


def expand(values: np.ndarray, support: np.ndarray, dimension: int) -> np.ndarray:
    """Dense (..., d, d) matrices from their (..., s+1) ``values``: the s
    entries at the flat indices ``support``, and the last value everywhere
    else.  The RK4 kernel expands the same values in C."""
    h = np.empty(values.shape[:-1] + (dimension * dimension,), dtype=values.dtype)
    h[...] = values[..., -1:]
    h[..., support] = values[..., :-1]
    return h.reshape(values.shape[:-1] + (dimension, dimension))


def reduced_hamiltonian(params: SystemParams, omega_r, omega_b) -> np.ndarray:
    """Rotating-frame chain Hamiltonian, real symmetric tridiagonal, at
    sideband rates ``omega_r``, ``omega_b``: scalars give one matrix, arrays
    of k rates the (k, N+1, N+1) stack."""
    support, dimension, _ = reduced_support(params.n_ions)
    return expand(reduced_values(params, omega_r, omega_b).real, support, dimension)


@constant_cache(check_n_ions, _check_n_max)
def full_support(n_ions: int, n_max: int):
    """(support, (N + 1)(n_max + 1), (a J+, its adjoint, a^dag J+, its
    adjoint) at the support and at (0, 0)) of the full model, as
    ``_support`` gives them; an n_max below N/2 + 2 is a
    PhysicsConfigError.  All zeros of one operator carry the same signs:
    +0+0j in a J+ and a^dag J+, +0-0j in their adjoints."""
    if n_max < n_ions / 2 + 2:
        raise PhysicsConfigError(
            f"n_max = {n_max} leaves no Fock headroom; need n_max >= N/2 + 2 = {n_ions / 2 + 2}"
        )
    red, blue, _ = sideband_operators(n_ions, n_max)
    return _support((red, red.conj().T, blue, blue.conj().T))


def full_values(params: SystemParams, t: np.ndarray, omega_r: np.ndarray,
                omega_b: np.ndarray) -> np.ndarray:
    """Interaction-picture H at the k times ``t`` and sideband rates
    ``omega_r``, ``omega_b``, taken only at the s entries of ``full_support``
    and then at (0, 0): a complex (k, s+1) array whose ``expand`` is the
    dense sum of the four phase-scaled sideband operators, bit for bit."""
    *_, (red, red_dag, blue, blue_dag) = full_support(params.n_ions, params.n_max)
    phase = np.exp(-1j * params.delta * np.asarray(t, dtype=float))[..., None]
    cr = np.asarray(omega_r, dtype=float)[..., None] / 2
    cb = np.asarray(omega_b, dtype=float)[..., None] / 2
    return (
        cr * (phase * red + np.conj(phase) * red_dag)
        + cb * (np.conj(phase) * blue + phase * blue_dag)
    )


def full_hamiltonian(params: SystemParams, t, omega_r, omega_b) -> np.ndarray:
    """Dense interaction-picture H, the ``expand`` of ``full_values``: scalars
    give one matrix, arrays of k times and rates the (k, d, d) stack."""
    support, dimension, _ = full_support(params.n_ions, params.n_max)
    return expand(full_values(params, t, omega_r, omega_b), support, dimension)


def spin_marginals(states: np.ndarray, n_ions: int, n_max: int | None = None) -> np.ndarray:
    """(S, N+1, N+1) spin marginals of a (S, d) stack of states: chain states
    when ``n_max`` is None, else spin-phonon product-space states.

    On the chain the paired phonon number erases coherence between even and
    odd Dicke levels; in the product space the phonon factor is traced out.
    """
    states = np.asarray(states, dtype=complex)
    if n_max is not None:
        mats = states.reshape(len(states), n_ions + 1, n_max + 1)
        return mats @ mats.conj().transpose(0, 2, 1)
    parity = np.arange(n_ions + 1) % 2
    rhos = states[:, :, None] * states.conj()[:, None, :]
    return rhos * (parity[:, None] == parity[None, :])


def chain_frame(params: SystemParams, states: np.ndarray, times: np.ndarray,
                chain_vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (k, d) stack of product-space ``states`` at their ``times`` in the
    chain's frame, where Fock level n picks up exp(-i delta t n), and the k
    ``chain_vectors`` lifted to their paired phonon numbers.  numpy elides
    ``states * np.exp(...)`` into its temporary from 256 KiB on and changes
    words, so the rotation is bound to a name first."""
    number = np.arange(states.shape[1]) % (params.n_max + 1)  # phonons of each product state
    rotation = np.exp((-1j * params.delta * times)[:, None] * number)
    lifted = np.zeros_like(states)
    lifted[:, chain_indices(params.n_ions, params.n_max)] = chain_vectors
    return states * rotation, lifted


def top_fock_populations(params: SystemParams, states: np.ndarray) -> np.ndarray:
    """Population of the top Fock level n_max in each product-space state of
    a (k, d) stack: the phonon-truncation leak."""
    return np.sum(np.abs(states[:, params.n_max::(params.n_max + 1)]) ** 2, axis=1)
