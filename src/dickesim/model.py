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

Each model is a dense builder and the two functions that the RK4 kernel
reads: its dense Hamiltonian, a sum of constant operators
(``full_hamiltonian``, ``reduced_hamiltonian``); its cached support, the
fixed flat indices where some operator is nonzero, grouped by that one
operator, the dimension of its space, the operators' entries there and how
the kernel reads them (``full_support``, ``reduced_support``); and the few
real coefficients of its Hamiltonian at each time (``full_coefficients``,
``reduced_coefficients``).  The kernel ``_rk4.c`` builds each
Hamiltonian's entries from those coefficients in C, in the words of the
dense builder unless a product underflows to zero, or a nan tone meets an
inf tone, where numpy gives a nan's sign by the entry's position.
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


def _support(ops, formula: tuple) -> tuple:
    """The flat indices of the entries where one of the square matrices
    ``ops`` is nonzero, grouped by that matrix; their dimension; the
    (len(ops), s+1) array of each matrix's entries there and then at (0, 0);
    the group bounds, ``ops[g]`` being the nonzero one at entries
    ``bounds[g]:bounds[g + 1]``; and ``formula``, what the RK4 kernel reads:
    the number of the model's formula in ``_rk4.c``, its coefficients per
    time, and the dtype and count of its operator parts.  In both models one
    matrix is nonzero at each entry, and all zeros of one matrix carry the
    same signs, so (0, 0), off the support in both models, stands for every
    zero of a matrix, on the support and off it, signed zeros included."""
    nonzero = np.array([op.ravel() != 0 for op in ops])
    flat = np.flatnonzero(np.any(nonzero, axis=0))
    owner = np.argmax(nonzero[:, flat], axis=0)  # the first matrix nonzero there
    support = flat[np.argsort(owner, kind="stable")]
    bounds = np.searchsorted(np.sort(owner), np.arange(len(ops) + 1)).astype(np.int64)
    picked = np.append(support, 0)
    parts = np.array([op.ravel()[picked] for op in ops])
    return support, len(ops[0]), parts, bounds, formula


@constant_cache(check_n_ions)
def reduced_support(n_ions: int):
    """(support, N + 1, (K_r, K_b, D) at the support and at (0, 0), bounds,
    formula) of the chain, as ``_support`` gives them for
    ``reduced_coupling_parts``: kernel formula 0, 2 coefficients a time
    (``reduced_coefficients``), 3 real parts."""
    return _support(reduced_coupling_parts(n_ions), (0, 2, np.float64, 3))


def reduced_coefficients(omega_r, omega_b) -> np.ndarray:
    """The chain's coefficients at the rates ``omega_r``, ``omega_b``: a
    float (..., 2) array of (Omega_r, Omega_b), as ``reduced_hamiltonian``
    and the RK4 kernel read them."""
    rates = (np.asarray(omega_r, dtype=float), np.asarray(omega_b, dtype=float))
    return np.stack(np.broadcast_arrays(*rates), axis=-1)


def reduced_hamiltonian(params: SystemParams, omega_r, omega_b) -> np.ndarray:
    """Rotating-frame chain Hamiltonian Omega_r*K_r + Omega_b*K_b + delta*D,
    real symmetric tridiagonal, at sideband rates ``omega_r``, ``omega_b``:
    scalars give one matrix, arrays of k rates the (k, N+1, N+1) stack."""
    kr, kb, d = reduced_coupling_parts(params.n_ions)
    rows = reduced_coefficients(omega_r, omega_b)
    wr, wb = rows[..., 0, None, None], rows[..., 1, None, None]
    return wr * kr + wb * kb + params.delta * d


def _full_operators(n_ions: int, n_max: int) -> tuple:
    """(a J+, its adjoint, a^dag J+, its adjoint), dense, C-contiguous and
    built anew on each call; an n_max below N/2 + 2 is a PhysicsConfigError."""
    if n_max < n_ions / 2 + 2:
        raise PhysicsConfigError(
            f"n_max = {n_max} leaves no Fock headroom; need n_max >= N/2 + 2 = {n_ions / 2 + 2}"
        )
    red, blue, _ = sideband_operators(n_ions, n_max)
    return red, np.ascontiguousarray(red.conj().T), blue, np.ascontiguousarray(blue.conj().T)


@constant_cache(check_n_ions, _check_n_max)
def full_support(n_ions: int, n_max: int):
    """(support, (N + 1)(n_max + 1), (a J+, its adjoint, a^dag J+, its
    adjoint) at the support and at (0, 0), bounds, formula) of the full
    model, as ``_support`` gives them: kernel formula 1, 4 coefficients a time
    (``full_coefficients``), 4 complex parts; an n_max below N/2 + 2 is a
    PhysicsConfigError.  All zeros of one operator carry the same signs:
    +0+0j in a J+ and a^dag J+, +0-0j in their adjoints."""
    return _support(_full_operators(n_ions, n_max), (1, 4, np.complex128, 4))


def full_coefficients(params: SystemParams, t, omega_r, omega_b) -> np.ndarray:
    """The full model's coefficients at the times ``t`` and sideband rates
    ``omega_r``, ``omega_b``: a float (..., 4) array of the real and
    imaginary parts of exp(-i delta t), Omega_r/2 and Omega_b/2, as
    ``full_hamiltonian`` and the RK4 kernel read them."""
    phase = np.exp(-1j * params.delta * np.asarray(t, dtype=float))
    rates = (np.asarray(omega_r, dtype=float) / 2, np.asarray(omega_b, dtype=float) / 2)
    return np.stack(np.broadcast_arrays(phase.real, phase.imag, *rates), axis=-1)


def full_hamiltonian(params: SystemParams, t, omega_r, omega_b) -> np.ndarray:
    """Dense interaction-picture H = cr (p R + p* R^dag) + cb (p* B + p B^dag)
    with (Re p, Im p, cr, cb) the row of ``full_coefficients`` and R, B the
    red and blue sideband operators: scalars give one matrix, arrays of k
    times and rates the (k, d, d) stack."""
    red, red_dag, blue, blue_dag = _full_operators(params.n_ions, params.n_max)
    rows = full_coefficients(params, t, omega_r, omega_b)
    phase = np.ascontiguousarray(rows[..., :2]).view(complex)[..., None]
    cr, cb = rows[..., 2, None, None], rows[..., 3, None, None]
    return (
        cr * (phase * red + np.conj(phase) * red_dag)
        + cb * (np.conj(phase) * blue + phase * blue_dag)
    )


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
