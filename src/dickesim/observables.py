"""Spin readout, squeezing variances, witness, parity scans and fidelities.

All observables act on symmetric-sector states (Dicke-basis vectors or
density matrices).  States of the reduced chain or the spin-phonon product
space are first reduced to the spin marginal with the helpers at the bottom;
measured quantities are spin-only fluorescence-style readouts, so the phonon
factor is always traced out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_algebra import (_expm, build_collective, full_space_oracle, hamming_weights,
                           projections, symmetric_isometry)

#: witness value above which a four-ion state is genuinely four-partite entangled
WITNESS_THRESHOLD_FOUR_ION = 5.23

AXES = ("x", "y", "z")

NORM_TOL = 1e-8

#: samples that the readout stacks at once, which bounds its memory
READOUT_CHUNK = 128


def _state_dim(state: np.ndarray) -> int:
    state = np.asarray(state)
    if state.ndim == 1:
        return state.shape[0]
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        return state.shape[0]
    raise ValueError(f"state must be a vector or square matrix, got shape {state.shape}")


def _check_normalized(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {nrm} is not 1")
    else:
        tr = np.trace(state).real
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
    return state


def expectation(state: np.ndarray, op: np.ndarray) -> float:
    """Real expectation value of a Hermitian operator on a vector or rho."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return float(np.real(np.vdot(state, op @ state)))
    return float(np.real(np.trace(state @ op)))


def witness(state: np.ndarray, axes: tuple[str, str] = ("y", "z")) -> float:
    """Two-axis squared-spin witness <J_i^2 + J_j^2> for orthogonal axes i, j."""
    i, j = axes
    if i not in AXES or j not in AXES:
        raise ValueError(f"axes must come from {AXES}, got {axes}")
    if i == j:
        raise ValueError("witness axes must be two different (orthogonal) directions")
    state = _check_normalized(state)
    n_ions = _state_dim(state) - 1
    ji = build_collective(n_ions, "j" + i)
    jj = build_collective(n_ions, "j" + j)
    return expectation(state, ji @ ji) + expectation(state, jj @ jj)


def witness_verdict(n_ions: int, value: float) -> bool:
    """True when a four-ion witness value certifies genuine four-partite
    entanglement (exceeds the 5.23 threshold)."""
    return n_ions == 4 and value > WITNESS_THRESHOLD_FOUR_ION


def direct_fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """Overlap |<target|state>|^2, or <target|rho|target> for density input."""
    state = np.asarray(state, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if target.ndim != 1:
        raise ValueError("target must be a pure-state vector")
    if _state_dim(state) != target.shape[0]:
        raise ValueError(
            f"dimension mismatch: state {_state_dim(state)}, target {target.shape[0]}"
        )
    if state.ndim == 1:
        return float(abs(np.vdot(target, state)) ** 2)
    return float(np.real(np.vdot(target, state @ target)))


# ---------------------------------------------------------------------------
# basis populations
# ---------------------------------------------------------------------------

def azimuthal_spin(n_ions: int, phi) -> np.ndarray:
    """Equatorial spin component J_phi = cos(phi) Jx + sin(phi) Jy; a 1-D
    array of azimuths gives the (len(phi), N+1, N+1) stack."""
    jx, jy = build_collective(n_ions, "jx"), build_collective(n_ions, "jy")
    phi = np.asarray(phi, dtype=float)[..., None, None]
    return np.cos(phi) * jx + np.sin(phi) * jy


def _eigenbasis_populations(state: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Populations of ``op``'s eigenvectors, or one row of them for each
    operator of a stack; a stack runs the same eigh and products on each
    operator as a single call does, so every row keeps its bits."""
    # eigh orders the columns by ascending projection eigenvalue, matching m = 0..N
    _, basis = np.linalg.eigh(op)
    adjoint = basis.conj().swapaxes(-1, -2)
    if state.ndim == 1:
        return np.abs(adjoint @ state) ** 2
    return np.diagonal(adjoint @ state @ basis, axis1=-2, axis2=-1).real.copy()


def populations_along(state: np.ndarray, axis: str) -> np.ndarray:
    """Projection-eigenvalue populations along x, y or z, ascending order."""
    state = _check_normalized(state)
    n_ions = _state_dim(state) - 1
    if axis == "z":
        if state.ndim == 1:
            return np.abs(state) ** 2
        return np.real(np.diag(state)).copy()
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _eigenbasis_populations(state, build_collective(n_ions, "j" + axis))


def populations_azimuth(state: np.ndarray, phi) -> np.ndarray:
    """Populations of the J_phi eigenvalues, ascending order; a 1-D array of
    azimuths gives one row per azimuth, equal bit for bit to the calls at
    each azimuth alone."""
    state = _check_normalized(state)
    return _eigenbasis_populations(state, azimuthal_spin(_state_dim(state) - 1, phi))


# ---------------------------------------------------------------------------
# two-ion parity oscillation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityScan:
    """Parity versus analysis phase with the fitted oscillation at 2*phi.

    fidelity combines the z-basis extreme populations with the fitted
    amplitude: (p_lower + p_upper + amplitude) / 2.
    """

    phases: np.ndarray
    parities: np.ndarray
    amplitude: float
    phase_offset: float
    offset: float
    p_lower: float
    p_upper: float
    fidelity: float


def parity_fidelity(p_lower: float, p_upper: float, amplitude: float) -> float:
    """Two-ion fidelity estimate (p_{-1} + p_{+1} + A_p) / 2."""
    return (p_lower + p_upper + amplitude) / 2


def parity_analysis(phases: np.ndarray, parities: np.ndarray,
                    p_lower: float, p_upper: float) -> ParityScan:
    """Fit an exact or sampled parity curve and estimate the fidelity.

    The fit is linear least squares of A*cos(2*phi + phi0) + c, with the
    2*phi frequency fixed (two-ion coherence oscillates at twice the
    analysis phase); the fidelity combines A with the z-basis extreme
    populations ``p_lower`` and ``p_upper``.
    """
    phases = np.asarray(phases, dtype=float)
    parities = np.asarray(parities, dtype=float)
    design = np.column_stack([np.cos(2 * phases), np.sin(2 * phases), np.ones_like(phases)])
    rank = np.linalg.matrix_rank(design)
    if rank < 3:
        raise ValueError(f"parity fit is underdetermined: {len(phases)} phases give rank {rank} < 3")
    (a, b, c), *_ = np.linalg.lstsq(design, parities, rcond=None)
    amplitude = float(np.hypot(a, b))
    p_lower, p_upper = float(p_lower), float(p_upper)
    return ParityScan(phases=phases, parities=parities, amplitude=amplitude,
                      phase_offset=float(np.arctan2(-b, a)), offset=float(c),
                      p_lower=p_lower, p_upper=p_upper,
                      fidelity=parity_fidelity(p_lower, p_upper, amplitude))


@lru_cache(maxsize=None)
def _two_ion_analysis_ops():
    jx, jy = full_space_oracle(2, "jx"), full_space_oracle(2, "jy")
    parity = np.diag((-1.0) ** (2 - hamming_weights(2))).astype(complex)
    return jx, jy, parity


def parity_curve(state: np.ndarray, phases) -> tuple[np.ndarray, np.ndarray]:
    """Product-sigma_z parity of a two-ion state after the analysis pulse
    exp(-i (pi/2) (Jx cos(phi) + Jy sin(phi))) at each phase phi, and its z
    populations from |down,down> to |up,up>, both in the full two-qubit space;
    the input is symmetric-sector (3-dim) or full two-qubit (4-dim)."""
    state = _check_normalized(state)
    dim = _state_dim(state)
    if dim == 3:
        iso = symmetric_isometry(2)
        state = iso @ state @ iso.conj().T if state.ndim == 2 else iso @ state
    elif dim != 4:
        raise ValueError("parity scan is defined for two ions only")
    phases = np.asarray(phases, dtype=float)

    jx, jy, parity_op = _two_ion_analysis_ops()
    cos, sin = np.cos(phases)[:, None, None], np.sin(phases)[:, None, None]
    pulses = _expm(-1j * (np.pi / 2) * (cos * jx + sin * jy))
    # one stack of pulse^dag Pi pulse, then ``expectation``'s arithmetic on
    # each phase: a vector's vdot stays one call a phase, a trace sums the
    # same four diagonal entries stacked or alone
    ops = pulses.conj().transpose(0, 2, 1) @ parity_op @ pulses
    if state.ndim == 1:
        parities = np.array([np.vdot(state, rotated).real for rotated in ops @ state])
    else:
        parities = np.trace(state @ ops, axis1=1, axis2=2).real
    return parities, populations_along(state, "z")


def parity_scan(state: np.ndarray, phases: np.ndarray | None = None) -> ParityScan:
    """``parity_analysis`` of a two-ion state's ``parity_curve``, at 40
    equispaced phases unless ``phases`` is given."""
    if phases is None:
        phases = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    parities, pops = parity_curve(state, phases)
    return parity_analysis(phases, parities, pops[0], pops[-1])


# ---------------------------------------------------------------------------
# spin marginals
# ---------------------------------------------------------------------------

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


def spin_readout(rhos: np.ndarray) -> tuple[list[float], list[float], list[float], list[float]]:
    """<Jz>, Var(Jx), Var(Jy) and Var(Jz) of each density matrix of a
    (S, N+1, N+1) stack, as Python floats: the one spin-moment path.

    Var(J) = Tr(rho J^2) - Tr(rho J)^2, clipped at 0; <Jz> weights the
    diagonal by m - N/2.  Tr(rho J)^2 is Python's power (an array's rounds
    otherwise), so each matrix gets the bits it gets alone.  A trace further
    than ``NORM_TOL`` from 1 is a ValueError.
    """
    rhos = np.asarray(rhos, dtype=complex)
    traces = np.trace(rhos, axis1=1, axis2=2).real
    off = np.flatnonzero(np.abs(traces - 1.0) > NORM_TOL)
    if off.size:
        raise ValueError(f"density matrix trace {traces[off[0]]} is not 1")
    n_ions = rhos.shape[-1] - 1
    populations = np.diagonal(rhos, axis1=1, axis2=2).real
    columns = [np.sum(projections(n_ions) * populations, axis=1).tolist()]
    for axis in AXES:
        j = build_collective(n_ions, "j" + axis)
        means, seconds = _product_traces(rhos, j), _product_traces(rhos, j @ j)
        variances = seconds - (means.astype(object) ** 2).astype(float)
        # max(v, 0.0) as Python takes it: nan and -0.0 pass through
        columns.append(np.where(variances < 0.0, 0.0, variances).tolist())
    return tuple(columns)


def _product_traces(rhos: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Re Tr(rho op) of each matrix of a (S, d, d) stack, ``READOUT_CHUNK``
    matrices at a time as one (k*d, d) @ (d, d) product, whose rows are those
    of the products one matrix at a time."""
    out = np.empty(len(rhos))
    for start in range(0, len(rhos), READOUT_CHUNK):
        chunk = rhos[start:start + READOUT_CHUNK]
        product = chunk.reshape(-1, op.shape[0]) @ op
        out[start:start + READOUT_CHUNK] = np.trace(product.reshape(chunk.shape),
                                                    axis1=1, axis2=2).real
    return out
