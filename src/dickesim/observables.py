"""Spin readout, squeezing variances, witness, parity scans and fidelities.

All observables act on symmetric-sector states (Dicke-basis vectors or
density matrices) and know nothing of the phonons: measured quantities are
spin-only fluorescence-style readouts, so a model's states come here as the
spin marginals that ``model.spin_marginals`` traces the phonons out of.

The operators that a readout applies but its state does not change are built
once, read-only, by ``spin_algebra.constant_cache``: the eigenbasis of Jx and
of Jy and its adjoint for each N, the J_phi eigenbasis stack for each (N,
azimuth count), and the parity-analysis stack pulse^dag Pi pulse for each
phase count.  Both grids are built here from their counts, each a whole
number read by ``whole``, which keys a grid's LRU of ``GRID_CACHE_SIZE``
counts.  A cached array is the one that the readout computed on its first
call, so a warm call gives the bits of a cold one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .spin_algebra import (_expm, build_collective, check_n_ions, constant_cache, full_space_oracle,
                           hamming_weights, projections, symmetric_isometry, whole)

#: witness value above which a four-ion state is genuinely four-partite entangled
WITNESS_THRESHOLD_FOUR_ION = 5.23

AXES = ("x", "y", "z")

NORM_TOL = 1e-8

#: samples that the readout stacks at once, which bounds its memory
READOUT_CHUNK = 128

#: azimuth or phase counts whose operator stacks each grid cache keeps
GRID_CACHE_SIZE = 8

#: analysis phases of a parity scan unless the caller gives a count
PARITY_PHASES = 40

_check_n_azimuths = partial(whole, name="n_azimuths", low=0)
_check_n_phases = partial(whole, name="n_phases", low=0)


def check_normalized(state: np.ndarray) -> np.ndarray:
    """``state`` as a complex array: the one test of a single state.  A
    ValueError for any shape but a vector or a square matrix, and then one
    that names the value when its total probability, a vector's |psi|^2 or
    a matrix's trace, is not within ``NORM_TOL`` of 1, a nan included."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        value, name = np.vdot(state, state).real, "|psi|^2"
    elif state.ndim == 2 and state.shape[0] == state.shape[1]:
        value, name = state.diagonal().real.sum(), "density matrix trace"
    else:
        raise ValueError(f"state must be a vector or square matrix, got shape {state.shape}")
    if not abs(value - 1.0) <= NORM_TOL:  # nan fails too
        raise ValueError(f"{name} {value} is not 1")
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
    state = check_normalized(state)
    n_ions = len(state) - 1
    ji = build_collective(n_ions, "j" + i)
    jj = build_collective(n_ions, "j" + j)
    return expectation(state, ji @ ji) + expectation(state, jj @ jj)


def witness_verdict(n_ions: int, value: float) -> bool:
    """True when a four-ion witness value certifies genuine four-partite
    entanglement (exceeds the 5.23 threshold)."""
    return n_ions == 4 and value > WITNESS_THRESHOLD_FOUR_ION


def direct_fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """Overlap |<target|state>|^2, or <target|rho|target> for density input;
    the state and the target must be normalized, as ``check_normalized``
    takes them."""
    state, target = check_normalized(state), check_normalized(target)
    if target.ndim != 1:
        raise ValueError("target must be a pure-state vector")
    if len(state) != len(target):
        raise ValueError(f"dimension mismatch: state {len(state)}, target {len(target)}")
    if state.ndim == 1:
        return float(abs(np.vdot(target, state)) ** 2)
    return float(np.real(np.vdot(target, state @ target)))


# ---------------------------------------------------------------------------
# basis populations and spin moments
# ---------------------------------------------------------------------------

def azimuthal_spin(n_ions: int, phi) -> np.ndarray:
    """Equatorial spin component J_phi = cos(phi) Jx + sin(phi) Jy; a 1-D
    array of azimuths gives the (len(phi), N+1, N+1) stack."""
    jx, jy = build_collective(n_ions, "jx"), build_collective(n_ions, "jy")
    phi = np.asarray(phi, dtype=float)[..., None, None]
    return np.cos(phi) * jx + np.sin(phi) * jy


def _eigenbasis(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(basis, adjoint) of the eigenvectors of ``op`` or of each operator of a stack."""
    # eigh orders the columns by ascending projection eigenvalue, matching m = 0..N
    basis = np.linalg.eigh(op)[1]
    return basis, basis.conj().swapaxes(-1, -2)


@constant_cache(check_n_ions)
def _axis_eigenbasis(n_ions: int, axis: str) -> tuple[np.ndarray, np.ndarray]:
    return _eigenbasis(build_collective(n_ions, "j" + axis))


@constant_cache(check_n_ions, _check_n_azimuths, maxsize=GRID_CACHE_SIZE)
def _azimuth_eigenbasis(n_ions: int, n_azimuths: int):
    return _eigenbasis(azimuthal_spin(n_ions, np.linspace(0.0, np.pi, n_azimuths)))


def _eigenbasis_populations(state: np.ndarray, basis: np.ndarray,
                            adjoint: np.ndarray) -> np.ndarray:
    """Populations of the eigenvectors that are ``basis``'s columns, or one
    row of them for each basis of a stack; a stack runs the same products on
    each basis as a single call does, so every row keeps its bits."""
    if state.ndim == 1:
        return np.abs(adjoint @ state) ** 2
    return np.diagonal(adjoint @ state @ basis, axis1=-2, axis2=-1).real.copy()


def populations_along(state: np.ndarray, axis: str) -> np.ndarray:
    """Projection-eigenvalue populations along x, y or z, ascending order."""
    state = check_normalized(state)
    n_ions = len(state) - 1
    if axis == "z":
        if state.ndim == 1:
            return np.abs(state) ** 2
        return np.real(np.diag(state)).copy()
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return _eigenbasis_populations(state, *_axis_eigenbasis(n_ions, axis))


def populations_azimuth(state: np.ndarray, n_azimuths: int) -> np.ndarray:
    """Populations of the J_phi eigenvalues, ascending order, one row for
    each of ``n_azimuths`` equispaced azimuths over [0, pi], both ends
    included; each row has the bits of an eigh of that azimuth's J_phi
    alone."""
    state = check_normalized(state)
    return _eigenbasis_populations(state, *_azimuth_eigenbasis(len(state) - 1, n_azimuths))


def spin_readout(rhos: np.ndarray) -> tuple[list[float], list[float], list[float], list[float]]:
    """<Jz>, Var(Jx), Var(Jy) and Var(Jz) of each density matrix of a
    (S, N+1, N+1) stack, as Python floats: the one spin-moment path.

    Var(J) = Tr(rho J^2) - Tr(rho J)^2, clipped at 0; <Jz> weights the
    diagonal by m - N/2.  Tr(rho J)^2 is Python's power (an array's rounds
    otherwise), so each matrix gets the bits it gets alone.  A trace not
    within ``NORM_TOL`` of 1, a nan included, is a ValueError.
    """
    rhos = np.asarray(rhos, dtype=complex)
    traces = np.trace(rhos, axis1=1, axis2=2).real
    off = np.flatnonzero(~(np.abs(traces - 1.0) <= NORM_TOL))  # nan fails too
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
    # lstsq's rank has matrix_rank's threshold, eps * max(M, N) * s_max
    (a, b, c), _, rank, _ = np.linalg.lstsq(design, parities, rcond=None)
    if rank < 3:
        raise ValueError(f"parity fit is underdetermined: {len(phases)} phases give rank {rank} < 3")
    amplitude = float(np.hypot(a, b))
    p_lower, p_upper = float(p_lower), float(p_upper)
    return ParityScan(phases=phases, parities=parities, amplitude=amplitude,
                      phase_offset=float(np.arctan2(-b, a)), offset=float(c),
                      p_lower=p_lower, p_upper=p_upper,
                      fidelity=parity_fidelity(p_lower, p_upper, amplitude))


@constant_cache()
def _two_ion_analysis_ops():
    parity = np.diag((-1.0) ** (2 - hamming_weights(2))).astype(complex)
    return full_space_oracle(2, "jx"), full_space_oracle(2, "jy"), parity


def parity_phases(n_phases: int) -> np.ndarray:
    """``n_phases`` equispaced analysis phases over [0, 2*pi): the one phase
    grid of a parity scan."""
    return np.linspace(0.0, 2 * np.pi, _check_n_phases(n_phases), endpoint=False)


@constant_cache(_check_n_phases, maxsize=GRID_CACHE_SIZE)
def _parity_analysis_ops(n_phases: int) -> np.ndarray:
    """Read-only stack of pulse^dag Pi pulse, one for each phase of
    ``parity_phases(n_phases)``."""
    phases = parity_phases(n_phases)
    jx, jy, parity_op = _two_ion_analysis_ops()
    cos, sin = np.cos(phases)[:, None, None], np.sin(phases)[:, None, None]
    pulses = _expm(-1j * (np.pi / 2) * (cos * jx + sin * jy))
    return pulses.conj().transpose(0, 2, 1) @ parity_op @ pulses


def parity_curve(state: np.ndarray, n_phases: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-sigma_z parity of a two-ion state after the analysis pulse
    exp(-i (pi/2) (Jx cos(phi) + Jy sin(phi))) at each phase phi of
    ``parity_phases(n_phases)``, and its z populations from |down,down> to
    |up,up>, both in the full two-qubit space; the input is symmetric-sector
    (3-dim) or full two-qubit (4-dim)."""
    state = check_normalized(state)
    if len(state) == 3:
        iso = symmetric_isometry(2)
        state = iso @ state @ iso.conj().T if state.ndim == 2 else iso @ state
    elif len(state) != 4:
        raise ValueError("parity scan is defined for two ions only")
    # ``expectation``'s arithmetic on each phase's operator: a vector's vdot
    # stays one call a phase, a trace sums the same four diagonal entries
    # stacked or alone
    ops = _parity_analysis_ops(n_phases)
    if state.ndim == 1:
        parities = np.array([np.vdot(state, rotated).real for rotated in ops @ state])
    else:
        parities = np.trace(state @ ops, axis1=1, axis2=2).real
    return parities, populations_along(state, "z")


def parity_scan(state: np.ndarray, n_phases: int = PARITY_PHASES) -> ParityScan:
    """``parity_analysis`` of a two-ion state's ``parity_curve`` at
    ``n_phases`` phases."""
    parities, pops = parity_curve(state, n_phases)
    return parity_analysis(parity_phases(n_phases), parities, pops[0], pops[-1])
