"""Spin moments, squeezing variances, witness, parity scans and fidelities.

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
from scipy.linalg import expm

from .spin_algebra import build_collective, full_space_oracle, symmetric_isometry

#: witness value above which a four-ion state is genuinely four-partite entangled
WITNESS_THRESHOLD_FOUR_ION = 5.23

AXES = ("x", "y", "z")

NORM_TOL = 1e-8


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


@dataclass(frozen=True)
class SpinMoments:
    mean_jx: float
    mean_jy: float
    mean_jz: float
    var_jx: float
    var_jy: float
    var_jz: float

    @property
    def variance_sum(self) -> float:
        return self.var_jx + self.var_jy + self.var_jz


def spin_moments(state: np.ndarray) -> SpinMoments:
    """First and second moments of Jx, Jy, Jz for a symmetric-sector state."""
    state = _check_normalized(state)
    n_ions = _state_dim(state) - 1
    means, variances = [], []
    for axis in AXES:
        j = build_collective(n_ions, "j" + axis)
        mean = expectation(state, j)
        second = expectation(state, j @ j)
        means.append(mean)
        variances.append(max(second - mean**2, 0.0))
    return SpinMoments(*means, *variances)


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

def azimuthal_spin(n_ions: int, phi: float) -> np.ndarray:
    """Equatorial spin component J_phi = cos(phi) Jx + sin(phi) Jy."""
    jx, jy = build_collective(n_ions, "jx"), build_collective(n_ions, "jy")
    return np.cos(phi) * jx + np.sin(phi) * jy


def _eigenbasis_populations(state: np.ndarray, op: np.ndarray) -> np.ndarray:
    # eigh orders the columns by ascending projection eigenvalue, matching m = 0..N
    _, basis = np.linalg.eigh(op)
    if state.ndim == 1:
        return np.abs(basis.conj().T @ state) ** 2
    return np.real(np.diag(basis.conj().T @ state @ basis)).copy()


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


def populations_azimuth(state: np.ndarray, phi: float) -> np.ndarray:
    """Populations of the J_phi eigenvalues, ascending order."""
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


@dataclass(frozen=True)
class ParityFit:
    amplitude: float
    phase_offset: float
    offset: float


def fit_parity_curve(phases: np.ndarray, parities: np.ndarray) -> ParityFit:
    """Least-squares fit of A*cos(2*phi + phi0) + c with the 2*phi frequency
    fixed (two-ion coherence oscillates at twice the analysis phase)."""
    phases = np.asarray(phases, dtype=float)
    design = np.column_stack([np.cos(2 * phases), np.sin(2 * phases), np.ones_like(phases)])
    rank = np.linalg.matrix_rank(design)
    if rank < 3:
        raise ValueError(f"parity fit is underdetermined: {len(phases)} phases give rank {rank} < 3")
    (a, b, c), *_ = np.linalg.lstsq(design, np.asarray(parities, dtype=float), rcond=None)
    return ParityFit(
        amplitude=float(np.hypot(a, b)),
        phase_offset=float(np.arctan2(-b, a)),
        offset=float(c),
    )


@lru_cache(maxsize=None)
def _two_ion_analysis_ops():
    jx, jy = full_space_oracle(2, "jx"), full_space_oracle(2, "jy")
    parity = np.diag([(-1.0) ** (2 - bin(k).count("1")) for k in range(4)]).astype(complex)
    return jx, jy, parity


def parity_scan(state: np.ndarray, phases: np.ndarray | None = None) -> ParityScan:
    """Parity oscillation of a two-ion state under a pi/2 analysis pulse.

    The pulse exp(-i (pi/2) (Jx cos(phi) + Jy sin(phi))) is applied for each
    phase and the product-sigma_z parity evaluated in the full two-qubit
    space; the fit is linear least squares on cos(2 phi), sin(2 phi), 1.
    Accepts symmetric-sector (3-dim) or full two-qubit (4-dim) input.
    """
    state = _check_normalized(state)
    dim = _state_dim(state)
    if dim == 3:
        iso = symmetric_isometry(2)
        state = iso @ state @ iso.conj().T if state.ndim == 2 else iso @ state
    elif dim != 4:
        raise ValueError("parity scan is defined for two ions only")
    if phases is None:
        phases = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    phases = np.asarray(phases, dtype=float)

    jx, jy, parity_op = _two_ion_analysis_ops()
    parities = np.empty_like(phases)
    for k, phi in enumerate(phases):
        pulse = expm(-1j * (np.pi / 2) * (np.cos(phi) * jx + np.sin(phi) * jy))
        parities[k] = expectation(state, pulse.conj().T @ parity_op @ pulse)

    fit = fit_parity_curve(phases, parities)
    pops = np.abs(state) ** 2 if state.ndim == 1 else np.real(np.diag(state))
    p_lower = float(pops[0])                       # |down,down>
    p_upper = float(pops[3])                       # |up,up>
    return ParityScan(
        phases=phases,
        parities=parities,
        amplitude=fit.amplitude,
        phase_offset=fit.phase_offset,
        offset=fit.offset,
        p_lower=p_lower,
        p_upper=p_upper,
        fidelity=parity_fidelity(p_lower, p_upper, fit.amplitude),
    )


# ---------------------------------------------------------------------------
# spin marginals
# ---------------------------------------------------------------------------

def spin_density_from_chain(chain_state: np.ndarray) -> np.ndarray:
    """Spin marginal of a chain state; the paired phonon number erases
    coherence between even and odd Dicke levels."""
    psi = np.asarray(chain_state, dtype=complex)
    rho = np.outer(psi, psi.conj())
    parity = np.arange(len(psi)) % 2
    return rho * (parity[:, None] == parity[None, :])


def spin_density_from_full(psi: np.ndarray, n_ions: int, n_max: int) -> np.ndarray:
    """Spin marginal of a spin-phonon product-space state."""
    psi = np.asarray(psi, dtype=complex)
    mat = psi.reshape(n_ions + 1, n_max + 1)
    return mat @ mat.conj().T
