"""Fidelity bounds for half-excited Dicke states without tomography.

From two global measurements, a two-axis witness W = <J_i^2 + J_j^2> and the
populations P of the spin projections along the remaining axis, the overlap
with the half-excited Dicke state along that axis is sandwiched:

    upper bound:  F <= p_0
    lower bound:  F >= W/(2 jM) - (jM-1)/2 * p_0
                       - sum_{jz != 0} ((jM+1)/2 - jz^2/(2 jM)) * p_jz

with jM = N/2.  The bounds hold for any density matrix on the full 2^N
space, including all lower angular-momentum multiplets, because every
projection population sums the degenerate sectors and the witness is
diagonal in the total-angular-momentum basis.

Exact certification of a 2^N state rotates each qubit into the eigenbasis
of sigma_a (J_a = sum_q sigma_a^(q)/2) and sums the probabilities by Hamming
weight into P_a(m); the witness is then exactly sum_m m^2 (P_b(m) + P_c(m)).

Experimental populations may be fed in raw (unnormalized); nothing here
renormalizes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_algebra import _frozen, dicke_state_full, full_space_oracle, hamming_weights

#: a fidelity lower bound above this excludes the GHZ state as the source
GHZ_DICKE_MAX_OVERLAP = 0.75

AXIS_COMPLEMENTS = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}

CERTIFY_MAX_IONS = 8


@dataclass(frozen=True)
class CertificationRecord:
    """Measured (or simulated) witness + populations and the derived bounds.

    ``axis`` names the direction of the target half-excited Dicke state; the
    witness axes are the two orthogonal ones.  Sigma fields are populated by
    the shot-sampled pipeline and stay None for exact inputs.
    """

    j_max: int
    axis: str
    witness_value: float
    populations: np.ndarray
    f_lower: float
    f_upper: float
    sigma_witness: float | None = None
    sigma_populations: np.ndarray | None = None
    sigma_lower: float | None = None
    sigma_upper: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "j_max", _check_j_max(self.j_max))
        pops = np.array(self.populations, dtype=float)
        if pops.shape != (2 * self.j_max + 1,):
            raise ValueError(
                f"populations must have length {2 * self.j_max + 1}, got {pops.shape}"
            )
        object.__setattr__(self, "populations", _frozen(pops))
        if self.sigma_populations is not None:
            sig = np.array(self.sigma_populations, dtype=float)
            if sig.shape != pops.shape:
                raise ValueError("sigma_populations shape does not match populations")
            object.__setattr__(self, "sigma_populations", _frozen(sig))


def ghz_excluded(f_lower: float) -> bool:
    """True when the lower bound exceeds the 3/4 GHZ-Dicke overlap ceiling."""
    return f_lower > GHZ_DICKE_MAX_OVERLAP


def _check_witness(witness_value: float) -> None:
    if not np.isfinite(witness_value):
        raise ValueError(f"witness value must be finite, got {witness_value}")


def _check_j_max(j_max) -> int:
    """``j_max`` as an int; ValueError unless it is a positive whole number."""
    if not (1 <= j_max < np.inf and int(j_max) == j_max):  # nan fails too
        raise ValueError(f"j_max must be a positive integer (N/2 for even N), got {j_max}")
    return int(j_max)


def _check_populations(populations) -> np.ndarray:
    pops = np.asarray(populations, dtype=float)
    if pops.ndim != 1 or len(pops) < 3 or len(pops) % 2 == 0:
        raise ValueError("populations must be an odd-length vector p_{-jM}..p_{+jM}")
    if not np.all((pops >= -1e-12) & (pops < np.inf)):
        raise ValueError("populations must be nonnegative and finite")
    return pops


def fidelity_upper(populations) -> float:
    """Upper bound: the central population p_0 alone."""
    pops = _check_populations(populations)
    return float(pops[len(pops) // 2])


def fidelity_lower(witness_value: float, populations, j_max: int) -> float:
    """Witness-based lower bound on the half-excited Dicke fidelity."""
    pops = _check_populations(populations)
    _check_witness(witness_value)
    j_max = _check_j_max(j_max)
    if len(pops) != 2 * j_max + 1:
        raise ValueError(f"populations must have length {2 * j_max + 1}, got {len(pops)}")
    jz = np.arange(-j_max, j_max + 1)
    bound = witness_value / (2 * j_max) - (j_max - 1) / 2 * pops[j_max]
    off_center = jz != 0
    bound -= np.sum(((j_max + 1) / 2 - jz[off_center] ** 2 / (2 * j_max)) * pops[off_center])
    return float(bound)


def fidelity_sandwich_4ion(witness_value: float, populations) -> tuple[float, float]:
    """Four-ion closed form: (W/4 - (p_-2 + p_2 + p_0)/2 - 5(p_-1 + p_1)/4, p_0).

    Identical to the general lower/upper bounds at j_max = 2.
    """
    pops = _check_populations(populations)
    _check_witness(witness_value)
    if len(pops) != 5:
        raise ValueError(f"four-ion form needs exactly 5 populations, got {len(pops)}")
    lower = witness_value / 4 - (
        (pops[0] + pops[4] + pops[2]) / 2 + 5 * (pops[1] + pops[3]) / 4
    )
    return float(lower), float(pops[2])


def propagate_uncertainty(j_max: int, sigma_witness: float,
                          sigma_populations) -> tuple[float, float]:
    """First-order (here: exact, the bounds are linear) error propagation.

    Inputs are treated as independent; returns (sigma_lower, sigma_upper).
    """
    j_max = _check_j_max(j_max)
    sig = np.asarray(sigma_populations, dtype=float)
    every = np.append(sig, sigma_witness)
    if not np.all((every >= 0) & (every < np.inf)):  # nan fails both
        raise ValueError("standard errors must be nonnegative and finite")
    if len(sig) != 2 * j_max + 1:
        raise ValueError(f"sigma_populations must have length {2 * j_max + 1}")
    jz = np.arange(-j_max, j_max + 1)
    coeffs = (j_max + 1) / 2 - jz**2 / (2 * j_max)
    coeffs[j_max] = (j_max - 1) / 2
    var_lower = (sigma_witness / (2 * j_max)) ** 2 + np.sum((coeffs * sig) ** 2)
    return float(np.sqrt(var_lower)), float(sig[j_max])


# ---------------------------------------------------------------------------
# exact certification from a full-space state
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _qubit_rotations(axis: str) -> tuple[np.ndarray, np.ndarray]:
    """(u, m) for one qubit: u's rows are sigma_axis's eigenvectors (down, up)
    conjugated, and m[k, 2i + j] = u[k, i] conj(u[k, j]) maps a density
    matrix's (row, column) index pair to the population of eigenvector k."""
    u = _frozen(np.linalg.eigh(full_space_oracle(1, "j" + axis))[1].conj().T)
    return u, _frozen((u[:, :, None] * u.conj()[:, None, :]).reshape(2, 4))


def _on_each_qubit(x: np.ndarray, op: np.ndarray, n_ions: int) -> np.ndarray:
    """Apply ``op`` to each qubit's index of ``x``: every pass acts on the
    leading qubit and moves it to the back, so N passes restore the order.
    A pass writes its product already transposed, contiguous, so the next
    pass's reshape is a view and copies nothing."""
    for _ in range(n_ions):
        x = x.reshape(op.shape[1], -1).T @ op.T
    return x.reshape(-1)


def _projection_populations(state: np.ndarray, n_ions: int, axes) -> list[np.ndarray]:
    """Populations of J_a = m - N/2, m = 0..N, for each axis a of ``axes``:
    rotate each qubit into sigma_a's eigenbasis, then sum the probabilities
    by Hamming weight.  A density matrix is interleaved once for all axes."""
    if state.ndim == 2:  # each qubit's row and column bit become one index of size 4
        pairs = np.ascontiguousarray(state.reshape((2,) * (2 * n_ions)).transpose(
            [a for q in range(n_ions) for a in (q, n_ions + q)]))
    populations = []
    for axis in axes:
        if axis == "z":
            probs = np.abs(state) ** 2 if state.ndim == 1 else np.diagonal(state).real
        elif state.ndim == 1:
            probs = np.abs(_on_each_qubit(state, _qubit_rotations(axis)[0], n_ions)) ** 2
        else:
            probs = _on_each_qubit(pairs, _qubit_rotations(axis)[1], n_ions).real
        populations.append(np.bincount(hamming_weights(n_ions), weights=probs,
                                       minlength=n_ions + 1))
    return populations


@lru_cache(maxsize=None)
def half_excited_full(n_ions: int, axis: str = "x") -> np.ndarray:
    """Half-excited Dicke state along an axis, in the full 2^N space."""
    if n_ions % 2 != 0:
        raise ValueError("half-excited states need an even number of ions")
    if axis not in AXIS_COMPLEMENTS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    target = dicke_state_full(n_ions, n_ions // 2)
    if axis != "z":
        # exp(-i (pi/2) J_y) for x, exp(+i (pi/2) J_x) for y, one qubit at a time
        sigma = 2 * full_space_oracle(1, "jy") if axis == "x" else -2 * full_space_oracle(1, "jx")
        rotation = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * sigma
        target = _on_each_qubit(target, rotation, n_ions)
    return _frozen(target)


def certify_from_state(state: np.ndarray, axis: str = "x") -> CertificationRecord:
    """Exact witness and populations of a full-space state, plus the bounds.

    ``state`` is a vector or a density matrix on the 2^N space, N even and
    at most 8.  The populations come from ``_projection_populations`` and
    the witness from those along the two complementary axes.
    """
    if axis not in AXIS_COMPLEMENTS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    if state.ndim > 2 or state.ndim == 2 and state.shape != (dim, dim):
        raise ValueError("state must be a vector or a square density matrix")
    n_ions = int(round(np.log2(dim)))
    if 2**n_ions != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    if n_ions % 2 != 0:
        raise ValueError("certification is defined for even ion numbers")
    if n_ions > CERTIFY_MAX_IONS:
        raise ValueError(f"certification limited to n_ions <= {CERTIFY_MAX_IONS}")

    j_max = n_ions // 2
    pops, *complement = _projection_populations(state, n_ions, (axis, *AXIS_COMPLEMENTS[axis]))
    w_value = sum(np.arange(-j_max, j_max + 1) ** 2 @ p for p in complement)
    return CertificationRecord(j_max=j_max, axis=axis, witness_value=float(w_value),
                               populations=pops, f_lower=fidelity_lower(w_value, pops, j_max),
                               f_upper=fidelity_upper(pops))


# ---------------------------------------------------------------------------
# random-state generators for oracle tests
# ---------------------------------------------------------------------------

def haar_random_pure(dim: int, rng) -> np.ndarray:
    """Haar-distributed pure state of the given dimension."""
    rng = np.random.default_rng(rng)  # a Generator passes through unaltered
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_mixture(dim: int, n_components: int, rng) -> np.ndarray:
    """Convex mixture of Haar-random pure states with Dirichlet weights.

    Mixing populates every angular-momentum sector, which is what makes
    these states useful for exercising the bounds beyond the symmetric
    subspace.
    """
    rng = np.random.default_rng(rng)  # a Generator passes through unaltered
    weights = rng.dirichlet(np.ones(n_components))
    vecs = np.array([haar_random_pure(dim, rng) for _ in weights])
    return (vecs.T * weights) @ vecs.conj()
