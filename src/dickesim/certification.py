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

Experimental populations may be fed in raw (unnormalized); nothing here
renormalizes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .spin_algebra import _frozen, dicke_state_full, full_space_oracle

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

    @property
    def projections(self) -> np.ndarray:
        return np.arange(-self.j_max, self.j_max + 1)

    @property
    def ghz_excluded(self) -> bool:
        return ghz_excluded(self.f_lower)


def ghz_excluded(f_lower: float) -> bool:
    """True when the lower bound exceeds the 3/4 GHZ-Dicke overlap ceiling."""
    return f_lower > GHZ_DICKE_MAX_OVERLAP


def _check_populations(populations) -> np.ndarray:
    pops = np.asarray(populations, dtype=float)
    if pops.ndim != 1 or len(pops) < 3 or len(pops) % 2 == 0:
        raise ValueError("populations must be an odd-length vector p_{-jM}..p_{+jM}")
    if np.any(pops < -1e-12):
        raise ValueError("populations must be nonnegative")
    return pops


def fidelity_upper(populations) -> float:
    """Upper bound: the central population p_0 alone."""
    pops = _check_populations(populations)
    return float(pops[len(pops) // 2])


def fidelity_lower(witness_value: float, populations, j_max: int) -> float:
    """Witness-based lower bound on the half-excited Dicke fidelity."""
    pops = _check_populations(populations)
    if int(j_max) != j_max or j_max < 1:
        raise ValueError(f"j_max must be a positive integer (N/2 for even N), got {j_max}")
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
    sig = np.asarray(sigma_populations, dtype=float)
    if sigma_witness < 0 or np.any(sig < 0):
        raise ValueError("standard errors must be nonnegative")
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
def _projection_blocks(n_ions: int, axis: str):
    """Eigenvector blocks of the full-space spin projection, keyed by jz."""
    vals, vecs = np.linalg.eigh(full_space_oracle(n_ions, "j" + axis))
    blocks = []
    for jz in range(-n_ions // 2, n_ions // 2 + 1):
        cols = np.abs(vals - jz) < 1e-9
        blocks.append(_frozen(vecs[:, cols].copy()))
    return blocks


@lru_cache(maxsize=None)
def half_excited_full(n_ions: int, axis: str = "x") -> np.ndarray:
    """Half-excited Dicke state along an axis, in the full 2^N space."""
    if n_ions % 2 != 0:
        raise ValueError("half-excited states need an even number of ions")
    target = dicke_state_full(n_ions, n_ions // 2)
    if axis == "x":
        target = expm(-1j * (np.pi / 2) * full_space_oracle(n_ions, "jy")) @ target
    elif axis == "y":
        target = expm(+1j * (np.pi / 2) * full_space_oracle(n_ions, "jx")) @ target
    elif axis != "z":
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    return _frozen(target)


def _full_dim_to_n(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    return n


def certify_from_state(state: np.ndarray, axis: str = "x") -> CertificationRecord:
    """Exact witness and populations of a full-space state, plus the bounds.

    ``state`` is a vector or a density matrix on the 2^N space, N even and
    at most 8.  Measurement operators are rotated to the requested axis;
    states are never rotated.
    """
    if axis not in AXIS_COMPLEMENTS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    if state.ndim == 2 and state.shape != (dim, dim):
        raise ValueError("density matrix must be square")
    n_ions = _full_dim_to_n(dim)
    if n_ions % 2 != 0:
        raise ValueError("certification is defined for even ion numbers")
    if n_ions > CERTIFY_MAX_IONS:
        raise ValueError(f"certification limited to n_ions <= {CERTIFY_MAX_IONS}")

    wb, wc = (full_space_oracle(n_ions, "j" + b) for b in AXIS_COMPLEMENTS[axis])

    if state.ndim == 1:
        w_value = np.real(np.vdot(state, wb @ (wb @ state)) + np.vdot(state, wc @ (wc @ state)))
        pops = np.array(
            [np.sum(np.abs(block.conj().T @ state) ** 2)
             for block in _projection_blocks(n_ions, axis)]
        )
    else:
        w_value = np.real(np.trace(state @ (wb @ wb + wc @ wc)))
        pops = np.array(
            [np.real(np.trace(block.conj().T @ state @ block))
             for block in _projection_blocks(n_ions, axis)]
        )

    j_max = n_ions // 2
    return CertificationRecord(
        j_max=j_max,
        axis=axis,
        witness_value=float(w_value),
        populations=pops,
        f_lower=fidelity_lower(w_value, pops, j_max),
        f_upper=fidelity_upper(pops),
    )


# ---------------------------------------------------------------------------
# random-state generators for oracle tests
# ---------------------------------------------------------------------------

def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def haar_random_pure(dim: int, rng) -> np.ndarray:
    """Haar-distributed pure state of the given dimension."""
    rng = _as_rng(rng)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_mixture(dim: int, n_components: int, rng) -> np.ndarray:
    """Convex mixture of Haar-random pure states with Dirichlet weights.

    Mixing populates every angular-momentum sector, which is what makes
    these states useful for exercising the bounds beyond the symmetric
    subspace.
    """
    rng = _as_rng(rng)
    weights = rng.dirichlet(np.ones(n_components))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = haar_random_pure(dim, rng)
        rho += w * np.outer(vec, vec.conj())
    return rho
