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

Exact certification of a 2^N state vector rotates each qubit into the
eigenbasis of sigma_a (J_a = sum_q sigma_a^(q)/2) and sums the probabilities
by Hamming weight into P_a(m).  A density matrix rho is instead summed by
the Hamming distance |i xor j| of its row and column indices (for y also by
(|i| - |j|) mod 4), and one Krawtchouk transform of those sums gives P_a(m).
The witness is then exactly sum_m m^2 (P_b(m) + P_c(m)).

Experimental populations may be fed in raw (unnormalized), each in [0, 1]
up to ``observables.NORM_TOL``, as a state's total probability is; nothing
here renormalizes them.  The bounds read jM from the odd-length vector
p_{-jM}..p_{+jM}: a ``bounds`` input file's ``p_list``, which may sum to
at most 1.05, with ``j_M`` = (len(p_list) - 1)/2.  A ``CertificationRecord``
holds only what was measured and derives its bounds from it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .observables import AXES, NORM_TOL, check_normalized
from .spin_algebra import (_frozen, check_n_ions, constant_cache, dicke_state_full,
                           full_space_oracle, half_excitation, hamming_weights, projections, whole)

#: a fidelity lower bound above this excludes the GHZ state as the source
GHZ_DICKE_MAX_OVERLAP = 0.75

AXIS_COMPLEMENTS = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}

CERTIFY_MAX_IONS = 8


@dataclass(frozen=True)
class CertificationRecord:
    """Measured (or simulated) witness and populations, with standard errors
    for both (the shot-sampled pipeline) or neither (exact inputs, whose
    bound sigmas stay None), and the bounds that ``fidelity_lower``,
    ``fidelity_upper`` and ``propagate_uncertainty`` derive from them."""

    witness_value: float
    populations: np.ndarray
    sigma_witness: float | None = None
    sigma_populations: np.ndarray | None = None
    f_lower: float = field(init=False)
    f_upper: float = field(init=False)
    sigma_lower: float | None = field(init=False, default=None)
    sigma_upper: float | None = field(init=False, default=None)

    def __post_init__(self):
        pops = _frozen(np.array(self.populations, dtype=float))
        derived = {"populations": pops, "f_lower": fidelity_lower(self.witness_value, pops),
                   "f_upper": fidelity_upper(pops)}
        if (self.sigma_witness is None) != (self.sigma_populations is None):
            raise ValueError("give both standard errors or neither")
        if self.sigma_populations is not None:
            sig = _frozen(np.array(self.sigma_populations, dtype=float))
            if sig.shape != pops.shape:
                raise ValueError("sigma_populations shape does not match populations")
            derived["sigma_populations"] = sig
            derived["sigma_lower"], derived["sigma_upper"] = propagate_uncertainty(
                self.sigma_witness, sig)
        self.__dict__.update(derived)  # frozen: the fields are set once, here


def ghz_excluded(f_lower: float) -> bool:
    """True when the lower bound exceeds the 3/4 GHZ-Dicke overlap ceiling."""
    return f_lower > GHZ_DICKE_MAX_OVERLAP


def _check_witness(witness_value: float) -> None:
    if not np.isfinite(witness_value):
        raise ValueError(f"witness value must be finite, got {witness_value}")


def _check_populations(populations) -> np.ndarray:
    """The odd-length float vector p_{-jM}..p_{+jM}, each in [0, 1] up to NORM_TOL."""
    pops = np.asarray(populations, dtype=float)
    if pops.ndim != 1 or len(pops) < 3 or len(pops) % 2 == 0:
        raise ValueError("populations must be an odd-length vector p_{-jM}..p_{+jM}")
    if not np.all((pops >= -NORM_TOL) & (pops <= 1 + NORM_TOL)):  # nan fails both
        raise ValueError("populations must lie in [0, 1]")
    return pops


def fidelity_upper(populations) -> float:
    """Upper bound: the central population p_0 alone."""
    pops = _check_populations(populations)
    return float(pops[len(pops) // 2])


@constant_cache(lambda j_max: whole(j_max, "j_M", 1))
def _lower_coefficients(j_max: int) -> np.ndarray:
    """The one rule of the lower bound's coefficients of p_{-jM}..p_{+jM}:
    (jM+1)/2 - jz^2/(2 jM), and (jM-1)/2 at the centre jz = 0."""
    coeffs = (j_max + 1) / 2 - projections(2 * j_max) ** 2 / (2 * j_max)
    coeffs[j_max] = (j_max - 1) / 2
    return coeffs


def fidelity_lower(witness_value: float, populations) -> float:
    """Witness-based lower bound on the half-excited Dicke fidelity, with jM
    = (len(populations) - 1)/2."""
    pops = _check_populations(populations)
    _check_witness(witness_value)
    j_max = len(pops) // 2
    coeffs = _lower_coefficients(j_max)
    bound = witness_value / (2 * j_max) - coeffs[j_max] * pops[j_max]
    return float(bound - np.sum(np.delete(coeffs * pops, j_max)))


def fidelity_sandwich_4ion(witness_value: float, populations) -> tuple[float, float]:
    """Four-ion closed form: (W/4 - (p_-2 + p_2 + p_0)/2 - 5(p_-1 + p_1)/4, p_0).

    Identical to the general lower/upper bounds at jM = 2.
    """
    pops = _check_populations(populations)
    _check_witness(witness_value)
    if len(pops) != 5:
        raise ValueError(f"four-ion form needs exactly 5 populations, got {len(pops)}")
    lower = witness_value / 4 - (
        (pops[0] + pops[4] + pops[2]) / 2 + 5 * (pops[1] + pops[3]) / 4
    )
    return float(lower), float(pops[2])


def propagate_uncertainty(sigma_witness: float, sigma_populations) -> tuple[float, float]:
    """First-order (here: exact, the bounds are linear) error propagation,
    with jM = (len(sigma_populations) - 1)/2.

    Inputs are treated as independent; returns (sigma_lower, sigma_upper).
    """
    sig = np.asarray(sigma_populations, dtype=float)
    every = np.append(sig, sigma_witness)
    if not np.all((every >= 0) & (every < np.inf)):  # nan fails both
        raise ValueError("standard errors must be nonnegative and finite")
    if sig.ndim != 1 or len(sig) < 3 or len(sig) % 2 == 0:
        raise ValueError("sigma_populations must be an odd-length vector")
    j_max = len(sig) // 2
    var_lower = (sigma_witness / (2 * j_max)) ** 2 + np.sum((_lower_coefficients(j_max) * sig) ** 2)
    return float(np.sqrt(var_lower)), float(sig[j_max])


# ---------------------------------------------------------------------------
# exact certification from a full-space state
# ---------------------------------------------------------------------------

@constant_cache()
def _qubit_rotations(axis: str) -> np.ndarray:
    """One qubit's rotation into sigma_axis's eigenbasis: the rows are its
    eigenvectors (down, up), conjugated."""
    return np.linalg.eigh(full_space_oracle(1, "j" + axis))[1].conj().T


def _on_each_qubit(x: np.ndarray, op: np.ndarray, n_ions: int) -> np.ndarray:
    """Apply ``op`` to each qubit's index of ``x``: every pass acts on the
    leading qubit and moves it to the back, so N passes restore the order.
    A pass writes its product already transposed, contiguous, so the next
    pass's reshape is a view and copies nothing."""
    for _ in range(n_ions):
        x = x.reshape(op.shape[1], -1).T @ op.T
    return x.reshape(-1)


@constant_cache(check_n_ions)
def _distance_keys(n_ions: int) -> np.ndarray:
    """The bin of each entry of a C-ordered 2^N x 2^N matrix, one intp key
    per entry: (i, j) has key 4 |i xor j| + (|i| - |j|) mod 4, with |.| the
    Hamming weight; read-only."""
    weights = hamming_weights(n_ions).astype(np.int16)  # int16 temporaries build it 3x faster
    index = np.arange(2**n_ions, dtype=np.int16)
    key = 4 * weights[index[:, None] ^ index] + (weights[:, None] - weights) % 4
    return key.astype(np.intp).reshape(-1)


@constant_cache(check_n_ions)
def _krawtchouk(n_ions: int) -> np.ndarray:
    """K[k, w] = sum_t (-1)^t C(w, t) C(N - w, k - t), the coefficient of y^k
    in (1 - y)^w (1 + y)^(N - w); K @ K = 2^N I; read-only."""
    return np.array([[sum((-1) ** t * comb(w, t) * comb(n_ions - w, k - t)
                          for t in range(min(w, k) + 1))
                      for w in range(n_ions + 1)] for k in range(n_ions + 1)], dtype=float)


def _density_populations(rho: np.ndarray, n_ions: int) -> dict[str, np.ndarray]:
    """Populations of J_a for a density matrix, from its sums by Hamming
    distance (MacWilliams and Sloane, ch. 5).  With the projectors
    (1 -/+ sigma_a)/2 on each qubit, P_a(N - k) = 2^-N sum_w K[k, w] C_a(w),
    where C_a(w) sums tr(rho sigma_a^S) over the qubit sets S of size w.
    For x that is the sum of rho_ij over |i xor j| = w; sigma_y^S gives
    entry (i, j) the phase 1j^(|i| - |j|), so for y the sum is split by
    (|i| - |j|) mod 4.  One ``np.add.at`` of rho's complex entries into the
    bins of ``_distance_keys`` gives every sum as one complex number: numpy
    adds the real and imaginary parts apart, each in input order, so every
    word is the sum that a float-word ``np.bincount`` gives, without the
    copy of the read-only table that ``bincount`` makes on every call."""
    sums = np.zeros((n_ions + 1, 4), dtype=complex)
    np.add.at(sums.reshape(-1), _distance_keys(n_ions), rho.reshape(-1))
    re, im = sums.real, sums.imag
    transform = _krawtchouk(n_ions)[::-1] / 2**n_ions  # row m is K[N - m]
    return {"x": transform @ re.sum(axis=1),
            "y": transform @ (re[:, 0] - im[:, 1] - re[:, 2] + im[:, 3]),
            "z": np.bincount(hamming_weights(n_ions), weights=np.diagonal(rho).real,
                             minlength=n_ions + 1)}


def _projection_populations(state: np.ndarray, n_ions: int) -> dict[str, np.ndarray]:
    """Populations of J_a = m - N/2, m = 0..N, for a = x, y and z, in one
    pass.  A vector is rotated qubit by qubit into sigma_a's eigenbasis and
    its probabilities summed by Hamming weight; a density matrix takes
    ``_density_populations``."""
    if state.ndim == 2:
        return _density_populations(state, n_ions)
    populations, up = {}, hamming_weights(n_ions)  # the spins up in each basis state
    for axis in AXES:
        amplitudes = state if axis == "z" else _on_each_qubit(state, _qubit_rotations(axis), n_ions)
        populations[axis] = np.bincount(up, weights=np.abs(amplitudes) ** 2, minlength=n_ions + 1)
    return populations


@constant_cache(check_n_ions)
def half_excited_full(n_ions: int, axis: str = "x") -> np.ndarray:
    """Half-excited Dicke state along an axis, in the full 2^N space."""
    half = half_excitation(n_ions)
    if axis not in AXIS_COMPLEMENTS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    target = dicke_state_full(n_ions, half)
    if axis != "z":
        # exp(-i (pi/2) J_y) for x, exp(+i (pi/2) J_x) for y, one qubit at a time
        sigma = 2 * full_space_oracle(1, "jy") if axis == "x" else -2 * full_space_oracle(1, "jx")
        rotation = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * sigma
        target = _on_each_qubit(target, rotation, n_ions)
    return target


def certify_from_state(state: np.ndarray, axis: str = "x") -> CertificationRecord:
    """Exact witness and populations of a full-space state, plus the bounds.

    ``state`` is a vector or a density matrix on the 2^N space, N even and
    at most 8, of total probability 1; of a matrix, the Hermitian part
    (rho + rho^dag)/2 is read, and neither Hermiticity nor positivity is
    tested.  One ``_projection_populations`` pass gives the populations along
    x, y and z: the record keeps the target axis's, and the witness sums the
    two complementary axes'.
    """
    if axis not in AXIS_COMPLEMENTS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    state = check_normalized(state)
    n_ions = int(round(np.log2(len(state))))
    if 2**n_ions != len(state):
        raise ValueError(f"state dimension {len(state)} is not a power of two")
    half_excitation(n_ions)
    if n_ions > CERTIFY_MAX_IONS:
        raise ValueError(f"certification limited to n_ions <= {CERTIFY_MAX_IONS}")

    populations = _projection_populations(state, n_ions)
    w_value = sum(projections(n_ions) ** 2 @ populations[b] for b in AXIS_COMPLEMENTS[axis])
    return CertificationRecord(witness_value=float(w_value), populations=populations[axis])


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
