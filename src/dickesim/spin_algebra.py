"""Collective spin algebra on the symmetric (Dicke) subspace.

N exchange-symmetric qubits live on the (N+1)-dimensional ladder of Dicke
states |m>, m = 0..N excitations, ordered ascending from all-spins-down.
Everything here is dense complex numpy; dimensions never exceed 2^10, so
sparsity machinery is not worth its weight.  Operators are plain arrays:
the collective ones are cached and read-only, so every caller shares one
copy and none can change it.

``whole`` is the one integer rule: every ion and excitation number, phonon
truncation, shot count and Philox key of the package is read through it.

A brute-force realization on the full 2^N product space is included so
that every symmetric-sector matrix element can be validated against a
first-principles sum of single-site Pauli operators.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, inf

import numpy as np

#: largest ion number for which full 2^N-space operators may be built
FULL_SPACE_MAX_IONS = 10

COLLECTIVE_KINDS = ("j+", "jx", "jy", "jz")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _operator(mat: np.ndarray) -> np.ndarray:
    """Read-only complex copy; cached operators are shared by every caller."""
    return _frozen(np.array(mat, dtype=complex))


def whole(value, name: str, low: int, high: float = inf) -> int:
    """``value`` as an int if it is a whole number in [low, high], else a ValueError
    naming ``name`` and the bounds; nan and +-inf fail before ``int()`` is reached."""
    if not (low <= value <= high and value < inf and int(value) == value):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value}")
    return int(value)


def check_n_ions(n_ions: int) -> int:
    """``n_ions`` as an int, or a ValueError unless it is a positive integer."""
    return whole(n_ions, "n_ions", 1)


def half_excitation(n_ions: int) -> int:
    """N/2, the excitation number of a half-excited Dicke state; a ValueError
    unless ``n_ions`` is a positive even integer.  The one even-N rule."""
    n_ions = check_n_ions(n_ions)
    if n_ions % 2 != 0:
        raise ValueError(f"half-excited Dicke states need an even number of ions, got N={n_ions}")
    return n_ions // 2


def collective_coupling(n_ions: int, m: int) -> float:
    """Enhanced spin-raising matrix element <m+1|J+|m> between Dicke states.

    Equals (N - m) * sqrt(C(N, m) / C(N, m+1)); the collective enhancement
    over a single spin flip.
    """
    n_ions = check_n_ions(n_ions)
    m = whole(m, "m", 0, n_ions - 1)
    return (n_ions - m) * np.sqrt(comb(n_ions, m) / comb(n_ions, m + 1))


@lru_cache(maxsize=None)
def projections(n_ions: int) -> np.ndarray:
    """Projections m - N/2 of the Dicke levels m = 0..N (Jz's eigenvalues), read-only."""
    check_n_ions(n_ions)
    return _frozen(np.arange(n_ions + 1) - n_ions / 2)


@lru_cache(maxsize=None, typed=True)
def build_collective(n_ions: int, kind: str) -> np.ndarray:
    """J+, Jx, Jy or Jz on the symmetric sector, as a cached read-only
    (N+1) x (N+1) complex array.

    J+ raises the excitation number with the collective couplings on its
    single lower band; Jz is diagonal with eigenvalues m - N/2.
    """
    check_n_ions(n_ions)
    kind = kind.lower()
    if kind not in COLLECTIVE_KINDS:
        raise ValueError(f"kind must be one of {COLLECTIVE_KINDS}, got {kind!r}")
    if kind == "j+":
        jp = np.zeros((n_ions + 1, n_ions + 1), dtype=complex)
        for m in range(n_ions):
            jp[m + 1, m] = collective_coupling(n_ions, m)
        return _operator(jp)
    if kind == "jz":
        return _operator(np.diag(projections(n_ions).astype(complex)))
    jp = build_collective(n_ions, "j+")
    if kind == "jx":
        return _operator((jp + jp.conj().T) / 2)
    return _operator((jp - jp.conj().T) / 2j)


def _expm(generators: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (d, d) matrix or of each slice of a (k, d, d)
    stack; a stack gives the same bits as its slices one at a time.

    The one matrix exponential of the package.  scipy is imported here, on
    the first call, not at module level: ``scipy.linalg`` is the largest
    import of a ``dickesim`` process, and only the Jy rotation and the
    parity scan use it, so the commands that never exponentiate a matrix
    start without it.
    """
    from scipy.linalg import expm

    return expm(generators)


def rotation_y(n_ions: int, angle: float) -> np.ndarray:
    """Global rotation exp(-i * angle * Jy) on the symmetric sector, read-only.

    No extra phase convention is applied beyond the matrix exponential.
    """
    if not np.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    return _operator(_expm(-1j * angle * build_collective(n_ions, "jy")))


def dicke_state(n_ions: int, m: int) -> np.ndarray:
    """Unit vector of the m-excitation Dicke state in the symmetric basis."""
    n_ions = check_n_ions(n_ions)
    m = whole(m, "excitation number m", 0, n_ions)
    vec = np.zeros(n_ions + 1, dtype=complex)
    vec[m] = 1.0
    return vec


@lru_cache(maxsize=None, typed=True)
def half_excited_x(n_ions: int) -> np.ndarray:
    """Half-excited Dicke state along x: Ry(pi/2) applied to |m = N/2>,
    cached and read-only.  The cache is typed, so a float ``n_ions`` raises
    from a warm cache as it does from a cold one."""
    half = half_excitation(n_ions)
    return _frozen(rotation_y(n_ions, np.pi / 2) @ dicke_state(n_ions, half))


# ---------------------------------------------------------------------------
# full 2^N-space oracle
# ---------------------------------------------------------------------------

def _check_full_space_size(n_ions: int) -> None:
    whole(n_ions, "n_ions of a full-space operator", 1, FULL_SPACE_MAX_IONS)


@lru_cache(maxsize=None)
def hamming_weights(n_ions: int) -> np.ndarray:
    """Spins up in each 2^N basis state, where bit i is set if ion i is up; read-only."""
    _check_full_space_size(n_ions)
    return _frozen(np.array([bin(idx).count("1") for idx in range(2**n_ions)]))


def _full_jp(n_ions: int) -> np.ndarray:
    # bit i set = ion i up; sigma_+ flips one down spin up
    dim = 2**n_ions
    mat = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        for i in range(n_ions):
            if not idx & (1 << i):
                mat[idx | (1 << i), idx] += 1.0
    return mat


@lru_cache(maxsize=None, typed=True)
def full_space_oracle(n_ions: int, kind: str) -> np.ndarray:
    """Collective operator built as a sum of single-site Paulis on 2^N space,
    as a cached read-only 2^N x 2^N complex array."""
    _check_full_space_size(n_ions)
    kind = kind.lower()
    if kind == "jz":
        return _operator(np.diag((hamming_weights(n_ions) - n_ions / 2).astype(complex)))
    jp = _full_jp(n_ions)
    if kind == "j+":
        return _operator(jp)
    if kind == "jx":
        return _operator((jp + jp.conj().T) / 2)
    if kind == "jy":
        return _operator((jp - jp.conj().T) / 2j)
    raise ValueError(f"kind must be one of {COLLECTIVE_KINDS}, got {kind!r}")


def dicke_state_full(n_ions: int, m: int) -> np.ndarray:
    """Symmetric Dicke state |m> embedded in the full 2^N product space."""
    _check_full_space_size(n_ions)
    m = whole(m, "excitation number m", 0, n_ions)
    vec = (hamming_weights(n_ions) == m).astype(complex)
    return vec / np.linalg.norm(vec)


def symmetric_isometry(n_ions: int) -> np.ndarray:
    """Isometry V (2^N x (N+1)) whose columns are the symmetric Dicke states.

    Conjugating a full-space collective operator as V^dag O V reproduces the
    symmetric-sector representation.
    """
    _check_full_space_size(n_ions)
    return np.column_stack([dicke_state_full(n_ions, m) for m in range(n_ions + 1)])
