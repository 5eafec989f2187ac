"""Collective spin algebra on the symmetric (Dicke) subspace.

N exchange-symmetric qubits live on the (N+1)-dimensional ladder of Dicke
states |m>, m = 0..N excitations, ordered ascending from all-spins-down.
Everything here is dense complex numpy; dimensions never exceed 2^10, so
sparsity machinery is not worth its weight.  Operators are plain arrays:
the collective ones are cached and read-only, so every caller shares one
copy and none can change it.

``whole`` is the one integer rule: every ion and excitation number, phonon
truncation, grid count, shot count and Philox key of the package is read
through it, and ``constant_cache`` keys every cached constant on its ints.

A brute-force realization on the full 2^N product space is included so
that every symmetric-sector matrix element can be validated against a
first-principles sum of single-site Pauli operators.
"""

from __future__ import annotations

import contextlib
import os
from functools import lru_cache, wraps
from math import comb, inf

import numpy as np

#: largest ion number for which full 2^N-space operators may be built
FULL_SPACE_MAX_IONS = 10

COLLECTIVE_KINDS = ("j+", "jx", "jy", "jz")

#: directory of ``_stored``'s files: the compiled RK4 kernel and the constant exponentials
_STORE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")


def _frozen(value):
    """``value``, with every ndarray in it, alone or in nested tuples, made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    for item in value if isinstance(value, tuple) else ():
        _frozen(item)
    return value


def whole(value, name: str, low: int, high: float = inf) -> int:
    """``value`` as an int if it is a whole number in [low, high], else a ValueError
    naming ``name`` and the bounds; nan and +-inf fail before ``int()`` is reached."""
    if not (low <= value <= high and value < inf and int(value) == value):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value}")
    return int(value)


def check_n_ions(n_ions: int) -> int:
    """``n_ions`` as an int, or a ValueError unless it is a positive integer."""
    return whole(n_ions, "n_ions", 1)


def constant_cache(*rules, maxsize=None):
    """Decorator: the one cache of the package's constants, an ``lru_cache``
    of ``maxsize`` entries keyed on the ints that ``rules``, such as
    ``check_n_ions``, make of the leading positional arguments, one each, and
    on the others as typed: 4.0 finds the entry of 4, and a refused count
    raises its rule's ValueError before the lookup.  Each returned ndarray,
    in a tuple too, is read-only."""
    def decorate(function):
        cached = lru_cache(maxsize=maxsize, typed=True)(lambda *a, **k: _frozen(function(*a, **k)))

        @wraps(function)
        def keyed(*args, **kwargs):
            key = list(args)
            if len(key) < len(rules):
                raise TypeError(f"{function.__name__} takes its counts by position")
            for i, rule in enumerate(rules):
                key[i] = rule(key[i])
            return cached(*key, **kwargs)

        keyed.cache_info, keyed.cache_clear = cached.cache_info, cached.cache_clear
        keyed.cache_parameters = cached.cache_parameters
        return keyed
    return decorate


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


@constant_cache(check_n_ions)
def projections(n_ions: int) -> np.ndarray:
    """Projections m - N/2 of the Dicke levels m = 0..N (Jz's eigenvalues), read-only."""
    return np.arange(n_ions + 1) - n_ions / 2


@constant_cache(check_n_ions)
def build_collective(n_ions: int, kind: str) -> np.ndarray:
    """J+, Jx, Jy or Jz on the symmetric sector, as a cached read-only
    (N+1) x (N+1) complex array.

    J+ raises the excitation number with the collective couplings on its
    single lower band; Jz is diagonal with eigenvalues m - N/2.
    """
    kind = kind.lower()
    if kind not in COLLECTIVE_KINDS:
        raise ValueError(f"kind must be one of {COLLECTIVE_KINDS}, got {kind!r}")
    if kind == "j+":
        jp = np.zeros((n_ions + 1, n_ions + 1), dtype=complex)
        for m in range(n_ions):
            jp[m + 1, m] = collective_coupling(n_ions, m)
        return jp
    if kind == "jz":
        return np.diag(projections(n_ions).astype(complex))
    jp = build_collective(n_ions, "j+")
    if kind == "jx":
        return (jp + jp.conj().T) / 2
    return (jp - jp.conj().T) / 2j


def _expm(generators: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (d, d) matrix or of each slice of a (k, d, d)
    stack; a stack gives the same bits as its slices one at a time.

    The one matrix exponential of the package.  scipy is imported here, on
    the first call, not at module level: ``scipy.linalg`` is the largest
    import of a ``dickesim`` process, and only the Jy rotation and the
    parity scan use it, so the commands that never exponentiate a matrix
    start without it.  The two constant rotations call it through
    ``_stored_expm``, so after the first process only ``rotation_y``'s
    callers import scipy.
    """
    from scipy.linalg import expm

    return expm(generators)


def _stored(name: str, key_parts, make, load, mode: int):
    """``load(path)`` of the package's derived file ``path`` in ``_STORE``:
    ``name`` with its ``{}`` filled by a SHA-256 over the length-prefixed
    byte strings ``key_parts``.  The one store of the package, for the
    compiled RK4 kernel and the constant exponentials.

    A missing file, or one that ``load`` refuses with OSError, ValueError or
    EOFError, is a miss: ``make(tmp)`` fills a temporary file in ``_STORE``,
    made if missing, which then gets ``mode`` (mkstemp's 0600 would keep
    other users from reading it) and replaces ``path`` in one atomic rename,
    so processes filling one store at once each load a whole file; then
    ``load`` reads it.  Where ``_STORE`` cannot be written, the file is made
    and loaded in this process's own temporary directory, which is then
    removed.  An error of ``make`` removes its temporary file and
    propagates.  Files of keys no longer asked for stay behind.
    """
    import hashlib

    digest = hashlib.sha256()
    for part in key_parts:
        digest.update(len(part).to_bytes(8, "little") + part)
    path = os.path.join(_STORE, name.format(digest.hexdigest()[:32]))
    with contextlib.suppress(OSError, ValueError, EOFError):
        return load(path)
    import tempfile

    prefix = os.path.splitext(os.path.basename(path))[0] + "-"
    try:
        os.makedirs(_STORE, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=prefix, suffix=".tmp", dir=_STORE)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="dickesim-") as private:
            path = os.path.join(private, os.path.basename(path))
            make(path)
            return load(path)  # a loaded library stays mapped once its directory is gone
    os.close(fd)
    try:
        make(tmp)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return load(path)


def _stored_expm(generators: np.ndarray) -> np.ndarray:
    """``_expm(generators)``, word for word, kept by ``_stored`` as
    ``expm-<key>.npy`` (mode 0644), so that only the first process to
    exponentiate these generators imports scipy.

    For the package's constant rotations only: the Jy(pi/2) pulse of
    ``half_excited_x`` and the parity scan's analysis pulses.  The key
    covers what fixes the words: the generators' bytes, shape and dtype,
    numpy's version, the installed scipy's ``version.py``, found without
    importing scipy, and the CPU features that numpy reports, by which
    scipy's BLAS picks its kernels.  A file that holds no array of the
    generators' dtype and shape is a miss.  Where the key cannot be read or
    no file can be made, it computes and stores nothing.  An upgraded numpy
    or scipy changes the key; the old files stay, a few KB each.  The
    rotations without scipy of ROADMAP item 6 delete this function along
    with scipy.
    """
    from importlib.util import find_spec

    from numpy._core._multiarray_umath import __cpu_features__

    def save(tmp):
        with open(tmp, "wb") as file:
            np.save(file, _expm(generators), allow_pickle=False)

    def load(path):
        with open(path, "rb") as file:
            stored = np.lib.format.read_array(file, allow_pickle=False)
        if stored.dtype != generators.dtype or stored.shape != generators.shape:
            raise ValueError(f"{path} holds a {stored.dtype} array of shape {stored.shape}")
        return stored

    with contextlib.suppress(OSError):
        scipy = find_spec("scipy")
        version = b""
        if scipy is not None:
            with open(os.path.join(os.path.dirname(scipy.origin), "version.py"), "rb") as file:
                version = file.read()
        features = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
        return _stored("expm-{}.npy", (generators.tobytes(), str(generators.shape).encode(),
                                       generators.dtype.str.encode(), np.__version__.encode(),
                                       version, features.encode()), save, load, 0o644)
    return _expm(generators)


def rotation_y(n_ions: int, angle: float) -> np.ndarray:
    """Global rotation exp(-i * angle * Jy) on the symmetric sector.

    No extra phase convention is applied beyond the matrix exponential.
    """
    if not np.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    return _expm(-1j * angle * build_collective(n_ions, "jy"))


def dicke_state(n_ions: int, m: int) -> np.ndarray:
    """Unit vector of the m-excitation Dicke state in the symmetric basis."""
    n_ions = check_n_ions(n_ions)
    m = whole(m, "excitation number m", 0, n_ions)
    vec = np.zeros(n_ions + 1, dtype=complex)
    vec[m] = 1.0
    return vec


@constant_cache(check_n_ions)
def half_excited_x(n_ions: int) -> np.ndarray:
    """Half-excited Dicke state along x, Ry(pi/2)|m = N/2>, cached and read-only."""
    half = half_excitation(n_ions)
    # rotation_y(n_ions, np.pi / 2)'s generators, exponentiated once for every process
    pulse = _stored_expm(-1j * (np.pi / 2) * build_collective(n_ions, "jy"))
    return pulse @ dicke_state(n_ions, half)


# ---------------------------------------------------------------------------
# full 2^N-space oracle
# ---------------------------------------------------------------------------

def _check_full_space_size(n_ions: int) -> int:
    return whole(n_ions, "n_ions of a full-space operator", 1, FULL_SPACE_MAX_IONS)


@constant_cache(_check_full_space_size)
def hamming_weights(n_ions: int) -> np.ndarray:
    """Spins up in each 2^N basis state, where bit i is set if ion i is up; read-only."""
    return np.array([bin(idx).count("1") for idx in range(2**n_ions)])


@constant_cache(_check_full_space_size)
def full_space_oracle(n_ions: int, kind: str) -> np.ndarray:
    """Collective operator built as a sum of single-site Paulis on 2^N space,
    as a cached read-only 2^N x 2^N complex array."""
    kind = kind.lower()
    if kind == "jz":
        return np.diag((hamming_weights(n_ions) - n_ions / 2).astype(complex))
    # bit i set = ion i up; sigma_+ flips one down spin up
    jp = np.zeros((2**n_ions, 2**n_ions), dtype=complex)
    for idx in range(2**n_ions):
        for i in range(n_ions):
            if not idx & (1 << i):
                jp[idx | (1 << i), idx] += 1.0
    if kind == "j+":
        return jp
    if kind == "jx":
        return (jp + jp.conj().T) / 2
    if kind == "jy":
        return (jp - jp.conj().T) / 2j
    raise ValueError(f"kind must be one of {COLLECTIVE_KINDS}, got {kind!r}")


def dicke_state_full(n_ions: int, m: int) -> np.ndarray:
    """Symmetric Dicke state |m> embedded in the full 2^N product space."""
    n_ions = _check_full_space_size(n_ions)
    m = whole(m, "excitation number m", 0, n_ions)
    vec = (hamming_weights(n_ions) == m).astype(complex)
    return vec / np.linalg.norm(vec)


def symmetric_isometry(n_ions: int) -> np.ndarray:
    """Isometry V (2^N x (N+1)) whose columns are the symmetric Dicke states.

    Conjugating a full-space collective operator as V^dag O V reproduces the
    symmetric-sector representation.
    """
    n_ions = _check_full_space_size(n_ions)
    return np.column_stack([dicke_state_full(n_ions, m) for m in range(n_ions + 1)])
