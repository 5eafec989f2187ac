"""Reference formulas shared by the test modules, written out from the
definitions and not through the package's own helpers, so that a test
against them checks the package and not a copy of its code."""

import numpy as np

from dickesim import model


def bits(values) -> np.ndarray:
    """The 64-bit words of an array or of a list of floats, for comparing
    results bit for bit."""
    return np.ascontiguousarray(values).view(np.uint64)


def dense_from_support(values, support, dimension) -> np.ndarray:
    """Dense (..., d, d) matrices from their (..., s+1) ``values``: the s
    entries at the flat indices ``support`` and the last value everywhere
    else, the matrices that the RK4 kernel builds from those values."""
    values = np.asarray(values)
    h = np.empty(values.shape[:-1] + (dimension * dimension,), dtype=values.dtype)
    h[...] = values[..., -1:]
    h[..., support] = values[..., :-1]
    return h.reshape(values.shape[:-1] + (dimension, dimension))


def embed(chain_vec, n_ions, n_max):
    """A chain vector lifted onto the product space at its paired phonon numbers."""
    full = np.zeros((n_ions + 1) * (n_max + 1), dtype=complex)
    full[model.chain_indices(n_ions, n_max)] = chain_vec
    return full


def to_chain_frame(psi, t, params):
    """An interaction-picture product state in the chain's rotating frame,
    where Fock level n picks up exp(-i * delta * t * n)."""
    nvec = np.tile(np.arange(params.n_max + 1), params.n_ions + 1)
    return psi * np.exp(-1j * params.delta * t * nvec)
