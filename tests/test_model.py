import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import model
from dickesim.dark_state import chain_vector, dark_coefficients
from dickesim.errors import PhysicsConfigError
from dickesim.spin_algebra import collective_coupling
from oracles import bits, embed, to_chain_frame


def _loop_parts(n):
    """(K_r, K_b, D) written out along the chain: blue couplings leave the
    even sites, red ones the odd sites, and D counts the phonon."""
    kr = np.zeros((n + 1, n + 1))
    kb = np.zeros((n + 1, n + 1))
    for k in range(n):
        target = kb if k % 2 == 0 else kr
        target[k, k + 1] = target[k + 1, k] = collective_coupling(n, k)
    return kr, kb, np.diag((np.arange(n + 1) % 2).astype(float))


def test_params_validation():
    with pytest.raises(ValueError):
        model.SystemParams(n_ions=0)
    with pytest.raises(ValueError):
        model.SystemParams(n_ions=2, delta=-1.0)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError):
            model.SystemParams(n_ions=2, delta=value)
    # the drive lives in the schedule, not in the system
    for name in ("eta", "omega_r", "omega_b"):
        with pytest.raises(TypeError):
            model.SystemParams(n_ions=2, **{name: 1.0})


def test_params_default_n_max():
    assert model.SystemParams(n_ions=4).n_max == 6
    assert model.SystemParams(n_ions=2, n_max=9).n_max == 9


def test_float_ion_number_builds_the_int_hamiltonians():
    # a float that is a whole number is stored as that int, so the builders,
    # which size arrays and ranges from it, take it like the int
    as_float = model.SystemParams(n_ions=2.0, delta=20.0, n_max=5.0)
    as_int = model.SystemParams(n_ions=2, delta=20.0, n_max=5)
    assert as_float == as_int
    assert type(as_float.n_ions) is int and type(as_float.n_max) is int
    assert type(model.SystemParams(n_ions=4.0).n_max) is int
    assert np.array_equal(model.reduced_hamiltonian(as_float, 1.0, 0.5),
                          model.reduced_hamiltonian(as_int, 1.0, 0.5))
    assert np.array_equal(model.full_hamiltonian(as_float, 0.3, 1.0, 0.5),
                          model.full_hamiltonian(as_int, 0.3, 1.0, 0.5))


def test_validity_flag():
    assert model.SystemParams(n_ions=4, delta=20).reduced_model_trusted(1)
    assert not model.SystemParams(n_ions=4, delta=5).reduced_model_trusted(1)
    # an undriven chain neglects nothing, even at delta = 0
    assert model.SystemParams(n_ions=4, delta=0.0).reduced_model_trusted(0.0)


def test_reduced_matrix_two_ions():
    params = model.SystemParams(n_ions=2, delta=10)
    h = model.reduced_hamiltonian(params, 1, 1)
    s2 = np.sqrt(2)
    expected = np.array([[0, s2, 0], [s2, 10, s2], [0, s2, 0]])
    assert np.max(np.abs(h - expected)) < 1e-14


def test_reduced_matrix_symmetric_real():
    params = model.SystemParams(n_ions=6, delta=4.0)
    h = model.reduced_hamiltonian(params, 0.3, 1.7)
    assert np.array_equal(h, h.T)
    assert np.isrealobj(h)


def test_blue_off_leaves_ground_dark():
    params = model.SystemParams(n_ions=6, delta=8.0)
    h = model.reduced_hamiltonian(params, 1.3, 0.0)
    ground = np.zeros(7)
    ground[0] = 1.0
    assert np.max(np.abs(h @ ground)) == 0.0


def test_dark_vector_is_null_eigenvector():
    params = model.SystemParams(n_ions=4, delta=12.0)
    h = model.reduced_hamiltonian(params, 1.0, 1.0)
    psi = chain_vector(dark_coefficients(4, 1.0, 1.0)[1])
    assert np.linalg.norm(h @ psi) < 1e-10


def test_updown_symmetry_of_chain():
    # reversing the chain index swaps the roles of the two sidebands
    params = model.SystemParams(n_ions=4, delta=6.0)
    ha = model.reduced_hamiltonian(params, 0.4, 1.1)
    hb = model.reduced_hamiltonian(params, 1.1, 0.4)
    assert np.max(np.abs(ha[::-1, ::-1] - hb)) < 1e-14


@pytest.mark.parametrize("n", range(1, 11))
def test_sliced_parts_equal_chain_loop(n):
    for sliced, loop in zip(model.reduced_coupling_parts(n), _loop_parts(n)):
        assert sliced.dtype == loop.dtype and sliced.shape == loop.shape
        assert np.array_equal(bits(sliced), bits(loop))
        assert not sliced.flags.writeable


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    omega_r=st.floats(0.0, 1e6),
    omega_b=st.floats(0.0, 1e6),
    delta=st.floats(0.0, 1e6),
)
def test_chain_is_full_resonant_block_at_half_drive(n, omega_r, omega_b, delta):
    params = model.SystemParams(n_ions=n, delta=delta)
    chain = np.ix_(*[model.chain_indices(n, params.n_max)] * 2)
    block = model.full_hamiltonian(params, 0.0, omega_r, omega_b)[chain]
    half = model.reduced_hamiltonian(model.SystemParams(n_ions=n), omega_r / 2, omega_b / 2)
    assert np.array_equal(bits(block.real), bits(half))
    assert not np.any(block.imag)


def test_array_rates_equal_scalar_calls():
    params = model.SystemParams(n_ions=6, delta=3.7)
    rng = np.random.default_rng(7)
    omega_r, omega_b = rng.uniform(0.0, 2.0, (2, 50))
    omega_r[:5] = 0.0
    stack = model.reduced_hamiltonian(params, omega_r, omega_b)
    expected = np.stack([model.reduced_hamiltonian(params, float(r), float(b))
                         for r, b in zip(omega_r, omega_b)])
    assert stack.shape == (50, 7, 7)
    assert np.array_equal(bits(stack), bits(expected))


def test_chain_indices_pair_each_level_with_its_phonon():
    n_max = 5
    index = model.chain_indices(4, n_max)
    assert (index // (n_max + 1)).tolist() == [0, 1, 2, 3, 4]
    assert (index % (n_max + 1)).tolist() == [0, 1, 0, 1, 0]


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def test_full_zero_amplitudes_zero_matrix():
    params = model.SystemParams(n_ions=2, delta=10.0)
    assert np.max(np.abs(model.full_hamiltonian(params, 0.3, 0.0, 0.0))) == 0.0


def test_full_hermitian_at_sampled_times():
    params = model.SystemParams(n_ions=3, delta=9.0)
    for t in (0.0, 0.17, 1.23, 7.7):
        h = model.full_hamiltonian(params, t, 0.7, 1.2)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_full_red_matrix_element():
    params = model.SystemParams(n_ions=2, delta=5.0)
    omega_r = 0.8 * 1.4  # eta = 0.8 times a carrier rate 1.4
    h = model.full_hamiltonian(params, 0.0, omega_r, 0.0)
    n_levels = params.n_max + 1
    bra = np.zeros(3 * n_levels)
    bra[1 * n_levels + 0] = 1.0  # |D^1, 0>
    ket = np.zeros(3 * n_levels)
    ket[0 * n_levels + 1] = 1.0  # |D^0, 1>
    expected = omega_r / 2 * np.sqrt(2) * 1.0
    assert np.vdot(bra, h @ ket) == pytest.approx(expected, rel=1e-12)


def test_full_periodicity():
    params = model.SystemParams(n_ions=2, delta=7.0)
    t = 0.31
    shifted = model.full_hamiltonian(params, t + 2 * np.pi / params.delta, 0.9, 0.4)
    assert np.max(np.abs(shifted - model.full_hamiltonian(params, t, 0.9, 0.4))) < 1e-12


def test_full_n_max_guard():
    with pytest.raises(PhysicsConfigError, match="Fock headroom"):
        model.full_support(4, 3)
    with pytest.raises(PhysicsConfigError):
        model.full_hamiltonian(model.SystemParams(n_ions=4, n_max=3), 0.0, 1.0, 1.0)


def test_full_support_is_built_once_and_read_only():
    support, dimension, parts, bounds, formula = model.full_support(4, 6)
    again, _, parts_again, bounds_again, _ = model.full_support(4, 6)
    assert again is support and parts_again is parts and bounds_again is bounds
    assert dimension == 5 * 7
    assert formula == (1, 4, parts.dtype, len(parts))  # what the RK4 kernel reads
    for array in (support, parts, bounds):
        assert not array.flags.writeable
    assert support.dtype == np.int64 and len(parts) == 4
    assert all(part.shape == (len(support) + 1,) for part in parts)
    assert bounds.dtype == np.int64 and bounds.shape == (5,)


def test_embed_and_frame_round_trip():
    chain = chain_vector(dark_coefficients(4, 1.0, 1.0)[1])
    params = model.SystemParams(n_ions=4, delta=11.0)
    full = embed(chain, 4, params.n_max)
    assert np.linalg.norm(full) == pytest.approx(1.0, abs=1e-12)
    # dark states live at phonon vacuum, so the frame map is the identity
    shifted = to_chain_frame(full, 0.37, params)
    assert np.max(np.abs(shifted - full)) < 1e-15
    # in the chain's frame the full model does not depend on time: each
    # sideband moves the phonon number by one, which the frame's phase undoes
    frame = to_chain_frame(np.ones(len(full)), 0.37, params)
    h = model.full_hamiltonian(params, 0.37, 0.6, 1.3)
    rotated = frame[:, None] * h * frame.conj()[None, :]
    assert np.max(np.abs(rotated - model.full_hamiltonian(params, 0.0, 0.6, 1.3))) < 1e-12
