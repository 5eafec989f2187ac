import numpy as np
import pytest

from dickesim import model
from dickesim.dark_state import dark_coefficients
from dickesim.errors import PhysicsConfigError


def test_params_validation():
    with pytest.raises(ValueError):
        model.SystemParams(n_ions=0)
    with pytest.raises(ValueError):
        model.SystemParams(n_ions=2, eta=-0.1)
    with pytest.raises(ValueError):
        model.SystemParams(n_ions=2, delta=-1.0)
    for name in ("eta", "omega_r", "omega_b", "delta"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError):
                model.SystemParams(n_ions=2, **{name: value})


def test_params_default_n_max():
    assert model.SystemParams(n_ions=4).n_max == 6
    assert model.SystemParams(n_ions=2, n_max=9).n_max == 9


def test_validity_flag():
    trusted = model.SystemParams(n_ions=4, omega_r=1, omega_b=1, delta=20)
    assert trusted.reduced_model_trusted
    untrusted = model.SystemParams(n_ions=4, omega_r=1, omega_b=1, delta=5)
    assert not untrusted.reduced_model_trusted


def test_reduced_matrix_two_ions():
    params = model.SystemParams(n_ions=2, omega_r=1, omega_b=1, delta=10)
    h = model.reduced_hamiltonian(params)
    s2 = np.sqrt(2)
    expected = np.array([[0, s2, 0], [s2, 10, s2], [0, s2, 0]])
    assert np.max(np.abs(h - expected)) < 1e-14


def test_reduced_matrix_symmetric_real():
    params = model.SystemParams(n_ions=6, omega_r=0.3, omega_b=1.7, delta=4.0)
    h = model.reduced_hamiltonian(params)
    assert np.array_equal(h, h.T)
    assert np.isrealobj(h)


def test_blue_off_leaves_ground_dark():
    params = model.SystemParams(n_ions=6, omega_r=1.3, omega_b=0.0, delta=8.0)
    h = model.reduced_hamiltonian(params)
    ground = np.zeros(7)
    ground[0] = 1.0
    assert np.max(np.abs(h @ ground)) == 0.0


def test_dark_vector_is_null_eigenvector():
    params = model.SystemParams(n_ions=4, omega_r=1.0, omega_b=1.0, delta=12.0)
    h = model.reduced_hamiltonian(params)
    psi = dark_coefficients(4, 1.0, 1.0).chain_vector
    assert np.linalg.norm(h @ psi) < 1e-10


def test_updown_symmetry_of_chain():
    # reversing the chain index swaps the roles of the two sidebands
    pa = model.SystemParams(n_ions=4, omega_r=0.4, omega_b=1.1, delta=6.0)
    pb = model.SystemParams(n_ions=4, omega_r=1.1, omega_b=0.4, delta=6.0)
    ha = model.reduced_hamiltonian(pa)
    hb = model.reduced_hamiltonian(pb)
    assert np.max(np.abs(ha[::-1, ::-1] - hb)) < 1e-14


def test_coupling_scale():
    params = model.SystemParams(n_ions=2, omega_r=1, omega_b=1, delta=10)
    h1 = model.reduced_hamiltonian(params, coupling_scale=1.0)
    h2 = model.reduced_hamiltonian(params, coupling_scale=0.5)
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(h2[off], h1[off] / 2)
    assert np.allclose(np.diag(h2), np.diag(h1))


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def test_full_zero_amplitudes_zero_matrix():
    params = model.SystemParams(n_ions=2, delta=10.0)
    assert np.max(np.abs(model.FullHamiltonian(params).at(0.3))) == 0.0


def test_full_hermitian_at_sampled_times():
    params = model.SystemParams(n_ions=3, omega_r=0.7, omega_b=1.2, delta=9.0)
    ham = model.FullHamiltonian(params)
    for t in (0.0, 0.17, 1.23, 7.7):
        h = ham.at(t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_full_red_matrix_element():
    params = model.SystemParams(n_ions=2, eta=0.8, omega_r=1.4, omega_b=0.0, delta=5.0)
    h = model.FullHamiltonian(params).at(0.0)
    n_levels = params.n_max + 1
    bra = np.zeros(3 * n_levels)
    bra[1 * n_levels + 0] = 1.0  # |D^1, 0>
    ket = np.zeros(3 * n_levels)
    ket[0 * n_levels + 1] = 1.0  # |D^0, 1>
    expected = params.eta * params.omega_r / 2 * np.sqrt(2) * 1.0
    assert np.vdot(bra, h @ ket) == pytest.approx(expected, rel=1e-12)


def test_full_periodicity():
    params = model.SystemParams(n_ions=2, omega_r=0.9, omega_b=0.4, delta=7.0)
    ham = model.FullHamiltonian(params)
    t = 0.31
    assert np.max(np.abs(ham.at(t + 2 * np.pi / params.delta) - ham.at(t))) < 1e-12


def test_full_n_max_guard():
    with pytest.raises(PhysicsConfigError):
        model.FullHamiltonian(model.SystemParams(n_ions=4, n_max=3))


def test_embed_and_frame_round_trip():
    chain = dark_coefficients(4, 1.0, 1.0).chain_vector
    params = model.SystemParams(n_ions=4, delta=11.0)
    full = model.embed_chain_state(chain, 4, params.n_max)
    assert np.linalg.norm(full) == pytest.approx(1.0, abs=1e-12)
    # dark states live at phonon vacuum, so the frame map is the identity
    shifted = model.interaction_to_chain_frame(full, 0.37, params)
    assert np.max(np.abs(shifted - full)) < 1e-15
