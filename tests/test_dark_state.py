import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dickesim import model
from dickesim.dark_state import (
    chain_vector,
    closed_form_coefficients,
    dark_coefficients,
    jx_annihilation_check,
    normalized_amplitudes,
    verify_dark,
)


def test_two_ion_equal_amplitudes_is_bell():
    _, amplitudes = dark_coefficients(2, 1.0, 1.0)
    assert np.max(np.abs(amplitudes - np.array([1, -1]) / np.sqrt(2))) < 1e-12


def test_four_ion_equal_amplitudes_expansion():
    _, amplitudes = dark_coefficients(4, 1.0, 1.0)
    expected = np.array([np.sqrt(3 / 8), -np.sqrt(1 / 4), np.sqrt(3 / 8)])
    assert np.max(np.abs(amplitudes - expected)) < 1e-12


def test_blue_off_gives_ground_state():
    _, amplitudes = dark_coefficients(4, 1.7, 0.0)
    assert np.array_equal(amplitudes, [1.0, 0.0, 0.0])


def test_red_off_gives_top_state():
    _, amplitudes = dark_coefficients(4, 0.0, 0.9)
    assert np.array_equal(amplitudes, [0.0, 0.0, 1.0])


def test_single_sample_amplitudes_are_read_only():
    _, amplitudes = dark_coefficients(6, 0.37, 1.61)
    assert not amplitudes.flags.writeable


def test_coefficient_signs_alternate():
    coeffs = closed_form_coefficients(6)
    assert coeffs[0] == 1.0
    assert np.all(np.sign(coeffs) == [1, -1, 1, -1])


def test_normalization():
    _, amplitudes = dark_coefficients(6, 0.37, 1.61)
    assert np.sum(amplitudes**2) == pytest.approx(1.0, abs=1e-12)


def test_rejects_odd_and_degenerate_input():
    with pytest.raises(ValueError):
        dark_coefficients(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        dark_coefficients(4, 0.0, 0.0)
    with pytest.raises(ValueError):
        dark_coefficients(4, -1.0, 1.0)
    for omega_r, omega_b in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            dark_coefficients(4, omega_r, omega_b)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-6, 6), n=st.sampled_from([2, 4, 6]))
def test_scale_invariance_exact_for_binary_scales(k, n):
    c = 2.0**k
    base = dark_coefficients(n, 0.75, 1.25)[1]
    scaled = dark_coefficients(n, c * 0.75, c * 1.25)[1]
    assert np.array_equal(base, scaled)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.01, 100.0), n=st.sampled_from([2, 4, 6]))
def test_scale_invariance_general(c, n):
    base = dark_coefficients(n, 0.6, 1.4)[1]
    scaled = dark_coefficients(n, c * 0.6, c * 1.4)[1]
    assert np.max(np.abs(base - scaled)) < 1e-13


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(100.5, 101.5),
                          st.floats(-40.0, 0.0), st.booleans()), min_size=1, max_size=8))
def test_rescaled_tones_agree_between_stacked_and_single_calls(samples):
    # N = 8 tones near 2^+-101 take the branch that divides both tones by the
    # larger one (4 * |log2(big)| > 400), mixed in one stack with tones that
    # do not
    wr, wb = [0.75, 1e-3], [1.25, 2.0]
    for sign, exponent, ratio, red_larger in samples:
        big, small = 2.0 ** (sign * exponent), 2.0 ** (sign * exponent + ratio)
        wr.append(big if red_larger else small)
        wb.append(small if red_larger else big)
    norm_a, amplitudes = normalized_amplitudes(closed_form_coefficients(8), wr, wb)
    for k, (r, b) in enumerate(zip(wr, wb)):
        single = dark_coefficients(8, r, b)
        assert norm_a[k:k + 1].view(np.uint64)[0] == np.float64(single[0]).view(np.uint64)
        assert np.array_equal(amplitudes[k].view(np.uint64), single[1].view(np.uint64))
        big = max(r, b)
        if k >= 2:  # the rescaled state is the state at the divided tones
            assert 4 * abs(np.log2(big)) > 400
            unit = dark_coefficients(8, r / big, b / big)
            assert np.array_equal(single[1], unit[1])
            assert single[0] == pytest.approx(unit[0] * big**-4.0, rel=1e-15)


def test_rescale_factor_past_the_float_range_is_inf():
    # A = |raw|^-1 * big^-4 overflows at big = 2^-300: numpy's scalar power
    # gives inf there, where a Python float power would raise OverflowError
    norm_a, amplitudes = dark_coefficients(8, 2.0**-300, 2.0**-301)
    assert norm_a == np.inf
    assert np.array_equal(amplitudes, dark_coefficients(8, 1.0, 0.5)[1])


def test_residual_on_amplitude_grid():
    grid = np.linspace(0.2, 2.0, 10)
    for n in (2, 6):
        for wr in grid:
            for wb in grid:
                params = model.SystemParams(n_ions=n, delta=9.0)
                h = model.reduced_hamiltonian(params, wr, wb)
                assert verify_dark(chain_vector(dark_coefficients(n, wr, wb)[1]), h) < 1e-10


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6, 8]),
    omega_r=st.floats(0.0, 1e300),
    omega_b=st.floats(0.0, 1e300),
    delta=st.floats(0.0, 1e300),
)
def test_dark_state_is_a_kernel_vector_at_random_drives(n, omega_r, omega_b, delta):
    assume(omega_r > 0 or omega_b > 0)
    h = model.reduced_hamiltonian(model.SystemParams(n_ions=n, delta=delta), omega_r, omega_b)
    _, amplitudes = dark_coefficients(n, omega_r, omega_b)
    assert np.sum(amplitudes**2) == pytest.approx(1.0, abs=1e-12)
    # the residual scales with the drive, whatever delta; products of
    # subnormal rates round to the nearest 5e-324
    assert verify_dark(chain_vector(amplitudes), h) <= 1e-12 * max(omega_r, omega_b) + 1e-300


def test_perturbed_state_fails_residual():
    params = model.SystemParams(n_ions=4, delta=9.0)
    h = model.reduced_hamiltonian(params, 1, 1)
    _, good = dark_coefficients(4, 1.0, 1.0)
    vec = chain_vector(good)
    vec[1] += 0.01  # populate the one-phonon slot
    assert np.linalg.norm(h @ vec) > 1e-3


def test_verify_dark_dimension_mismatch():
    params = model.SystemParams(n_ions=6, delta=9.0)
    h = model.reduced_hamiltonian(params, 1, 1)
    with pytest.raises(ValueError):
        verify_dark(chain_vector(dark_coefficients(4, 1.0, 1.0)[1]), h)


@pytest.mark.parametrize("n", [2, 4, 6, 12, 20])
def test_jx_annihilation(n):
    assert jx_annihilation_check(n) < 1e-10


def test_kernel_is_one_dimensional():
    for n in (2, 4, 6):
        params = model.SystemParams(n_ions=n, delta=5.0)
        h = model.reduced_hamiltonian(params, 0.8, 1.3)
        rank = np.linalg.matrix_rank(h, tol=1e-12)
        assert rank == n  # exactly one null direction
        vals, vecs = np.linalg.eigh(h)
        kernel = vecs[:, np.abs(vals) < 1e-10]
        assert kernel.shape[1] == 1
        overlap = abs(np.vdot(kernel[:, 0], chain_vector(dark_coefficients(n, 0.8, 1.3)[1])))
        assert overlap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_ions", [2, 4, 6, 8, 10])
def test_dark_state_is_the_jz_squeezed_jx_null_state(n_ions):
    # the dark state is exp(r Jz)|Jx = 0>, normalised, with
    # r = ln tan(theta/2) = ln(Omega_b/Omega_r)/2 at the mixing angle theta
    m = np.arange(n_ions)
    lower = np.diag(np.sqrt((n_ions - m) * (m + 1.0)), -1)  # J+ on the Dicke levels
    values, vectors = np.linalg.eigh((lower + lower.T) / 2)
    null = vectors[:, np.argmin(np.abs(values))]
    jz = np.arange(n_ions + 1) - n_ions / 2
    for theta in np.linspace(0.05, np.pi - 0.05, 41):
        omega_r, omega_b = 1 + np.cos(theta), 1 - np.cos(theta)
        r = np.log(np.tan(theta / 2))
        assert r == pytest.approx(np.log(omega_b / omega_r) / 2, abs=1e-12)
        squeezed = np.exp(r * jz) * null
        squeezed /= np.linalg.norm(squeezed)
        _, amplitudes = dark_coefficients(n_ions, omega_r, omega_b)
        assert 1 - abs(np.vdot(squeezed, chain_vector(amplitudes))) ** 2 <= 1e-12
