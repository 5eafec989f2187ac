from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import certification as cert
from dickesim import observables as obs
from dickesim.spin_algebra import (dicke_state_full, full_space_oracle, hamming_weights,
                                   projections, symmetric_isometry)

PAPER_P = [0.00, 0.03, 0.88, 0.03, 0.03]
PAPER_SIG_P = [0.00, 0.02, 0.03, 0.02, 0.02]


def test_upper_bound_examples():
    assert cert.fidelity_upper(PAPER_P) == pytest.approx(0.88, abs=1e-15)
    assert cert.fidelity_upper([0.2] * 5) == pytest.approx(0.2, abs=1e-15)
    assert cert.fidelity_upper([0, 0, 1.0, 0, 0]) == 1.0


def test_lower_bound_on_published_numbers():
    lower = cert.fidelity_lower(5.46, PAPER_P)
    # 5.46/4 - 0.5*0.88 - 1.25*0.06 - 0.5*0.03
    assert lower == pytest.approx(0.835, abs=1e-12)


def test_lower_bound_tight_on_target():
    assert cert.fidelity_lower(6.0, [0, 0, 1.0, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_vacuous_for_pole():
    # pole state along the bound axis: W = 0, all weight at the edge
    assert cert.fidelity_lower(0.0, [1.0, 0, 0, 0, 0]) <= 0.0


def test_bound_input_validation():
    with pytest.raises(ValueError):
        cert.fidelity_lower(1.0, [0.5, 0.5])
    with pytest.raises(ValueError):
        cert.fidelity_lower(1.0, [0.2, -0.1, 0.9])
    with pytest.raises(ValueError):
        cert.fidelity_sandwich_4ion(1.0, [0.2, 0.2, 0.2])


@settings(max_examples=200, deadline=None)
@given(
    w=st.floats(0, 6),
    p=st.lists(st.floats(0, 1), min_size=5, max_size=5),
)
def test_four_ion_form_equals_general(w, p):
    lo4, hi4 = cert.fidelity_sandwich_4ion(w, p)
    assert abs(lo4 - cert.fidelity_lower(w, p)) < 1e-12
    assert abs(hi4 - cert.fidelity_upper(p)) < 1e-12


def test_lower_bound_linearity():
    base = cert.fidelity_lower(5.0, PAPER_P)
    # increasing W raises the bound by 1/(2 jM) per unit
    assert cert.fidelity_lower(6.0, PAPER_P) - base == pytest.approx(0.25, abs=1e-12)
    # increasing p_0 lowers it by (jM - 1)/2 per unit
    bumped = list(PAPER_P)
    bumped[2] += 0.1
    assert cert.fidelity_lower(5.0, bumped) - base == pytest.approx(-0.05, abs=1e-12)
    assert cert.fidelity_upper(bumped) - cert.fidelity_upper(PAPER_P) == pytest.approx(0.1)


def test_ghz_exclusion():
    assert cert.ghz_excluded(0.84)
    assert not cert.ghz_excluded(0.74)
    assert cert.GHZ_DICKE_MAX_OVERLAP == 0.75


# ---------------------------------------------------------------------------
# uncertainty propagation
# ---------------------------------------------------------------------------

def test_propagation_zero_and_linearity():
    lo, hi = cert.propagate_uncertainty(0.0, [0.0] * 5)
    assert lo == 0.0 and hi == 0.0
    lo1, hi1 = cert.propagate_uncertainty(0.07, PAPER_SIG_P)
    lo2, hi2 = cert.propagate_uncertainty(0.14, [2 * s for s in PAPER_SIG_P])
    assert lo2 == pytest.approx(2 * lo1, rel=1e-12)
    assert hi2 == pytest.approx(2 * hi1, rel=1e-12)


def test_propagation_consistent_with_published_error():
    lo, hi = cert.propagate_uncertainty(0.07, PAPER_SIG_P)
    assert hi == pytest.approx(0.03, abs=1e-15)
    # correlations unreported; require agreement within a factor of 1.5
    assert 0.03 / 1.5 <= lo <= 0.03 * 1.5


def test_j_max_is_read_from_the_population_length():
    # jM = (len - 1)/2 of an odd-length vector; an even or a too short one
    # is refused, not an IndexError or a division by zero
    for n_values in (4, 2, 1, 0):
        with pytest.raises(ValueError, match="odd-length"):
            cert.fidelity_lower(5.46, [0.2] * n_values)
        with pytest.raises(ValueError, match="odd-length"):
            cert.propagate_uncertainty(0.07, [0.01] * n_values)
        with pytest.raises(ValueError, match="odd-length"):
            cert.CertificationRecord(witness_value=5.0, populations=[0.2] * n_values)
    # jM = 1: W/2 - (p_-1 + p_1)/2, and sigma_lo^2 = (sigma_W/2)^2 + (sigma_-1^2 + sigma_1^2)/4
    assert cert.fidelity_lower(1.5, [0.25, 0.5, 0.25]) == pytest.approx(0.5, abs=1e-12)
    lo, hi = cert.propagate_uncertainty(0.2, [0.04, 0.03, 0.04])
    assert lo == pytest.approx(np.sqrt(0.01 + 0.0008), abs=1e-12) and hi == 0.03


def _bounds_from_written_out_coefficients(witness, pops, sigma_witness, sig):
    """The lower bound and its sigma, each building its own coefficients."""
    j_max = len(pops) // 2
    jz = projections(2 * j_max)
    bound = witness / (2 * j_max) - (j_max - 1) / 2 * pops[j_max]
    off_center = jz != 0
    bound -= np.sum(((j_max + 1) / 2 - jz[off_center] ** 2 / (2 * j_max)) * pops[off_center])
    coeffs = (j_max + 1) / 2 - jz**2 / (2 * j_max)
    coeffs[j_max] = (j_max - 1) / 2
    var_lower = (sigma_witness / (2 * j_max)) ** 2 + np.sum((coeffs * sig) ** 2)
    return float(bound), float(np.sqrt(var_lower))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_one_coefficient_vector_gives_the_written_out_bounds_bit_for_bit(j_max, seed):
    rng = np.random.default_rng(seed)
    pops, sig = rng.dirichlet(np.ones(2 * j_max + 1)), rng.uniform(0, 0.05, 2 * j_max + 1)
    witness = rng.uniform(0, j_max * (j_max + 1))
    lower, sigma_lower = _bounds_from_written_out_coefficients(witness, pops, 0.07, sig)
    assert cert.fidelity_lower(witness, pops) == lower
    assert cert.propagate_uncertainty(0.07, sig)[0] == sigma_lower
    coeffs = cert._lower_coefficients(j_max)
    assert coeffs is cert._lower_coefficients(j_max) and not coeffs.flags.writeable


def test_propagation_rejects_negative():
    with pytest.raises(ValueError):
        cert.propagate_uncertainty(-0.1, [0.0] * 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(bad):
    pops = [0.0, 0.03, 0.88, 0.03, 0.03]
    with pytest.raises(ValueError):
        cert.fidelity_lower(bad, pops)
    with pytest.raises(ValueError):
        cert.fidelity_sandwich_4ion(bad, pops)
    with pytest.raises(ValueError):
        cert.fidelity_upper([0.0, bad, 0.88, 0.03, 0.03])
    with pytest.raises(ValueError):
        cert.propagate_uncertainty(bad, [0.0] * 5)
    with pytest.raises(ValueError):
        cert.propagate_uncertainty(0.07, [0.0, 0.02, bad, 0.02, 0.02])


# ---------------------------------------------------------------------------
# certification from states
# ---------------------------------------------------------------------------

def test_target_states_are_zero_projection_eigenvectors():
    for n in (2, 4):
        ops = {axis: full_space_oracle(n, "j" + axis) for axis in "xyz"}
        for axis in "xyz":
            target = cert.half_excited_full(n, axis)
            assert np.linalg.norm(ops[axis] @ target) < 1e-12
            j2 = sum(o @ o for o in ops.values())
            jm = n / 2
            assert np.vdot(target, j2 @ target).real == pytest.approx(jm * (jm + 1), abs=1e-10)


def test_half_excited_full_matches_symmetric_sector():
    iso = symmetric_isometry(4)
    from dickesim.spin_algebra import half_excited_x

    assert np.max(np.abs(cert.half_excited_full(4, "x") - iso @ half_excited_x(4))) < 1e-12


def _on_each_qubit_transposing(x, op, n_ions):
    """The qubit passes as before they were made copy-free: each pass
    returns the transposed product, which the next reshape copies."""
    for _ in range(n_ions):
        x = (op @ x.reshape(op.shape[1], -1)).T
    return x.reshape(-1)


@pytest.mark.parametrize("n_ions", range(1, 9))
def test_qubit_passes_agree_with_the_transposing_form(n_ions):
    vec = cert.haar_random_pure(2**n_ions, np.random.default_rng(n_ions))
    for axis in "xyz":
        u = cert._qubit_rotations(axis)
        got = cert._on_each_qubit(vec, u, n_ions)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - _on_each_qubit_transposing(vec, u, n_ions))) <= 1e-14


def _density_populations_by_passes(rho, n_ions, axis):
    """A density matrix's populations along ``axis`` as they were computed
    before the Hamming-distance sums: each qubit's row and column bit are
    interleaved into one index of size 4, and N passes of the 4 -> 2 map
    m[k, 2i + j] = u[k, i] conj(u[k, j]) give the probabilities."""
    u = cert._qubit_rotations(axis)
    m = (u[:, :, None] * u.conj()[:, None, :]).reshape(2, 4)
    pairs = rho.reshape((2,) * (2 * n_ions)).transpose(
        [a for q in range(n_ions) for a in (q, n_ions + q)]).reshape(-1)
    probs = _on_each_qubit_transposing(pairs, m, n_ions).real
    return np.bincount(hamming_weights(n_ions), weights=probs, minlength=n_ions + 1)


@pytest.mark.parametrize("n_ions", range(1, 9))
def test_krawtchouk_matrix(n_ions):
    k = cert._krawtchouk(n_ions)
    assert np.array_equal(k @ k, 2**n_ions * np.eye(n_ions + 1))
    assert np.array_equal(k[0], np.ones(n_ions + 1))
    assert np.array_equal(k[:, 0], [comb(n_ions, j) for j in range(n_ions + 1)])
    assert not k.flags.writeable


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    components=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_density_populations_match_the_qubit_passes(n, components, seed):
    rho = cert.random_mixture(2**n, components, np.random.default_rng(seed))
    got = cert._projection_populations(rho, n)
    assert list(got) == list("xyz")
    for axis, pops in got.items():
        assert np.max(np.abs(pops - _density_populations_by_passes(rho, n, axis))) < 1e-14


def test_density_populations_take_any_memory_layout():
    # the float view needs a C-contiguous matrix; other layouts are copied
    rho = cert.random_mixture(64, 3, np.random.default_rng(11))
    strided = np.zeros((64, 128), dtype=complex)
    strided[:, ::2] = rho
    expected = cert._projection_populations(rho, 6)
    for layout in (np.asfortranarray(rho), strided[:, ::2]):
        got = cert._projection_populations(layout, 6)
        assert all(got[axis].tobytes() == expected[axis].tobytes() for axis in "xyz")
    got, expected = cert.certify_from_state(strided[:, ::2]), cert.certify_from_state(rho)
    assert got.witness_value == expected.witness_value
    assert got.populations.tobytes() == expected.populations.tobytes()


def test_distance_keys_are_a_typed_read_only_table():
    assert cert._distance_keys.cache_parameters()["typed"]
    keys = cert._distance_keys(3)
    assert not keys.flags.writeable
    assert keys.dtype == np.intp  # what bincount reads without a copy
    weights = hamming_weights(3)
    for i in range(8):
        for j in range(8):
            key = 4 * bin(i ^ j).count("1") + (weights[i] - weights[j]) % 4
            assert keys[2 * (8 * i + j)] == 2 * key and keys[2 * (8 * i + j) + 1] == 2 * key + 1


def test_certify_ideal_state_tight():
    rec = cert.certify_from_state(cert.half_excited_full(4, "x"), "x")
    assert rec.witness_value == pytest.approx(6.0, abs=1e-10)
    assert rec.f_lower == pytest.approx(1.0, abs=1e-9)
    assert rec.f_upper == pytest.approx(1.0, abs=1e-9)
    assert cert.ghz_excluded(rec.f_lower)


def test_certify_along_z():
    rec = cert.certify_from_state(dicke_state_full(4, 2), "z")
    assert rec.f_lower == pytest.approx(1.0, abs=1e-9)
    assert rec.populations[2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 6])
def test_sandwich_on_random_states_other_sizes(n):
    target = cert.half_excited_full(n, "x")
    for seed in range(10):
        state = cert.haar_random_pure(2**n, np.random.default_rng(seed))
        rec = cert.certify_from_state(state, "x")
        fid = obs.direct_fidelity(state, target)
        assert rec.f_lower - 1e-9 <= fid <= rec.f_upper + 1e-9
        mixed = cert.random_mixture(2**n, 6, np.random.default_rng(seed + 100))
        rec = cert.certify_from_state(mixed, "x")
        fid = obs.direct_fidelity(mixed, target)
        assert rec.f_lower - 1e-9 <= fid <= rec.f_upper + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6]),
    axis=st.sampled_from("xyz"),
    components=st.integers(1, 8),
    target_weight=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sandwich_holds_on_random_states(n, axis, components, target_weight, seed):
    # pure states, mixtures of `components` pure states, and their blends
    # with the target, where the bounds close in on F = 1
    rng = np.random.default_rng(seed)
    target = cert.half_excited_full(n, axis)
    if components == 1:
        state = cert.haar_random_pure(2**n, rng)
        state = np.sqrt(target_weight) * target + np.sqrt(1 - target_weight) * state
        state /= np.linalg.norm(state)
    else:
        state = cert.random_mixture(2**n, components, rng)
        state = target_weight * np.outer(target, target.conj()) + (1 - target_weight) * state
    rec = cert.certify_from_state(state, axis)
    fid = obs.direct_fidelity(state, target)
    assert rec.f_lower - 1e-9 <= fid <= rec.f_upper + 1e-9


@lru_cache(maxsize=None)
def _eigh_projectors(n, axis):
    vals, vecs = np.linalg.eigh(full_space_oracle(n, "j" + axis))
    return np.rint(vals + n / 2).astype(int), vecs


def eigh_populations(state, n, axis):
    """Populations of J_axis = m - N/2 from the eigenvectors of the 2^N
    oracle, independent of the per-qubit rotation in the library."""
    excitations, vecs = _eigh_projectors(n, axis)
    if state.ndim == 1:
        probs = np.abs(vecs.conj().T @ state) ** 2
    else:
        probs = np.einsum("ik,ij,jk->k", vecs.conj(), state, vecs).real
    return np.bincount(excitations, weights=probs, minlength=n + 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6, 8]),
    axis=st.sampled_from("xyz"),
    components=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_certify_matches_eigh_oracle(n, axis, components, seed):
    rng = np.random.default_rng(seed)
    if components == 1:
        state = cert.haar_random_pure(2**n, rng)
        rho = np.outer(state, state.conj())
    else:
        state = rho = cert.random_mixture(2**n, components, rng)
    rec = cert.certify_from_state(state, axis)
    assert np.max(np.abs(rec.populations - eigh_populations(state, n, axis))) < 1e-12
    witness = sum(full_space_oracle(n, "j" + b) @ full_space_oracle(n, "j" + b)
                  for b in cert.AXIS_COMPLEMENTS[axis])
    assert abs(rec.witness_value - np.trace(rho @ witness).real) < 1e-12


def test_unnormalized_states_are_refused():
    # 2*psi certified as F_lo = F_hi = 4.0, and I/8 on four ions (trace 2)
    # as F_lo = -0.75 and F_hi = 0.75; the direct fidelity of 2*psi was 4.0
    target = cert.half_excited_full(4, "x")
    for state, value in ((2 * target, r"\|psi\|\^2 4.0"), (np.eye(16) / 8, "trace 2.0")):
        with pytest.raises(ValueError, match=value):
            cert.certify_from_state(state, "x")
        with pytest.raises(ValueError, match=value):
            obs.direct_fidelity(state, target)
    # the target is read as a pure state too: 2*t gave 4.000000000000002
    with pytest.raises(ValueError, match=r"\|psi\|\^2 4.0"):
        obs.direct_fidelity(target, 2 * target)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**32 - 1),
    excess=st.floats(-2 * obs.NORM_TOL, 2 * obs.NORM_TOL).filter(
        lambda e: abs(abs(e) - obs.NORM_TOL) >= 1e-12),
)
def test_one_probability_rule_from_readout_to_certification(n, seed, excess):
    # a vector and its density matrix of total probability 1 + excess get
    # one verdict, and every state that check_normalized accepts is certified
    state = cert.haar_random_pure(2**n, np.random.default_rng(seed)) * np.sqrt(1 + excess)
    for form in (state, np.outer(state, state.conj())):
        if abs(excess) > obs.NORM_TOL:
            with pytest.raises(ValueError, match=r"(\|psi\|\^2|trace) .* is not 1"):
                obs.check_normalized(form)
            continue
        obs.check_normalized(form)
        for axis in "xyz":
            assert isinstance(cert.certify_from_state(form, axis), cert.CertificationRecord)


def test_a_state_within_norm_tol_is_certified():
    # the populations of |psi|^2 = 1 + 2e-9 were refused above 1 + 1e-12
    rec = cert.certify_from_state(cert.half_excited_full(4, "z") * (1 + 1e-9), "z")
    assert rec.f_upper == 1.0000000020000004


def test_a_non_square_state_is_refused_by_its_shape():
    # a (3, 4) or (16, 8) array is refused by its shape, not by its trace
    for refuse, state in ((obs.witness, np.ones((3, 4)) / 12),
                          (cert.certify_from_state, np.ones((16, 8)) / 16)):
        with pytest.raises(ValueError, match=r"vector or square matrix, got shape"):
            refuse(state)


def test_populations_above_one_are_refused():
    # the same NORM_TOL slack above 1 as below 0; a sum below 1 stays accepted
    assert cert.fidelity_upper([0.0, 0.0, 1 + 1e-13, 0.0, 0.0]) == 1 + 1e-13
    assert cert.fidelity_upper([0.0, 0.0, 0.5, 0.0, 0.0]) == 0.5
    for pops in ([0.0, 0.0, 3.0, 0.0, 0.0], [0.0, 0.0, 1 + 2e-8, 0.0, 0.0], [-2e-8, 0, 1, 0, 0]):
        with pytest.raises(ValueError, match=r"populations must lie in \[0, 1\]"):
            cert.fidelity_upper(pops)
        with pytest.raises(ValueError, match=r"populations must lie in \[0, 1\]"):
            cert.CertificationRecord(witness_value=5.0, populations=pops)


def test_certify_validation():
    with pytest.raises(ValueError):
        cert.certify_from_state(np.ones(5) / np.sqrt(5), "x")   # not a qubit space
    with pytest.raises(ValueError):
        cert.certify_from_state(dicke_state_full(4, 2), "w")
    with pytest.raises(ValueError):
        cert.certify_from_state(np.ones(8) / np.sqrt(8), "x")   # odd ion number
    with pytest.raises(ValueError):
        cert.certify_from_state(np.ones((4, 2, 2)) / 4, "x")    # neither vector nor matrix


def test_record_population_length_validation():
    with pytest.raises(ValueError):
        cert.CertificationRecord(witness_value=5.0, populations=[0.5, 0.5])


def _words(*values):
    """The float64 words of ``values``, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    j_max=st.integers(1, 4),
    witness=st.floats(-10, 20),
    with_sigmas=st.booleans(),
)
def test_record_derives_what_the_bound_functions_give(data, j_max, witness, with_sigmas):
    # 3, 5, 7 or 9 populations; every derived field is the functions' word
    n = 2 * j_max + 1
    pops = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    sigmas = {}
    if with_sigmas:
        sigmas = dict(sigma_witness=data.draw(st.floats(0, 1)),
                      sigma_populations=data.draw(st.lists(st.floats(0, 1),
                                                           min_size=n, max_size=n)))
    rec = cert.CertificationRecord(witness_value=witness, populations=pops, **sigmas)
    assert _words(rec.f_lower, rec.f_upper) == _words(cert.fidelity_lower(witness, pops),
                                                      cert.fidelity_upper(pops))
    if with_sigmas:
        expected = cert.propagate_uncertainty(sigmas["sigma_witness"], sigmas["sigma_populations"])
        assert _words(rec.sigma_lower, rec.sigma_upper) == _words(*expected)
    else:
        assert rec.sigma_lower is None and rec.sigma_upper is None
    assert _words(*rec.populations) == _words(*pops)


def test_record_takes_only_what_was_measured():
    with pytest.raises(TypeError):
        cert.CertificationRecord(witness_value=5.46, populations=PAPER_P, f_lower=0.9)
    for only_one in (dict(sigma_witness=0.07), dict(sigma_populations=PAPER_SIG_P)):
        with pytest.raises(ValueError, match="both standard errors"):
            cert.CertificationRecord(witness_value=5.46, populations=PAPER_P, **only_one)
    with pytest.raises(ValueError, match="shape"):
        cert.CertificationRecord(witness_value=5.46, populations=PAPER_P, sigma_witness=0.07,
                                 sigma_populations=[0.01, 0.02, 0.01])


def test_random_mixture_is_density_matrix():
    rho = cert.random_mixture(16, 8, 7)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    vals = np.linalg.eigvalsh(rho)
    assert np.all(vals > -1e-12)


def test_random_mixture_matches_outer_product_sum():
    # the draw order is the Dirichlet weights, then one Haar vector per weight
    rng = np.random.default_rng(7)
    weights = rng.dirichlet(np.ones(5))
    vecs = [cert.haar_random_pure(64, rng) for _ in weights]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    assert np.max(np.abs(cert.random_mixture(64, 5, 7) - rho)) < 1e-15
