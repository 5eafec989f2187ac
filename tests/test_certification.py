from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import certification as cert
from dickesim import observables as obs
from dickesim.spin_algebra import dicke_state_full, full_space_oracle, symmetric_isometry

PAPER_P = [0.00, 0.03, 0.88, 0.03, 0.03]
PAPER_SIG_P = [0.00, 0.02, 0.03, 0.02, 0.02]


def test_upper_bound_examples():
    assert cert.fidelity_upper(PAPER_P) == pytest.approx(0.88, abs=1e-15)
    assert cert.fidelity_upper([0.2] * 5) == pytest.approx(0.2, abs=1e-15)
    assert cert.fidelity_upper([0, 0, 1.0, 0, 0]) == 1.0


def test_lower_bound_on_published_numbers():
    lower = cert.fidelity_lower(5.46, PAPER_P, 2)
    # 5.46/4 - 0.5*0.88 - 1.25*0.06 - 0.5*0.03
    assert lower == pytest.approx(0.835, abs=1e-12)


def test_lower_bound_tight_on_target():
    assert cert.fidelity_lower(6.0, [0, 0, 1.0, 0, 0], 2) == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_vacuous_for_pole():
    # pole state along the bound axis: W = 0, all weight at the edge
    assert cert.fidelity_lower(0.0, [1.0, 0, 0, 0, 0], 2) <= 0.0


def test_bound_input_validation():
    with pytest.raises(ValueError):
        cert.fidelity_lower(1.0, [0.5, 0.5], 1)
    with pytest.raises(ValueError):
        cert.fidelity_lower(1.0, [0.2, -0.1, 0.9], 1)
    with pytest.raises(ValueError):
        cert.fidelity_sandwich_4ion(1.0, [0.2, 0.2, 0.2])


@settings(max_examples=200, deadline=None)
@given(
    w=st.floats(0, 6),
    p=st.lists(st.floats(0, 1), min_size=5, max_size=5),
)
def test_four_ion_form_equals_general(w, p):
    lo4, hi4 = cert.fidelity_sandwich_4ion(w, p)
    assert abs(lo4 - cert.fidelity_lower(w, p, 2)) < 1e-12
    assert abs(hi4 - cert.fidelity_upper(p)) < 1e-12


def test_lower_bound_linearity():
    base = cert.fidelity_lower(5.0, PAPER_P, 2)
    # increasing W raises the bound by 1/(2 jM) per unit
    assert cert.fidelity_lower(6.0, PAPER_P, 2) - base == pytest.approx(0.25, abs=1e-12)
    # increasing p_0 lowers it by (jM - 1)/2 per unit
    bumped = list(PAPER_P)
    bumped[2] += 0.1
    assert cert.fidelity_lower(5.0, bumped, 2) - base == pytest.approx(-0.05, abs=1e-12)
    assert cert.fidelity_upper(bumped) - cert.fidelity_upper(PAPER_P) == pytest.approx(0.1)


def test_ghz_exclusion():
    assert cert.ghz_excluded(0.84)
    assert not cert.ghz_excluded(0.74)
    assert cert.GHZ_DICKE_MAX_OVERLAP == 0.75


# ---------------------------------------------------------------------------
# uncertainty propagation
# ---------------------------------------------------------------------------

def test_propagation_zero_and_linearity():
    lo, hi = cert.propagate_uncertainty(2, 0.0, [0.0] * 5)
    assert lo == 0.0 and hi == 0.0
    lo1, hi1 = cert.propagate_uncertainty(2, 0.07, PAPER_SIG_P)
    lo2, hi2 = cert.propagate_uncertainty(2, 0.14, [2 * s for s in PAPER_SIG_P])
    assert lo2 == pytest.approx(2 * lo1, rel=1e-12)
    assert hi2 == pytest.approx(2 * hi1, rel=1e-12)


def test_propagation_consistent_with_published_error():
    lo, hi = cert.propagate_uncertainty(2, 0.07, PAPER_SIG_P)
    assert hi == pytest.approx(0.03, abs=1e-15)
    # correlations unreported; require agreement within a factor of 1.5
    assert 0.03 / 1.5 <= lo <= 0.03 * 1.5


def test_propagation_rejects_negative():
    with pytest.raises(ValueError):
        cert.propagate_uncertainty(2, -0.1, [0.0] * 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(bad):
    pops = [0.0, 0.03, 0.88, 0.03, 0.03]
    with pytest.raises(ValueError):
        cert.fidelity_lower(bad, pops, 2)
    with pytest.raises(ValueError):
        cert.fidelity_sandwich_4ion(bad, pops)
    with pytest.raises(ValueError):
        cert.fidelity_upper([0.0, bad, 0.88, 0.03, 0.03])
    with pytest.raises(ValueError):
        cert.propagate_uncertainty(2, bad, [0.0] * 5)
    with pytest.raises(ValueError):
        cert.propagate_uncertainty(2, 0.07, [0.0, 0.02, bad, 0.02, 0.02])


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


def test_certify_ideal_state_tight():
    rec = cert.certify_from_state(cert.half_excited_full(4, "x"), "x")
    assert rec.witness_value == pytest.approx(6.0, abs=1e-10)
    assert rec.f_lower == pytest.approx(1.0, abs=1e-9)
    assert rec.f_upper == pytest.approx(1.0, abs=1e-9)
    assert rec.ghz_excluded


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
        cert.CertificationRecord(
            j_max=2, axis="x", witness_value=5.0, populations=[0.5, 0.5],
            f_lower=0.0, f_upper=1.0,
        )


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
