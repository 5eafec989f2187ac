import numpy as np
import pytest

from dickesim import certification as cert
from dickesim import measurement as meas
from dickesim import observables as obs
from dickesim.spin_algebra import dicke_state, half_excited_x, rotation_y, symmetric_isometry


def _binomial_profile_state():
    # pole state viewed along x: populations (1, 4, 6, 4, 1)/16
    return rotation_y(4, np.pi / 2) @ dicke_state(4, 0)


def test_shot_config_validation():
    with pytest.raises(ValueError):
        meas.ShotConfig(n_shots=0, seed=1)
    with pytest.raises(ValueError):
        meas.ShotConfig(n_shots=10, seed=-1)


def test_seeded_determinism():
    state = _binomial_profile_state()
    config = meas.ShotConfig(n_shots=10_000, seed=99)
    r1 = meas.sample_populations(state, config, "z")
    r2 = meas.sample_populations(state, config, "z")
    assert np.array_equal(r1.counts, r2.counts)
    assert int(np.sum(r1.counts)) == 10_000
    assert r1.generator == meas.GENERATOR_NAME


def test_streams_are_partitioned():
    config = meas.ShotConfig(n_shots=10, seed=4, stream=0)
    other = config.substream(1)
    a = config.generator().random(8)
    b = other.generator().random(8)
    assert not np.allclose(a, b)


def test_eigenstate_histogram_has_zero_variance():
    state = half_excited_x(4)
    rec = meas.sample_populations(state, meas.ShotConfig(n_shots=5000, seed=1), "x")
    assert rec.counts[2] == 5000
    assert np.all(rec.std_errors[[0, 1, 3, 4]] == 0.0)


def test_concentration_at_many_shots():
    state = half_excited_x(4)
    rec = meas.sample_populations(state, meas.ShotConfig(n_shots=10**6, seed=2), "x")
    assert abs(rec.frequencies[2] - 1.0) < 0.002


def test_convergence_rate_one_over_sqrt_n():
    state = _binomial_profile_state()
    exact = obs.populations_along(state, "z")
    for n_shots in (100, 10_000, 1_000_000):
        rec = meas.sample_populations(state, meas.ShotConfig(n_shots=n_shots, seed=31), "z")
        sigma = np.sqrt(exact * (1 - exact) / n_shots)
        assert np.all(np.abs(rec.frequencies - exact) <= 3 * sigma + 1e-12)


def test_azimuth_square_sampling():
    state = half_excited_x(4)
    mean, err = meas.sample_azimuth_square(state, meas.ShotConfig(n_shots=20_000, seed=8),
                                           np.pi / 2)
    assert mean == pytest.approx(3.0, abs=0.1)
    assert 0 < err < 0.05


def test_exact_mode_reproduces_certify_from_state():
    state = half_excited_x(4)
    config = meas.ShotConfig(n_shots=10, seed=0)
    rec = meas.simulated_experiment(state, config, exact=True)
    full = cert.certify_from_state(symmetric_isometry(4) @ state, "x")
    assert rec.witness_value == pytest.approx(full.witness_value, abs=1e-10)
    assert np.max(np.abs(rec.populations - full.populations)) < 1e-10
    assert rec.f_lower == pytest.approx(full.f_lower, abs=1e-10)
    assert rec.f_upper == pytest.approx(full.f_upper, abs=1e-10)


def test_simulated_experiment_rejects_other_sizes():
    with pytest.raises(ValueError):
        meas.simulated_experiment(dicke_state(2, 1), meas.ShotConfig(n_shots=10, seed=0))


def test_monte_carlo_calibration_ideal_state():
    # regression baseline: 5000 shots per setting certify the ideal state
    # with F_lo > 0.95 in at least 95 of 100 seeded repetitions
    state = half_excited_x(4)
    hits = 0
    for seed in range(100):
        rec = meas.simulated_experiment(state, meas.ShotConfig(n_shots=5000, seed=seed))
        if rec.f_lower > 0.95:
            hits += 1
    assert hits >= 95


def test_interval_width_at_paper_scale_shots():
    # ~625 shots gives binomial errors around 0.02, matching the published
    # +-0.03 uncertainty scale
    state = half_excited_x(4)
    rec = meas.simulated_experiment(state, meas.ShotConfig(n_shots=625, seed=12))
    assert rec.sigma_upper <= 0.04
    assert 0.005 <= rec.sigma_lower <= 0.06


def test_sampled_interval_covers_truth_for_imperfect_state():
    # mildly rotated state: exact bounds strictly bracket the true fidelity,
    # and sampled bounds stay within a few sigma of the exact ones
    state = rotation_y(4, 0.12) @ half_excited_x(4)
    target = half_excited_x(4)
    truth = obs.direct_fidelity(state, target)
    exact = meas.simulated_experiment(state, meas.ShotConfig(n_shots=10, seed=0), exact=True)
    assert exact.f_lower - 1e-12 <= truth <= exact.f_upper + 1e-12
    covered = 0
    for seed in range(50):
        rec = meas.simulated_experiment(state, meas.ShotConfig(n_shots=4000, seed=seed))
        if rec.f_lower - 3 * rec.sigma_lower <= truth <= rec.f_upper + 3 * rec.sigma_upper:
            covered += 1
    assert covered >= 47


def _two_ion_states():
    bell = np.array([1.0, 0.0, -1.0], dtype=complex) / np.sqrt(2)
    # partly dephased Bell state with some |D^1> admixture: a mixed state
    mixed = 0.8 * np.outer(bell, bell.conj()) + 0.15 * np.diag([0.5, 0.0, 0.5])
    mixed[1, 1] += 0.05
    return [bell, mixed]


@pytest.mark.parametrize("state", _two_ion_states(), ids=["ideal", "mixed"])
def test_sampled_parity_matches_exact_curve(state):
    phases = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    exact = obs.parity_scan(state, phases).parities
    config = meas.ShotConfig(n_shots=10**6, seed=2024)
    sampled = meas.sample_parities(exact, config)
    p_even = np.clip((1 + exact) / 2, 0.0, 1.0)
    sigma = 2 * np.sqrt(p_even * (1 - p_even) / config.n_shots)
    assert np.all(np.abs(sampled - exact) <= 5 * sigma + 1e-12)
    assert np.array_equal(sampled, meas.sample_parities(exact, config))
