import hashlib
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import certification as cert
from dickesim import measurement as meas
from dickesim import observables as obs
from dickesim.spin_algebra import (dicke_state, half_excited_x, projections, rotation_y,
                                   symmetric_isometry)


def _binomial_profile_state():
    # pole state viewed along x: populations (1, 4, 6, 4, 1)/16
    return rotation_y(4, np.pi / 2) @ dicke_state(4, 0)


def test_shot_config_validation():
    with pytest.raises(ValueError):
        meas.ShotConfig(n_shots=0, seed=1)
    with pytest.raises(ValueError):
        meas.ShotConfig(n_shots=10, seed=-1)


def test_shot_config_refuses_more_shots_than_a_draw_takes():
    # numpy's multinomial takes the shot count as a C long
    assert meas.MAX_SHOTS == 2**63 - 1
    assert meas.ShotConfig(n_shots=meas.MAX_SHOTS, seed=1).n_shots == meas.MAX_SHOTS
    with pytest.raises(ValueError,
                       match=re.escape(f"n_shots must be an integer in [1, {meas.MAX_SHOTS}]")):
        meas.ShotConfig(n_shots=meas.MAX_SHOTS + 1, seed=1)


def test_an_integral_float_key_draws_its_integer_s_counts():
    config = meas.ShotConfig(1000.0, seed=2.0, stream=3.0)
    assert [type(v) for v in (config.n_shots, config.seed, config.stream)] == [int] * 3
    assert config == meas.ShotConfig(1000, seed=2, stream=3)
    assert type(config.substream(1.0).stream) is int
    state = half_excited_x(4)
    drawn = meas.sample_populations(state, config, "z")
    assert (drawn.seed, drawn.stream) == (2, 3)
    assert np.array_equal(drawn.counts, meas.sample_populations(
        state, meas.ShotConfig(1000, seed=2, stream=3), "z").counts)


def test_seeded_determinism():
    state = _binomial_profile_state()
    config = meas.ShotConfig(n_shots=10_000, seed=99)
    r1 = meas.sample_populations(state, config, "z")
    r2 = meas.sample_populations(state, config, "z")
    assert np.array_equal(r1.counts, r2.counts)
    assert int(np.sum(r1.counts)) == 10_000
    assert (r1.seed, r1.stream) == (99, 0)


def test_record_derives_its_shots_frequencies_and_errors_from_the_counts():
    counts = np.array([3, 0, 7, 10, 0])
    rec = meas.MeasurementRecord(counts=counts, seed=5, stream=2)
    freq = counts / 20
    assert rec.n_shots == 20 and type(rec.n_shots) is int
    assert rec.frequencies.tobytes() == freq.tobytes()
    assert rec.std_errors.tobytes() == np.sqrt(freq * (1 - freq) / 20).tobytes()
    assert not rec.counts.flags.writeable and not rec.frequencies.flags.writeable
    with pytest.raises(TypeError):
        meas.MeasurementRecord(counts=counts, seed=5, stream=2, frequencies=freq)


def test_sampled_parity_curve_refuses_phases_that_reach_the_population_stream(monkeypatch):
    # phase k draws on substream 100 + k and the z populations on 10,000
    monkeypatch.setattr(meas, "_draw", lambda *args: pytest.fail("drew before refusing"))
    config = meas.ShotConfig(n_shots=10, seed=1)
    with pytest.raises(ValueError, match="at most 9900 phases, got 9901"):
        meas.sample_parity_curve(dicke_state(2, 1), 9901, config)


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
    # the middle of three azimuths over [0, pi] is pi/2
    [mean], [err] = meas._sample_squares(obs.populations_azimuth(state, 3)[1:2],
                                         meas.ShotConfig(n_shots=20_000, seed=8))
    assert mean == pytest.approx(3.0, abs=0.1)
    assert 0 < err < 0.05


def _lifted_record(state):
    """Exact certification record of a symmetric-sector vector or density matrix."""
    iso = symmetric_isometry(len(state) - 1)
    lifted = iso @ state if state.ndim == 1 else iso @ state @ iso.conj().T
    return cert.certify_from_state(lifted, "x")


def _noisy_target(n_ions, noise):
    target = half_excited_x(n_ions)
    return ((1 - noise) * np.outer(target, target.conj())
            + noise * np.eye(n_ions + 1) / (n_ions + 1))


def test_simulated_experiment_agrees_with_certify_from_state():
    # at 10^6 shots per setting the sampled record sits within five of its
    # own standard errors of the exact record of the lifted state, at every
    # even N the pipeline takes
    states = [rotation_y(4, angle) @ half_excited_x(4) for angle in (0.0, 0.12)]
    for state in (*states, *(_noisy_target(n, 0.1) for n in (2, 6, 8))):
        exact = _lifted_record(state)
        rec = meas.simulated_experiment(state, meas.ShotConfig(n_shots=10**6, seed=3))
        assert abs(rec.witness_value - exact.witness_value) <= 5 * rec.sigma_witness
        assert np.all(np.abs(rec.populations - exact.populations)
                      <= 5 * rec.sigma_populations + 1e-12)
        assert abs(rec.f_lower - exact.f_lower) <= 5 * rec.sigma_lower
        assert abs(rec.f_upper - exact.f_upper) <= 5 * rec.sigma_upper + 1e-12


def _sample_square(probs, config):
    # the per-setting estimate that simulated_experiment made before its
    # settings were stacked, kept as its reference
    squares = projections(len(probs) - 1) ** 2
    counts = meas._draw(meas._normalized(probs), config)
    mean = float(np.sum(counts * squares) / config.n_shots)
    var = np.sum(counts * (squares - mean) ** 2) / max(config.n_shots - 1, 1)
    return mean, float(np.sqrt(var / config.n_shots))


def _experiment_per_setting(state, config):
    """simulated_experiment's earlier loop, one setting at a time: its
    record and the (mean, error) scan over the 13 azimuths."""
    state = np.asarray(state, dtype=complex)
    pop_rec = meas.sample_populations(state, config.substream(0), "x")
    jz2_mean, jz2_err = _sample_square(obs.populations_along(state, "z"), config.substream(1))
    azimuth_pops = obs.populations_azimuth(state, 13)
    scan = [_sample_square(probs, config.substream(2 + k))
            for k, probs in enumerate(azimuth_pops)]
    jy2_mean, jy2_err = max(scan, key=lambda ms: ms[0])
    record = cert.CertificationRecord(witness_value=float(jy2_mean + jz2_mean),
                                      populations=pop_rec.frequencies,
                                      sigma_witness=float(np.hypot(jy2_err, jz2_err)),
                                      sigma_populations=pop_rec.std_errors)
    return record, scan


def _record_bits(record):
    return tuple(value.tobytes() if isinstance(value, np.ndarray) else float(value).hex()
                 for value in vars(record).values())


#: shot counts beyond the 1-20 that every seed also draws
_EXPERIMENT_SHOTS = (21, 50, 100, 625, 1000, 5000, 12_345, 10**5, 10**6)


def test_stacked_experiment_equals_the_per_setting_loop_bit_for_bit():
    # 200 seeds, each at 1-20 shots and at one larger count, on a noisy
    # target (the benchmark's states), a random vector and a random mixture;
    # at a few shots the sampled azimuth means tie, and the first of them
    # must win as it did in the loop; the records' hash was taken when the
    # pipeline took N = 4 alone, and taking every even N moved none of its bits
    rng = np.random.default_rng(2030)
    digest = hashlib.sha256()
    ties_with_other_errors = 0
    for seed in range(200):
        noise = rng.uniform(0.0, 0.3)
        vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        states = [_noisy_target(4, noise), vecs[0],
                  0.7 * np.outer(vecs[1], vecs[1].conj()) + 0.3 * np.outer(vecs[2], vecs[2].conj())]
        for state, shots in zip(states, (1 + seed % 20, _EXPERIMENT_SHOTS[seed % 9], 1 + seed % 7)):
            config = meas.ShotConfig(n_shots=shots, seed=seed, stream=seed % 3)
            expected, scan = _experiment_per_setting(state, config)
            assert _record_bits(meas.simulated_experiment(state, config)) == _record_bits(expected)
            digest.update(repr(_record_bits(expected)).encode())
            best = max(scan, key=lambda ms: ms[0])
            ties_with_other_errors += any(ms[0] == best[0] and ms[1] != best[1] for ms in scan)
    assert ties_with_other_errors > 0
    assert digest.hexdigest() == "c8ad4c4f04a842914a474e4003f59862b9d4dcb3350793aaa06c144b7cc449ed"


def test_simulated_experiment_rejects_other_sizes():
    # an odd N has no half-excited Dicke state
    with pytest.raises(ValueError, match="N=3"):
        meas.simulated_experiment(dicke_state(3, 1), meas.ShotConfig(n_shots=10, seed=0))


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
    exact = _lifted_record(state)
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
    exact = obs.parity_scan(state, 40).parities
    config = meas.ShotConfig(n_shots=10**6, seed=2024)
    sampled = meas.sample_parities(exact, config)
    p_even = np.clip((1 + exact) / 2, 0.0, 1.0)
    sigma = 2 * np.sqrt(p_even * (1 - p_even) / config.n_shots)
    assert np.all(np.abs(sampled - exact) <= 5 * sigma + 1e-12)
    assert np.array_equal(sampled, meas.sample_parities(exact, config))


# p_even = 0, 1/2 and 1, 1/2 +- 1e-16 (where numpy's binomial switches
# branch), p_even near 0 and 1, and parities that the clip brings back
_EDGE_PARITIES = [-1.0, 0.0, 1.0, 2e-16, -2e-16, 1 - 1e-16, -1 + 2e-16, 1e-300,
                  np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]


@settings(max_examples=300, deadline=None)
@given(parities=st.lists(st.sampled_from(_EDGE_PARITIES) | st.floats(-1.0, 1.0),
                         min_size=1, max_size=45),
       shots=st.integers(1, 10**6) | st.sampled_from([1, 2, 1000, 10**6]),
       seed=st.integers(0, 2**64 - 1),
       stream=st.integers(0, 2**64 - 1 - 100 - 45))
def test_sampled_parities_are_per_phase_philox_binomials(parities, shots, seed, stream):
    # one binomial draw of the even-parity count per phase, on stream
    # 100 + k; the generator is keyed here by hand, not through ShotConfig
    config = meas.ShotConfig(n_shots=shots, seed=seed, stream=stream)
    p_even = np.clip((1 + np.array(parities)) / 2, 0.0, 1.0)
    counts = [np.random.Generator(np.random.Philox(
        key=np.array([seed, stream + 100 + k], dtype=np.uint64))).binomial(shots, p)
        for k, p in enumerate(p_even)]
    assert np.array_equal(meas.sample_parities(parities, config),
                          2 * np.array(counts) / shots - 1)


def test_sampled_parities_draw_every_shot_through_the_sampler(monkeypatch):
    seen = []
    draw = meas._draw

    def counting_draw(probabilities, config):
        counts = draw(probabilities, config)
        seen.append(int(counts.sum()))
        return counts

    monkeypatch.setattr(meas, "_draw", counting_draw)
    parities = np.cos(2 * np.linspace(0.0, 2 * np.pi, 40, endpoint=False))
    meas.sample_parities(parities, meas.ShotConfig(n_shots=1000, seed=5))
    assert seen == [1000] * 40


def test_substream_checks_the_new_stream():
    config = meas.ShotConfig(n_shots=7, seed=3, stream=2**64 - 3)
    top = config.substream(2)
    assert (top.n_shots, top.seed, top.stream) == (7, 3, 2**64 - 1)
    assert top == meas.ShotConfig(n_shots=7, seed=3, stream=2**64 - 1)
    with pytest.raises(ValueError):
        config.substream(3)
    with pytest.raises(ValueError):
        meas.ShotConfig(n_shots=7, seed=3).substream(-1)


# a few fixed keys, so that a sequence repeats and interleaves them
_KEYS = st.sampled_from([(0, 0), (0, 1), (1, 0), (12345, 100), (2**64 - 1, 2**64 - 1)]) | \
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
# outcome weights with exact probabilities 0, 1/2 and 1 among them once normalised
_PROBABILITIES = st.sampled_from([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.0, 0.5, 0.5],
                                  [0.0, 0.0, 1.0, 0.0]]) | \
    st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
             min_size=2, max_size=9).filter(lambda w: sum(w) > 0)


@settings(max_examples=200, deadline=None)
@given(draws=st.lists(st.tuples(_KEYS, st.integers(1, 10**6), _PROBABILITIES, st.booleans()),
                      min_size=1, max_size=50))
def test_rekeyed_sampler_equals_a_fresh_philox(draws):
    # the per-thread generator keyed to (seed, stream) draws what a Philox
    # built for that key draws, whatever this thread drew before it; a
    # public config.generator() is a new generator at the start of the same
    # stream, and drawing from it leaves the sampler's draws alone
    def fresh(seed, stream):
        return np.random.Generator(np.random.Philox(key=np.array([seed, stream],
                                                                 dtype=np.uint64)))

    for (seed, stream), shots, weights, public_draw in draws:
        config = meas.ShotConfig(n_shots=shots, seed=seed, stream=stream)
        probs = meas._normalized(weights)
        if public_draw:
            assert np.array_equal(config.generator().random(3), fresh(seed, stream).random(3))
        assert np.array_equal(meas._draw(probs, config),
                              fresh(seed, stream).multinomial(shots, probs))


def test_threads_sample_the_records_of_a_sequential_run():
    rho = _noisy_target(4, 0.1)
    parities = np.cos(2 * np.linspace(0.0, 2 * np.pi, 40, endpoint=False))

    def records(seed):
        return [(meas.simulated_experiment(rho, meas.ShotConfig(n_shots=n, seed=seed)),
                 meas.sample_parities(parities, meas.ShotConfig(n_shots=n, seed=seed)))
                for n in (10, 1000, 10**5) * 4]

    def same(a, b):
        return all(np.array_equal(pa, pb) and ra.witness_value == rb.witness_value
                   and np.array_equal(ra.populations, rb.populations)
                   and ra.f_lower == rb.f_lower and ra.sigma_lower == rb.sigma_lower
                   for (ra, pa), (rb, pb) in zip(a, b, strict=True))

    seeds = (11, 12, 13, 14)
    expected = {seed: records(seed) for seed in seeds}
    results = {}
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter over between draws
    try:
        threads = [threading.Thread(target=lambda s=seed: results.update({s: records(s)}))
                   for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(seeds)
    assert all(same(results[seed], expected[seed]) for seed in seeds)
