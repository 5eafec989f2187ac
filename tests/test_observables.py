import re

import numpy as np
import pytest
from scipy.linalg import expm

from dickesim import certification, measurement
from dickesim import observables as obs
from dickesim import spin_algebra as sa
from dickesim.dark_state import dark_coefficients
from dickesim.model import spin_marginals
from dickesim.spin_algebra import (
    build_collective,
    dicke_state,
    half_excited_x,
    rotation_y,
    symmetric_isometry,
)


def _readout(state):
    """(<Jz>, Var(Jx), Var(Jy), Var(Jz)) of one vector or density matrix,
    through the stack readout."""
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    return tuple(column[0] for column in obs.spin_readout(rho[None]))


def _mean_sq(rho, mean_jz):
    """|<J>|^2, with <Jx> and <Jy> read off ``rho`` directly."""
    n = len(rho) - 1
    means = [obs.expectation(rho, build_collective(n, "j" + axis)) for axis in "xy"]
    return means[0] ** 2 + means[1] ** 2 + mean_jz**2


def test_moments_pole_state():
    mean_jz, var_jx, var_jy, var_jz = _readout(dicke_state(4, 0))
    assert mean_jz == pytest.approx(-2.0, abs=1e-12)
    assert var_jx == pytest.approx(1.0, abs=1e-12)
    assert var_jy == pytest.approx(1.0, abs=1e-12)
    assert var_jz == pytest.approx(0.0, abs=1e-12)


def test_moments_half_excited_x():
    _, var_jx, var_jy, var_jz = _readout(half_excited_x(4))
    assert var_jx == pytest.approx(0.0, abs=1e-10)
    assert var_jy == pytest.approx(3.0, abs=1e-10)
    assert var_jz == pytest.approx(3.0, abs=1e-10)


def test_dark_state_squeezing_off_midpoint():
    theta = np.pi / 4
    psi = dark_coefficients(4, 1 + np.cos(theta), 1 - np.cos(theta)).chain_vector
    _, var_jx, var_jy, _ = _readout(psi)
    transverse = sorted([var_jx, var_jy])
    assert transverse[0] < 1.0      # squeezed
    assert transverse[1] > 1.0      # anti-squeezed


def test_variance_sum_identity_on_random_states():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        j2 = n / 2 * (n / 2 + 1)
        for _ in range(20):
            psi = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            psi /= np.linalg.norm(psi)
            mean_jz, var_jx, var_jy, var_jz = _readout(psi)
            mean_sq = _mean_sq(np.outer(psi, psi.conj()), mean_jz)
            assert var_jx + var_jy + var_jz == pytest.approx(j2 - mean_sq, abs=1e-10)


def test_moments_reject_unnormalized():
    with pytest.raises(ValueError):
        _readout(np.array([1.0, 1.0, 0.0]))


def _with_one_bad_entry(state, value):
    """A copy of a vector with ``value`` as amplitude 1, or of its density
    matrix with ``value`` as diagonal entry (1, 1)."""
    state = np.array(state, dtype=complex)
    if state.ndim == 1:
        state[1] = value
    else:
        state[1, 1] = value
    return state


_TARGET = half_excited_x(4)
_TARGET_RHO = np.outer(_TARGET, _TARGET.conj())
_FULL = certification.half_excited_full(4, "x")
_FULL_RHO = np.outer(_FULL, _FULL.conj())
# (reader, the normalized state it reads, the message of a bad one)
_STATE_READERS = {
    "check_normalized": (obs.check_normalized, _TARGET, "|psi|^2"),
    "check_normalized rho": (obs.check_normalized, _TARGET_RHO, "density matrix trace"),
    "witness": (obs.witness, _TARGET, "|psi|^2"),
    "witness rho": (obs.witness, _TARGET_RHO, "density matrix trace"),
    "direct_fidelity": (lambda s: obs.direct_fidelity(s, _TARGET), _TARGET, "|psi|^2"),
    "direct_fidelity target": (lambda s: obs.direct_fidelity(_TARGET, s), _TARGET, "|psi|^2"),
    "direct_fidelity rho": (lambda s: obs.direct_fidelity(s, _TARGET), _TARGET_RHO,
                            "density matrix trace"),
    "populations_along x": (lambda s: obs.populations_along(s, "x"), _TARGET, "|psi|^2"),
    "populations_along z rho": (lambda s: obs.populations_along(s, "z"), _TARGET_RHO,
                                "density matrix trace"),
    "populations_azimuth": (lambda s: obs.populations_azimuth(s, 13), _TARGET, "|psi|^2"),
    "spin_readout": (lambda s: obs.spin_readout(s[None]), _TARGET_RHO, "density matrix trace"),
    "sample_populations": (lambda s: measurement.sample_populations(
        s, measurement.ShotConfig(100, seed=1), "x"), _TARGET, "|psi|^2"),
    "certify_from_state": (lambda s: certification.certify_from_state(s, "x"), _FULL,
                           "|psi|^2"),
    "certify_from_state rho": (lambda s: certification.certify_from_state(s, "x"), _FULL_RHO,
                               "density matrix trace"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("reader", _STATE_READERS)
def test_every_state_reader_refuses_a_nan_or_inf_entry(reader, bad):
    # nan compares false with everything, so a norm test must ask "within
    # NORM_TOL of 1", which a nan fails, not "further than NORM_TOL from 1"
    read, state, name = _STATE_READERS[reader]
    read(state)
    with pytest.raises(ValueError, match=re.escape(name) + " .* is not 1"):
        read(_with_one_bad_entry(state, bad))


def test_variance_sum_identity_on_trajectory_samples():
    from dickesim import evolution, model
    from dickesim.errors import ReducedModelWarning

    sch = evolution.PulseSchedule(total_time=12.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=4, delta=6.0)
    with pytest.warns(ReducedModelWarning):
        traj = evolution.integrate_reduced(sch, params)
    for index in range(0, len(traj.times), len(traj.times) // 8):
        [rho] = traj.spin_marginals([index])
        mean_jz, var_jx, var_jy, var_jz = _readout(rho)
        jx, jy, jz = (build_collective(4, kind) for kind in ("jx", "jy", "jz"))
        j2 = obs.expectation(rho, jx @ jx + jy @ jy + jz @ jz)
        assert var_jx + var_jy + var_jz == pytest.approx(j2 - _mean_sq(rho, mean_jz), abs=1e-10)


def test_witness_values():
    assert obs.witness(half_excited_x(4), ("y", "z")) == pytest.approx(6.0, abs=1e-9)
    assert obs.witness(dicke_state(4, 0), ("y", "z")) == pytest.approx(5.0, abs=1e-10)


def test_witness_threshold_verdict():
    assert obs.witness_verdict(4, 6.0)
    assert not obs.witness_verdict(4, 5.22)
    assert not obs.witness_verdict(2, 6.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: witness_verdict knows only the "
                   "four-ion threshold 5.23, and no other N is ever genuinely multipartite")
def test_ideal_six_ion_dicke_state_is_genuinely_multipartite():
    assert obs.witness_verdict(6, obs.witness(half_excited_x(6), ("y", "z")))


def test_witness_rejects_same_axis():
    with pytest.raises(ValueError):
        obs.witness(half_excited_x(4), ("y", "y"))
    with pytest.raises(ValueError):
        obs.witness(half_excited_x(4), ("y", "q"))


def test_direct_fidelity():
    target = half_excited_x(4)
    assert obs.direct_fidelity(target, target) == pytest.approx(1.0, abs=1e-12)
    ghz = (dicke_state(4, 0) + dicke_state(4, 4)) / np.sqrt(2)
    assert obs.direct_fidelity(ghz, target) == pytest.approx(0.75, abs=1e-12)
    assert obs.direct_fidelity(dicke_state(4, 1), dicke_state(4, 2)) == 0.0
    rho = np.outer(target, target.conj())
    assert obs.direct_fidelity(rho, target) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        obs.direct_fidelity(dicke_state(4, 0), dicke_state(2, 0))


def test_populations_along_x_eigenstate():
    pops = obs.populations_along(half_excited_x(4), "x")
    assert pops[2] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(pops) == pytest.approx(1.0, abs=1e-10)


def test_populations_along_x_pole_is_binomial():
    pops = obs.populations_along(dicke_state(4, 0), "x")
    assert np.max(np.abs(pops - np.array([1, 4, 6, 4, 1]) / 16)) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_populations_along_x_matches_rotated_z_readout(n):
    # the eigh route agrees with a pi/2 rotation about y followed by z readout
    rng = np.random.default_rng(n)
    psi = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    psi /= np.linalg.norm(psi)
    ry = rotation_y(n, np.pi / 2)
    rotated = np.abs(ry.conj().T @ psi) ** 2
    assert np.max(np.abs(obs.populations_along(psi, "x") - rotated)) < 1e-12


def test_populations_along_x_oracle_cross_check():
    # same populations from the full 2^N space
    psi = dicke_state(4, 0)
    iso = symmetric_isometry(4)
    from test_certification import eigh_populations

    pops_full = eigh_populations(iso @ psi, 4, "x")
    assert np.max(np.abs(obs.populations_along(psi, "x") - pops_full)) < 1e-10


def test_populations_along_axes():
    psi = half_excited_x(4)
    px = obs.populations_along(psi, "x")
    assert px[2] == pytest.approx(1.0, abs=1e-12)
    pz = obs.populations_along(psi, "z")
    assert np.max(np.abs(pz - np.abs(psi) ** 2)) < 1e-14
    with pytest.raises(ValueError):
        obs.populations_along(psi, "w")


def test_azimuthal_operator_limits():
    jx = obs.azimuthal_spin(4, 0.0)
    jy = obs.azimuthal_spin(4, np.pi / 2)
    assert np.max(np.abs(jx - build_collective(4, "jx"))) < 1e-12
    assert np.max(np.abs(jy - build_collective(4, "jy"))) < 1e-12


def test_azimuth_square_peak_is_jy():
    psi = half_excited_x(4)
    phases = np.linspace(0.0, np.pi, 13)
    values = [obs.expectation(psi, obs.azimuthal_spin(4, phi) @ obs.azimuthal_spin(4, phi))
              for phi in phases]
    assert max(values) == pytest.approx(3.0, abs=1e-10)
    assert phases[int(np.argmax(values))] == pytest.approx(np.pi / 2, abs=1e-12)


def _eigh_populations_alone(state, op):
    """Populations of ``op``'s eigenvectors from a fresh eigh and the 2-d
    products."""
    basis = np.linalg.eigh(op)[1]
    if state.ndim == 1:
        return np.abs(basis.conj().T @ state) ** 2
    return np.real(np.diag(basis.conj().T @ state @ basis)).copy()


def _populations_azimuth_alone(state, phi):
    """One azimuth's populations as computed before azimuths were stacked:
    a scalar-weighted J_phi, its own eigh, and the 2-d products."""
    n_ions = len(state) - 1
    op = np.cos(phi) * build_collective(n_ions, "jx") + np.sin(phi) * build_collective(n_ions, "jy")
    return _eigh_populations_alone(state, op)


@pytest.mark.parametrize("n_ions", [1, 2, 4, 6])
def test_stacked_azimuth_populations_keep_the_bits(n_ions):
    rng = np.random.default_rng(n_ions)
    vecs = [_random_unit(rng, n_ions + 1) for _ in range(3)]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), vecs))
    for count in (13, 40, 1):
        phases = np.linspace(0.0, np.pi, count)
        for state in (vecs[0], rho, half_excited_x(n_ions) if n_ions % 2 == 0 else vecs[1]):
            stacked = obs.populations_azimuth(state, count)
            assert stacked.shape == (count, n_ions + 1)
            for phi, row in zip(phases, stacked, strict=True):
                assert np.array_equal(row, _populations_azimuth_alone(state, phi))
            assert np.array_equal(obs.azimuthal_spin(n_ions, phases),
                                  [obs.azimuthal_spin(n_ions, phi) for phi in phases])


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

def test_parity_ideal_bell():
    bell = dark_coefficients(2, 1.0, 1.0).chain_vector.astype(complex)
    scan = obs.parity_scan(bell)
    assert scan.amplitude == pytest.approx(1.0, abs=1e-10)
    assert scan.fidelity == pytest.approx(1.0, abs=1e-10)
    assert scan.p_lower == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.abs(scan.parities) <= 1 + 1e-12)


def test_parity_product_state_at_separability_boundary():
    down = np.array([1.0, 0, 0], dtype=complex)
    scan = obs.parity_scan(down)
    assert scan.amplitude == pytest.approx(0.0, abs=1e-10)
    assert scan.fidelity == pytest.approx(0.5, abs=1e-10)


def test_parity_accepts_density_and_full_space():
    bell = dark_coefficients(2, 1.0, 1.0).chain_vector.astype(complex)
    rho = np.outer(bell, bell.conj())
    assert obs.parity_scan(rho).fidelity == pytest.approx(1.0, abs=1e-10)
    full = symmetric_isometry(2) @ bell
    assert obs.parity_scan(full).fidelity == pytest.approx(1.0, abs=1e-10)


def test_parity_rejects_other_sizes():
    with pytest.raises(ValueError):
        obs.parity_scan(dicke_state(4, 2))


def test_parity_fidelity_formula_on_published_numbers():
    fid = obs.parity_fidelity(0.516, 0.451, 0.95)
    assert fid == pytest.approx(0.9585, abs=1e-12)


def test_fit_parity_curve_recovers_parameters():
    phases = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    curve = 0.8 * np.cos(2 * phases + 0.3) + 0.05
    fit = obs.parity_analysis(phases, curve, 0.5, 0.4)
    assert fit.amplitude == pytest.approx(0.8, abs=1e-12)
    assert fit.phase_offset == pytest.approx(0.3, abs=1e-12)
    assert fit.offset == pytest.approx(0.05, abs=1e-12)
    assert fit.fidelity == pytest.approx((0.5 + 0.4 + 0.8) / 2, abs=1e-12)


@pytest.mark.parametrize("n_phases", [0, 1, 2, 4])
def test_fit_parity_curve_rejects_underdetermined_phases(n_phases):
    # at 4 equispaced phases sin(2 phi) vanishes everywhere: the design has rank 2
    phases = np.linspace(0, 2 * np.pi, n_phases, endpoint=False)
    with pytest.raises(ValueError, match="underdetermined"):
        obs.parity_analysis(phases, np.cos(2 * phases), 0.5, 0.5)


def test_parity_analysis_of_the_exact_curve():
    # dephased Bell state with a |D^1> admixture: the 2*phi amplitude is
    # 2|rho(down down, up up)| = 0.8 and p_lower = p_upper = 0.475
    bell = np.array([1.0, 0.0, -1.0], dtype=complex) / np.sqrt(2)
    rho = 0.8 * np.outer(bell, bell.conj()) + 0.15 * np.diag([0.5, 0.0, 0.5])
    rho[1, 1] += 0.05
    phases = obs.parity_phases(40)
    scan = obs.parity_scan(rho, 40)
    assert scan.p_lower == pytest.approx(0.475, abs=1e-12)
    assert scan.p_upper == pytest.approx(0.475, abs=1e-12)
    fit = obs.parity_analysis(phases, scan.parities, 0.475, 0.475)
    assert fit.amplitude == pytest.approx(0.8, abs=1e-12)
    assert fit.fidelity == pytest.approx(0.875, abs=1e-12)


def test_parity_phases_are_the_equispaced_grid():
    for count in (0, 1, 7, obs.PARITY_PHASES):
        assert np.array_equal(obs.parity_phases(count),
                              np.linspace(0.0, 2 * np.pi, count, endpoint=False))
    bell = dark_coefficients(2, 1.0, 1.0).chain_vector.astype(complex)
    assert np.array_equal(obs.parity_scan(bell).phases, obs.parity_phases(obs.PARITY_PHASES))


def _parity_scan_per_phase(state, phases):
    """The parity scan with one exponential per phase, as before the pulses
    were exponentiated as one stack."""
    state = obs.check_normalized(state)
    if len(state) == 3:
        iso = symmetric_isometry(2)
        state = iso @ state @ iso.conj().T if state.ndim == 2 else iso @ state
    phases = np.asarray(phases, dtype=float)
    jx, jy, parity_op = obs._two_ion_analysis_ops()
    parities = np.empty_like(phases)
    for k, phi in enumerate(phases):
        pulse = expm(-1j * (np.pi / 2) * (np.cos(phi) * jx + np.sin(phi) * jy))
        parities[k] = obs.expectation(state, pulse.conj().T @ parity_op @ pulse)
    pops = np.abs(state) ** 2 if state.ndim == 1 else np.real(np.diag(state))
    return obs.parity_analysis(phases, parities, pops[0], pops[3])


def _random_unit(rng, dim):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("n_phases", [3, 7, 40, 401])
def test_parity_scan_equals_the_per_phase_loop_bit_for_bit(n_phases):
    rng = np.random.default_rng(n_phases)
    mixed = [_random_unit(rng, 3) for _ in range(3)]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), mixed))
    phases = np.linspace(0.0, 2 * np.pi, n_phases, endpoint=False)
    for state in (half_excited_x(2), _random_unit(rng, 3), _random_unit(rng, 4), rho):
        scan, ref = obs.parity_scan(state, n_phases), _parity_scan_per_phase(state, phases)
        assert np.array_equal(scan.parities.view(np.int64), ref.parities.view(np.int64))
        assert (scan.amplitude, scan.phase_offset, scan.offset, scan.fidelity) == (
            ref.amplitude, ref.phase_offset, ref.offset, ref.fidelity)


def _parity_scan_product_loop(state, phases):
    """The parity scan with the pulses exponentiated as one stack but each
    phase's pulse^dag Pi pulse formed and evaluated alone, as before the
    products were stacked."""
    state = obs.check_normalized(state)
    if len(state) == 3:
        iso = symmetric_isometry(2)
        state = iso @ state @ iso.conj().T if state.ndim == 2 else iso @ state
    phases = np.asarray(phases, dtype=float)
    jx, jy, parity_op = obs._two_ion_analysis_ops()
    cos, sin = np.cos(phases)[:, None, None], np.sin(phases)[:, None, None]
    pulses = obs._expm(-1j * (np.pi / 2) * (cos * jx + sin * jy))
    parities = np.empty_like(phases)
    for k, pulse in enumerate(pulses):
        parities[k] = obs.expectation(state, pulse.conj().T @ parity_op @ pulse)
    pops = np.abs(state) ** 2 if state.ndim == 1 else np.real(np.diag(state))
    return obs.parity_analysis(phases, parities, pops[0], pops[3])


@pytest.mark.parametrize("n_phases", [3, 40, 401])
def test_stacked_parity_products_equal_the_product_loop_bit_for_bit(n_phases):
    rng = np.random.default_rng(1000 + n_phases)
    phases = np.linspace(0.0, 2 * np.pi, n_phases, endpoint=False)
    states = [half_excited_x(2), _random_unit(rng, 3), _random_unit(rng, 4)]
    for dim in (3, 4):
        vecs = [_random_unit(rng, dim) for _ in range(3)]
        states.append(sum(w * np.outer(v, v.conj()) for w, v in zip((0.6, 0.3, 0.1), vecs)))
    for state in states:
        scan, ref = obs.parity_scan(state, n_phases), _parity_scan_product_loop(state, phases)
        assert np.array_equal(scan.parities.view(np.int64), ref.parities.view(np.int64))
        assert (scan.amplitude, scan.phase_offset, scan.offset, scan.fidelity) == (
            ref.amplitude, ref.phase_offset, ref.offset, ref.fidelity)


# ---------------------------------------------------------------------------
# operator caches
# ---------------------------------------------------------------------------

_GRID_CACHES = (obs._azimuth_eigenbasis, obs._parity_analysis_ops)


def _cold_and_warm(readout, *args):
    """``readout(*args)`` after every operator cache is cleared, then again."""
    for cache in (obs._axis_eigenbasis, *_GRID_CACHES):
        cache.cache_clear()
    return readout(*args), readout(*args)


def _vector_and_mixture(rng, dim):
    vecs = [_random_unit(rng, dim) for _ in range(4)]
    return vecs[0], sum(w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), vecs[1:]))


@pytest.mark.parametrize("n_ions", range(2, 9))
def test_cached_populations_equal_a_fresh_eigh(n_ions):
    rng = np.random.default_rng(700 + n_ions)
    for state in _vector_and_mixture(rng, n_ions + 1):
        for axis in "xy":
            fresh = _eigh_populations_alone(state, build_collective(n_ions, "j" + axis))
            for pops in _cold_and_warm(obs.populations_along, state, axis):
                assert np.array_equal(pops, fresh)
        for count in (13, 9, 1):
            fresh = np.array([_populations_azimuth_alone(state, phi)
                              for phi in np.linspace(0.0, np.pi, count)])
            for pops in _cold_and_warm(obs.populations_azimuth, state, count):
                assert np.array_equal(pops, fresh)
            # every grid starts at azimuth 0, the one azimuth of a count of 1
            for (pops,) in _cold_and_warm(obs.populations_azimuth, state, 1):
                assert np.array_equal(pops, fresh[0])


def test_cached_parity_curve_equals_a_fresh_expm():
    rng = np.random.default_rng(17)
    states = [*_vector_and_mixture(rng, 3), *_vector_and_mixture(rng, 4)]
    iso = symmetric_isometry(2)
    for state in states:
        full = state
        if len(state) == 3:
            full = iso @ state if state.ndim == 1 else iso @ state @ iso.conj().T
        z_pops = np.abs(full) ** 2 if state.ndim == 1 else np.real(np.diag(full))
        for count in (40, 17, 7):
            phases = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
            fresh = _parity_scan_per_phase(state, phases).parities
            for parities, pops in _cold_and_warm(obs.parity_curve, state, count):
                assert np.array_equal(parities, fresh)
                assert np.array_equal(pops, z_pops)


def test_a_repeated_readout_builds_no_operator(monkeypatch):
    rng = np.random.default_rng(23)
    state, two_ion = _random_unit(rng, 5), _random_unit(rng, 3)

    def readouts():
        return (obs.populations_along(state, "x"), obs.populations_along(state, "y"),
                obs.populations_azimuth(state, 13), obs.populations_azimuth(state, 1),
                obs.parity_curve(two_ion, 40)[0], half_excited_x(4))

    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(obs, "_expm", counted("expm", obs._expm))
    monkeypatch.setattr(sa, "_expm", counted("expm", sa._expm))
    half_excited_x.cache_clear()
    first = _cold_and_warm(readouts)[0]
    assert sorted(set(calls)) == ["eigh", "expm"]  # the counters see a cold call
    calls.clear()
    second = readouts()
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(first, second, strict=True))


def test_grid_caches_stay_at_their_bound():
    # 100 counts, each read right after the one before it filled the cache
    rng = np.random.default_rng(29)
    state, two_ion = _random_unit(rng, 5), _random_unit(rng, 3)
    for count in range(13, 113):
        azimuths = np.linspace(0.0, np.pi, count)
        phases = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        assert np.array_equal(obs.populations_azimuth(state, count),
                              [_populations_azimuth_alone(state, phi) for phi in azimuths])
        assert np.array_equal(obs.parity_curve(two_ion, count)[0],
                              _parity_scan_per_phase(two_ion, phases).parities)
    for cache in _GRID_CACHES:
        info = cache.cache_info()
        assert info.currsize == info.maxsize == obs.GRID_CACHE_SIZE


def test_cached_operators_are_read_only():
    # the parity operator is shared by every phase count's analysis stack
    arrays = [*obs._axis_eigenbasis(4, "x"), *obs._azimuth_eigenbasis(4, 13),
              obs._parity_analysis_ops(13), *obs._two_ion_analysis_ops()]
    assert not any(a.flags.writeable for a in arrays)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def test_chain_marginal_blocks_parity_coherence():
    chain = np.array([0.6, 0.8j, 0.0], dtype=complex)
    [rho] = spin_marginals(chain[None], 2)
    assert rho[0, 1] == 0.0
    assert rho[0, 0] == pytest.approx(0.36)
    assert np.trace(rho) == pytest.approx(1.0)


def test_chain_marginal_of_dark_state_is_pure():
    chain = dark_coefficients(4, 1.0, 1.0).chain_vector
    [rho] = spin_marginals(chain[None], 4)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_full_marginal_trace():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=5 * 7) + 1j * rng.normal(size=5 * 7)
    psi /= np.linalg.norm(psi)
    [rho] = spin_marginals(psi[None], 4, 6)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
