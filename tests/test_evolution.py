import warnings

import numpy as np
import pytest

from dickesim import evolution, model, repro
from dickesim.dark_state import dark_coefficients
from dickesim.errors import (
    NumericalError,
    PhysicsConfigError,
    ReducedModelWarning,
    TruncationWarning,
)
from oracles import bits


def _tones(schedule, t):
    """(Omega_r, Omega_b) at the one time t."""
    omega_r, omega_b = schedule.amplitudes([t])
    return omega_r[0], omega_b[0]


def _run_chain_from(psi0, schedule, params, n_steps):
    """The reduced model's RK4 from ``psi0`` over ``n_steps`` steps of the
    whole ramp: the integrator always starts from |D^0>|0>."""
    support, _ = model.reduced_support(params.n_ions)

    def h_values(ts):
        return model.reduced_values(params, *schedule.amplitudes(ts))

    _, states = evolution._rk4(h_values, support, np.asarray(psi0, dtype=complex),
                               schedule.total_time, n_steps, np.array([n_steps], dtype=np.int64))
    return states[-1]


def _jz_mean(state):
    n = len(state) - 1
    return float(np.sum((np.arange(n + 1) - n / 2) * np.abs(state) ** 2))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_endpoints():
    for shape in evolution.SCHEDULE_SHAPES:
        sch = evolution.PulseSchedule(total_time=10.0, shape=shape)
        assert _tones(sch, 0.0) == (2.0, 0.0)  # theta = 0 exactly
        assert _tones(sch, 10.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_schedule_tone_convention():
    sch = evolution.PulseSchedule(total_time=8.0, omega_bar=1.5)
    t_mid = 4.0
    assert _tones(sch, t_mid)[0] == pytest.approx(1.5)
    assert _tones(sch, t_mid)[1] == pytest.approx(1.5)
    # the tone sum is constant at 2*omega_bar
    for t in (0.0, 2.1, 5.5, 8.0):
        assert sum(_tones(sch, t)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("shape", evolution.SCHEDULE_SHAPES)
@pytest.mark.parametrize("omega_bar", [1.0, 0.7])
def test_tones_are_the_schedule_amplitudes_bit_for_bit(shape, omega_bar):
    sch = evolution.PulseSchedule(total_time=7.3, omega_bar=omega_bar, shape=shape)
    t = np.linspace(-1.0, 8.0, 1001)
    x = np.clip(t / sch.total_time, 0.0, 1.0)
    if shape == "smoothstep":
        x = x * x * (3 - 2 * x)
    theta = np.pi * x
    tones = evolution.tones(theta) if omega_bar == 1.0 else evolution.tones(theta, omega_bar)
    for tone, amplitude in zip(tones, sch.amplitudes(t)):
        assert np.array_equal(bits(tone), bits(amplitude))


def test_schedule_validation():
    with pytest.raises(ValueError):
        evolution.PulseSchedule(total_time=0.0)
    with pytest.raises(ValueError):
        evolution.PulseSchedule(total_time=1.0, shape="bogus")
    for total_time in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            evolution.PulseSchedule(total_time=total_time)
    for omega_bar in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            evolution.PulseSchedule(total_time=1.0, omega_bar=omega_bar)
    evolution.PulseSchedule(total_time=1.0, omega_bar=0.0)


def test_preset_names():
    for name in evolution.PRESET_NAMES:
        schedule, params = evolution.adiabatic_preset(name, 4)
        assert params.delta == pytest.approx(20.0 * schedule.omega_bar)
    with pytest.raises(ValueError):
        evolution.adiabatic_preset("nope", 4)


def test_paper_preset_scale():
    schedule, _ = evolution.adiabatic_preset("paper", 4)
    # peak tone rate of 2*pi*14 kHz over 340 us ~ 4.8 cycles
    peak_cycles = 2 * schedule.omega_bar / (2 * np.pi) * schedule.total_time
    assert peak_cycles == pytest.approx(4.76, abs=0.01)
    assert schedule.adiabaticity() == pytest.approx(np.pi * 14e3 * 340e-6)


# ---------------------------------------------------------------------------
# reduced-model integration
# ---------------------------------------------------------------------------

class _RedOnly(evolution.PulseSchedule):
    """theta pinned at 0: the red tone at 2*omega_bar, the blue one off."""

    def amplitudes(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, 2 * self.omega_bar), np.zeros(t.shape)


class _Reversed(evolution.PulseSchedule):
    """The ramp run backwards, theta -> pi - theta: the two tones swap."""

    def amplitudes(self, t):
        omega_r, omega_b = super().amplitudes(t)
        return omega_b, omega_r


def test_frozen_red_only_schedule_is_stationary():
    # the blue tone stays off; |D^0>|0> stays dark
    sch = _RedOnly(total_time=20.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=4, delta=10.0)
    with pytest.warns(ReducedModelWarning):  # the red tone peaks at 2 = delta/5
        traj = evolution.integrate_reduced(sch, params)
    assert abs(abs(traj.final_state()[0]) ** 2 - 1.0) < 1e-10


def test_zero_amplitude_schedule_is_identity():
    sch = evolution.PulseSchedule(total_time=5.0, omega_bar=0.0)
    params = model.SystemParams(n_ions=2, delta=0.0)
    with warnings.catch_warnings():
        # an undriven chain neglects nothing, even at delta = 0
        warnings.simplefilter("error", ReducedModelWarning)
        traj = evolution.integrate_reduced(sch, params)
    assert np.max(np.abs(traj.final_state() - np.array([1, 0, 0]))) < 1e-12
    final = _run_chain_from([0, 1, 0], sch, params, traj.n_steps)
    assert np.max(np.abs(final - np.array([0, 1, 0]))) < 1e-12


def test_subnormal_detuning_integrates():
    # 0.1/delta overflows the step-size guard to inf; the run still takes steps
    sch = evolution.PulseSchedule(total_time=1.0, omega_bar=0.0)
    params = model.SystemParams(n_ions=2, delta=5e-324)
    traj = evolution.integrate_reduced(sch, params)
    assert traj.times[-1] == 1.0
    assert traj.final_state()[0] == 1.0


def test_nan_sample_fails_norm_check():
    with pytest.raises(NumericalError, match="drift nan"):
        evolution._check_norms(np.array([[1, 0, 0], [np.nan, 1, 0]], dtype=complex))


def test_norm_preservation():
    sch, params = evolution.adiabatic_preset("fast", 4)
    traj = evolution.integrate_reduced(sch, params)
    assert traj.max_norm_drift < 1e-8


def test_dt_guard():
    sch, params = evolution.adiabatic_preset("fast", 4)
    with pytest.raises(PhysicsConfigError):
        evolution.integrate_reduced(sch, params, dt=0.1)


def test_step_plan_is_bounded():
    # a plan of more than 2^31 steps is refused, though it fits int64
    assert evolution._plan_steps(2.0**31, 1.0) == 2**31
    with pytest.raises(PhysicsConfigError, match="limit of 2\\^31"):
        evolution._plan_steps(2.0**31 * (1 + 2**-52), 1.0)


def test_time_reversed_schedule_maps_back():
    sch, params = evolution.adiabatic_preset("fast", 4)
    fwd = evolution.integrate_reduced(sch, params)
    fid_fwd = abs(fwd.final_state()[4]) ** 2

    rev = _Reversed(sch.total_time, sch.omega_bar)
    fid_rev = abs(_run_chain_from([0, 0, 0, 0, 1], rev, params, fwd.n_steps)[0]) ** 2
    assert fid_rev == pytest.approx(fid_fwd, abs=1e-9)


def test_adiabatic_octaves_monotone():
    mids, finals = [], []
    for total_time in (15.0, 30.0, 60.0, 120.0):
        sch = evolution.PulseSchedule(total_time=total_time, omega_bar=1.0)
        params = model.SystemParams(n_ions=4, delta=5.0)
        with pytest.warns(ReducedModelWarning):
            traj = evolution.integrate_reduced(sch, params)
        target = dark_coefficients(4, 1.0, 1.0).chain_vector
        mids.append(1 - abs(np.vdot(target, traj.states[traj.midpoint])) ** 2)
        finals.append(1 - _jz_mean(traj.final_state()) / 2)
    assert all(a > b for a, b in zip(mids, mids[1:]))
    assert all(a > b for a, b in zip(finals, finals[1:]))


def test_dark_manifold_tracking_at_strict_settings():
    traj = repro.strict_trajectory(4)
    series = evolution.dark_fidelity_series(traj)
    assert np.nanmin(series) >= 0.98


def test_low_adiabaticity_warns():
    sch = evolution.PulseSchedule(total_time=3.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=2, delta=10.0)
    with pytest.warns(ReducedModelWarning), pytest.warns(UserWarning, match="adiabatic"):
        evolution.integrate_reduced(sch, params)


# ---------------------------------------------------------------------------
# truncated scans: one run sampled at every pulse-truncation time
# ---------------------------------------------------------------------------

def test_truncated_scan_endpoints_and_monotone_jz():
    sch = evolution.PulseSchedule(total_time=120.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=4, delta=5.0)
    cuts = list(np.linspace(0.0, 120.0, 25))
    with pytest.warns(ReducedModelWarning):
        traj = evolution.integrate_reduced(sch, params, capture_times=cuts)
    indices = traj.indices_of(cuts)
    taus, states = traj.times[indices], traj.states[indices]
    assert taus[0] == 0.0
    assert abs(abs(states[0][0]) ** 2 - 1.0) < 1e-12
    # midpoint tracks the equal-amplitude dark state at adiabatic settings
    assert taus[12] == pytest.approx(60.0, abs=0.01)
    target = dark_coefficients(4, 1.0, 1.0).chain_vector
    assert abs(np.vdot(target, states[12])) ** 2 >= 0.99
    # <Jz> grows monotonically along the cuts (regression property)
    jz_series = [_jz_mean(s) for s in states]
    assert all(b >= a - 1e-3 for a, b in zip(jz_series, jz_series[1:]))


def test_midpoint_is_the_half_ramp_step_on_whole_and_stopped_runs():
    sch = evolution.PulseSchedule(total_time=30.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=2, delta=20.0)
    whole = evolution.integrate_reduced(sch, params)
    stopped = evolution.integrate_reduced(sch, params, capture_times=[sch.total_time / 2])
    assert whole.times[whole.midpoint] == whole.n_steps // 2 * whole.dt
    assert stopped.n_steps == whole.n_steps // 2
    assert stopped.midpoint == len(stopped.times) - 1
    assert stopped.times[stopped.midpoint] == whole.times[whole.midpoint]
    assert np.array_equal(stopped.states[stopped.midpoint], whole.states[whole.midpoint])


def test_truncated_scan_rejects_out_of_range():
    # a capture time outside [0, T] is refused on both models, before a step
    # is taken, rather than left as an unwritten sample row
    sch = evolution.PulseSchedule(total_time=10.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=2, delta=20.0)
    for integrate in (evolution.integrate_reduced, evolution.integrate_full):
        for cuts in ([11.0], [-1.0], [5.0, 12.0], [float("nan")]):
            with pytest.raises(ValueError, match="outside"):
                integrate(sch, params, capture_times=cuts)
        # the ends themselves are capture times
        traj = integrate(sch, params, capture_times=[0.0, 10.0])
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# full-model integration
# ---------------------------------------------------------------------------

def test_full_transfer_two_ions():
    sch = evolution.PulseSchedule(total_time=320.0, omega_bar=1.0)
    params = model.SystemParams(n_ions=2, delta=20.0)
    traj = evolution.integrate_full(sch, params)
    final = traj.final_state().reshape(3, params.n_max + 1)
    assert abs(final[2, 0]) ** 2 >= 0.95
    assert traj.truncation_leak < 1e-6


def test_zero_detuning_pumps_phonons():
    # with delta = 0 the phonon-number-changing transitions are resonant and
    # the state leaves the dark manifold
    sch = evolution.PulseSchedule(total_time=40.0, omega_bar=1.0)

    def mean_phonon(traj, params):
        final = traj.final_state().reshape(params.n_ions + 1, params.n_max + 1)
        return float(np.sum(np.arange(params.n_max + 1) * np.sum(np.abs(final) ** 2, axis=0)))

    params0 = model.SystemParams(n_ions=2, delta=0.0)
    with pytest.warns(TruncationWarning):
        resonant = mean_phonon(evolution.integrate_full(sch, params0), params0)
    params20 = model.SystemParams(n_ions=2, delta=20.0)
    detuned = mean_phonon(evolution.integrate_full(sch, params20), params20)
    assert resonant > 10 * detuned


def test_full_zero_amplitude_identity():
    sch = evolution.PulseSchedule(total_time=5.0, omega_bar=0.0)
    params = model.SystemParams(n_ions=2, delta=10.0)
    traj = evolution.integrate_full(sch, params)
    psi0 = np.zeros((3) * (params.n_max + 1))
    psi0[0] = 1.0
    assert np.max(np.abs(traj.final_state() - psi0)) < 1e-12


def test_phonon_truncation_convergence():
    # raising n_max by 2 changes the midpoint dark fidelity below 1e-4
    sch = evolution.PulseSchedule(total_time=40.0, omega_bar=1.0)
    fids = []
    for n_max in (5, 7):
        params = model.SystemParams(n_ions=2, delta=20.0, n_max=n_max)
        traj = evolution.integrate_full(sch, params)
        # the state moved into the chain's frame, where Fock level n picks
        # up exp(-i * delta * t * n), against the dark chain vector lifted to
        # its paired phonon numbers
        nvec = np.tile(np.arange(n_max + 1), 3)
        mid = traj.states[traj.midpoint] * np.exp(-1j * params.delta * 20.0 * nvec)
        target = np.zeros(len(mid), dtype=complex)
        target[model.chain_indices(2, n_max)] = dark_coefficients(2, 1, 1).chain_vector
        fids.append(abs(np.vdot(target, mid)) ** 2)
    assert abs(fids[1] - fids[0]) < 1e-4
