"""The block-built Hamiltonians against the per-time formulas they replace.

The integrator builds H(t) for many steps at once.  Its printed digits stay
the same only if every array element equals, bit for bit, what evaluating
the schedule and the Hamiltonian at one time gives; these properties pin
that, signed zeros included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import evolution, model
from dickesim.spin_algebra import build_collective


def _reference_theta(schedule, t):
    if schedule.theta_fn is not None:
        return schedule.theta_fn(t)
    x = min(max(t / schedule.total_time, 0.0), 1.0)
    if schedule.shape == "smoothstep":
        x = 3 * x**2 - 2 * x**3
    return np.pi * x


def _reference_amplitudes(schedule, t):
    """Per-time (Omega_r, Omega_b) in Python floats, as the scalar loop had it."""
    cos = np.cos(_reference_theta(schedule, t))
    return schedule.omega_bar * (1 + cos), schedule.omega_bar * (1 - cos)


def _reference_full(params, t, omega_r, omega_b):
    """Dense sum of the four phase-scaled sideband operators."""
    n, n_max = params.n_ions, params.n_max
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    jp = build_collective(n, "j+")
    red = np.kron(jp, a)
    blue = np.kron(jp, a.conj().T)
    phase = np.exp(-1j * params.delta * t)
    cr = params.eta * omega_r / 2
    cb = params.eta * omega_b / 2
    return (
        cr * (phase * red + np.conj(phase) * red.conj().T)
        + cb * (np.conj(phase) * blue + phase * blue.conj().T)
    )


def _assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


@st.composite
def _schedules_and_times(draw):
    total_time = draw(st.floats(0.5, 1000.0))
    theta_fn = draw(st.sampled_from([None, lambda t: 0.0]))
    schedule = evolution.PulseSchedule(
        total_time=total_time,
        omega_bar=draw(st.floats(0.0, 3.0)),
        shape=draw(st.sampled_from(evolution.SCHEDULE_SHAPES)),
        theta_fn=theta_fn,
    )
    if draw(st.booleans()):
        schedule = schedule.reversed()
    inner = draw(st.lists(st.floats(0.0, total_time), max_size=20))
    # spread times too: last-bit differences such as numpy's x**3 against
    # float.__pow__ show on a few percent of arbitrary arguments
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.array([0.0, *inner, *rng.uniform(0.0, total_time, 100), total_time])
    return schedule, times


@settings(max_examples=200, deadline=None)
@given(_schedules_and_times())
def test_array_amplitudes_equal_scalar_path(case):
    schedule, times = case
    omega_r, omega_b = schedule.amplitudes(times)
    for i, t in enumerate(times.tolist()):
        ref_r, ref_b = _reference_amplitudes(schedule, t)
        assert omega_r[i] == ref_r and omega_b[i] == ref_b
        assert omega_r[i] == schedule.omega_r(t) and omega_b[i] == schedule.omega_b(t)


@settings(max_examples=60, deadline=None)
@given(
    n_ions=st.sampled_from([2, 4, 6]),
    delta=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 40.0),
    times=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=12),
    tone_seed=st.integers(0, 2**32 - 1),
)
def test_full_hamiltonian_stack_equals_dense_sum(n_ions, delta, times, tone_seed):
    params = model.SystemParams(n_ions=n_ions, eta=1.0, delta=delta)
    ts = np.array([0.0, *times])
    rng = np.random.default_rng(tone_seed)
    omega_r = rng.uniform(0.0, 2.0, len(ts))
    omega_b = rng.uniform(0.0, 2.0, len(ts))
    # the ramp ends reach exactly zero on one tone
    omega_r[rng.random(len(ts)) < 0.3] = 0.0
    omega_b[rng.random(len(ts)) < 0.3] = 0.0
    ham = model.FullHamiltonian(params)
    stack = ham.at(ts, omega_r, omega_b)
    assert stack.shape == (len(ts), ham.dimension, ham.dimension)
    for i, t in enumerate(ts.tolist()):
        expected = _reference_full(params, t, float(omega_r[i]), float(omega_b[i]))
        _assert_bitwise_equal(stack[i], expected)
        _assert_bitwise_equal(ham.at(t, float(omega_r[i]), float(omega_b[i])), expected)
