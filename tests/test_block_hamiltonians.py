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
    x = min(max(t / schedule.total_time, 0.0), 1.0)
    if schedule.shape == "smoothstep":
        x = x * x * (3 - 2 * x)
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
    cr = omega_r / 2
    cb = omega_b / 2
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
    schedule = evolution.PulseSchedule(
        total_time=total_time,
        omega_bar=draw(st.floats(0.0, 3.0)),
        shape=draw(st.sampled_from(evolution.SCHEDULE_SHAPES)),
    )
    inner = draw(st.lists(st.floats(0.0, total_time), max_size=20))
    # spread times too: a last-bit difference between the array and the
    # Python-float arithmetic would show on a few percent of arbitrary arguments
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
        assert (omega_r[i], omega_b[i]) == tuple(tone[0] for tone in schedule.amplitudes([t]))


def test_smoothstep_stays_within_two_ulp_of_the_power_form():
    # the ramp's smoothstep is x*x*(3 - 2x), one array expression; the power
    # form 3x^2 - 2x^3 it replaced rounds differently, by at most 2 ulp of 1
    schedule = evolution.PulseSchedule(total_time=1.0, shape="smoothstep")
    grid = np.linspace(0.0, 1.0, 10_001)
    smooth = grid * grid * (3 - 2 * grid)
    assert np.array_equal(schedule._thetas(grid), np.pi * smooth)
    power_form = np.array([3 * s**2 - 2 * s**3 for s in grid.tolist()])
    assert np.max(np.abs(smooth - power_form)) <= 4.5e-16


@settings(max_examples=60, deadline=None)
@given(
    n_ions=st.sampled_from([2, 4, 6]),
    delta=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 40.0),
    times=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=12),
    tone_seed=st.integers(0, 2**32 - 1),
)
def test_full_hamiltonian_stack_equals_dense_sum(n_ions, delta, times, tone_seed):
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    ts = np.array([0.0, *times])
    rng = np.random.default_rng(tone_seed)
    omega_r = rng.uniform(0.0, 2.0, len(ts))
    omega_b = rng.uniform(0.0, 2.0, len(ts))
    # the ramp ends reach exactly zero on one tone
    omega_r[rng.random(len(ts)) < 0.3] = 0.0
    omega_b[rng.random(len(ts)) < 0.3] = 0.0
    dimension = (n_ions + 1) * (params.n_max + 1)
    stack = model.full_hamiltonian(params, ts, omega_r, omega_b)
    assert stack.shape == (len(ts), dimension, dimension)
    for i, t in enumerate(ts.tolist()):
        expected = _reference_full(params, t, float(omega_r[i]), float(omega_b[i]))
        _assert_bitwise_equal(stack[i], expected)
        one = model.full_hamiltonian(params, t, float(omega_r[i]), float(omega_b[i]))
        _assert_bitwise_equal(one, expected)


@settings(max_examples=60, deadline=None)
@given(
    n_ions=st.integers(1, 8),
    delta=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 40.0),
    times=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=8),
    tone_seed=st.integers(0, 2**32 - 1),
)
def test_support_values_expand_to_the_dense_builds(n_ions, delta, times, tone_seed):
    # the integrator hands the kernel only the support values; expanded, they
    # must give today's dense matrices word for word, signed zeros included
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    ts = np.array([0.0, *times])
    rng = np.random.default_rng(tone_seed)
    omega_r = rng.uniform(0.0, 2.0, len(ts))
    omega_b = rng.uniform(0.0, 2.0, len(ts))
    omega_r[rng.random(len(ts)) < 0.3] = 0.0
    omega_b[rng.random(len(ts)) < 0.3] = 0.0

    support, dimension, _ = model.full_support(n_ions, params.n_max)
    assert dimension == (n_ions + 1) * (params.n_max + 1)
    values = model.full_values(params, ts, omega_r, omega_b)
    assert values.shape == (len(ts), len(support) + 1) and 0 not in support
    full = model.full_hamiltonian(params, ts, omega_r, omega_b)
    for i, t in enumerate(ts.tolist()):
        _assert_bitwise_equal(full[i], _reference_full(params, t, float(omega_r[i]),
                                                       float(omega_b[i])))

    # the chain's dense sum, as the integrator built it before it took values
    kr, kb, d = model.reduced_coupling_parts(n_ions)
    expected = omega_r[:, None, None] * kr + omega_b[:, None, None] * kb + delta * d
    support, dimension, _ = model.reduced_support(n_ions)
    assert dimension == n_ions + 1
    values = model.reduced_values(params, omega_r, omega_b)
    assert values.shape == (len(ts), len(support) + 1) and 0 not in support
    _assert_bitwise_equal(model.expand(values, support, n_ions + 1), expected.astype(complex))
    stack = model.reduced_hamiltonian(params, omega_r, omega_b)
    _assert_bitwise_equal(stack, expected)
    assert stack.flags.c_contiguous  # BLAS rounds products with a strided view differently
    for i in range(len(ts)):
        one = model.reduced_hamiltonian(params, float(omega_r[i]), float(omega_b[i]))
        _assert_bitwise_equal(one, expected[i])
