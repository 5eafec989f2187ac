"""The block-built Hamiltonians against the per-time formulas they replace.

The integrator computes the coefficients of H(t) for many steps at once, and
its C kernel builds each H from them.  Its printed digits stay the same only
if every array element equals, bit for bit, what evaluating the schedule and
the Hamiltonian at one time gives, and the kernel's values equal the entries
of the model's dense builder, its numpy formula; these properties pin that,
signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickesim import evolution, model
from dickesim.spin_algebra import build_collective
from oracles import bits


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


_EDGE_TONES = [0.0, -0.0, np.nan, np.inf, 1e-320, 5e-324, 1.0, 2.0]


def _assert_same_words(a, b, nan_sign_free=False):
    """Word-for-word equality; with ``nan_sign_free``, an entry that is nan
    in both may differ in its sign bit."""
    words_a, words_b = (np.asarray(x, dtype=complex).view(float) for x in (a, b))
    differ = bits(words_a) != bits(words_b)
    if nan_sign_free:
        differ &= ~(np.isnan(words_a) & np.isnan(words_b))
    assert not np.any(differ)


@settings(max_examples=60, deadline=None)
@given(
    n_ions=st.integers(1, 8),
    delta=st.sampled_from([0.0, 0.5, 20.0]) | st.floats(0.0, 40.0),
    times=st.lists(st.sampled_from([0.0, 5e-324, 1e-320]) | st.floats(0.0, 500.0),
                   min_size=1, max_size=8),
    tone_seed=st.integers(0, 2**32 - 1),
    edge=st.booleans(),
)
def test_dense_builders_are_the_dense_sums(n_ions, delta, times, tone_seed, edge):
    # each builder is its sum of constant operators, stack and scalar call
    # alike, at t = 0, at +-0, nan, inf and subnormal tones too.  Where a nan
    # tone meets an inf tone, two nans of opposite signs meet in one sum, and
    # numpy's loops pick either by the entry's position: those entries need
    # only be nan
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    ts = np.array([0.0, *times])
    rng = np.random.default_rng(tone_seed)
    omega_r, omega_b = _tones(rng, len(ts), 1.0)
    if edge:
        omega_r, omega_b = rng.choice(_EDGE_TONES, (2, len(ts)))
    two_nans = (np.isnan(omega_r) & np.isinf(omega_b)) | (np.isinf(omega_r) & np.isnan(omega_b))

    kr, kb, d = model.reduced_coupling_parts(n_ions)
    with np.errstate(all="ignore"):
        full = model.full_hamiltonian(params, ts, omega_r, omega_b)
        chain = model.reduced_hamiltonian(params, omega_r, omega_b)
        expected = omega_r[:, None, None] * kr + omega_b[:, None, None] * kb + delta * d
        assert full.shape == (len(ts), *[(n_ions + 1) * (params.n_max + 1)] * 2)
        assert chain.dtype == np.float64 and chain.shape == (len(ts), n_ions + 1, n_ions + 1)
        # BLAS rounds products with a strided view differently
        assert full.flags.c_contiguous and chain.flags.c_contiguous
        _assert_same_words(chain, expected)
        for i, t in enumerate(ts.tolist()):
            wr, wb = float(omega_r[i]), float(omega_b[i])
            dense = _reference_full(params, t, wr, wb)
            _assert_same_words(full[i], dense, two_nans[i])
            _assert_same_words(model.full_hamiltonian(params, t, wr, wb), dense, two_nans[i])
            _assert_same_words(model.reduced_hamiltonian(params, wr, wb), expected[i], two_nans[i])


def _operators(tag, n_ions):
    """The model's operators as dense matrices, in the order of its parts,
    and its support tuple."""
    if tag == "reduced":
        return model.reduced_coupling_parts(n_ions), model.reduced_support(n_ions)
    n_max = model.SystemParams(n_ions=n_ions).n_max
    red, blue, _ = model.sideband_operators(n_ions, n_max)
    return (red, red.conj().T, blue, blue.conj().T), model.full_support(n_ions, n_max)


@pytest.mark.parametrize("n_ions", range(1, 9))
@pytest.mark.parametrize("tag", ["reduced", "full"])
def test_one_operator_is_nonzero_at_each_support_entry(tag, n_ions):
    # the premise of the kernel's grouped formula: at each support entry one
    # operator is nonzero, the bounds name it, and every zero of an operator
    # has the words of its entry at (0, 0), which is off the support
    ops, (support, dimension, parts, bounds, _) = _operators(tag, n_ions)
    flat = np.array([op.ravel() for op in ops])
    assert 0 not in support and len(set(support.tolist())) == len(support)
    assert np.array_equal(np.sort(support), np.flatnonzero(np.any(flat != 0, axis=0)))
    nonzero = flat[:, support] != 0
    assert np.all(np.sum(nonzero, axis=0) == 1)
    assert bounds[0] == 0 and bounds[-1] == len(support) and np.all(np.diff(bounds) >= 0)
    owner = np.repeat(np.arange(len(ops)), np.diff(bounds))
    assert np.array_equal(np.argmax(nonzero, axis=0), owner)
    assert np.array_equal(bits(parts), bits(flat[:, np.append(support, 0)]))
    for op, part in zip(flat, parts):
        zeros = op[op == 0]
        assert np.all(bits(zeros).reshape(len(zeros), -1) == bits(part[-1:]))


def _kernel_and_numpy_values(n_ions, delta, ts, omega_r, omega_b):
    """(tag, kernel values, numpy values) of each H at the times ``ts`` and
    tones: the values that rk4_block builds, in support order and then off
    the support, and the entries of the model's dense builder there."""
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    values = evolution._kernel().values
    for tag, rows, dense in (
        ("reduced", model.reduced_coefficients(omega_r, omega_b),
         model.reduced_hamiltonian(params, omega_r, omega_b)),
        ("full", model.full_coefficients(params, ts, omega_r, omega_b),
         model.full_hamiltonian(params, ts, omega_r, omega_b)),
    ):
        support, _, parts, bounds, (kind, *_) = _operators(tag, n_ions)[1]
        expected = np.ascontiguousarray(dense.reshape(len(ts), -1)[:, np.append(support, 0)],
                                        dtype=complex)
        at = np.arange(len(support), dtype=np.int64)
        for row, want in zip(rows, expected):
            out = np.full(len(support) + 1, np.nan, dtype=complex)
            values(kind, row.ctypes.data, parts.ctypes.data, bounds.ctypes.data, len(support),
                   delta, at.ctypes.data, out.ctypes.data, out[-1:].ctypes.data)
            yield tag, out, want


def _tones(rng, size, scale):
    """Random tones up to 2*scale, about 30 % of each exactly zero."""
    omega_r, omega_b = scale * rng.uniform(0.0, 2.0, (2, size))
    omega_r[rng.random(size) < 0.3] = 0.0
    omega_b[rng.random(size) < 0.3] = 0.0
    return omega_r, omega_b


# a product that underflows to zero may take the other sign of zero in
# numpy's fused SIMD loop (see _rk4.c), so no drive scale below 1e-100 is
# drawn here; the next test pins what happens below
@settings(max_examples=60, deadline=None)
@given(
    n_ions=st.integers(1, 8),
    delta=st.sampled_from([0.0, 0.5]) | st.floats(1e-100, 40.0),
    omega_bar=st.sampled_from([0.0, 1.0]) | st.floats(1e-100, 3.0),
    times=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=8),
    tone_seed=st.integers(0, 2**32 - 1),
)
def test_kernel_values_are_numpy_values_word_for_word(n_ions, delta, omega_bar, times,
                                                      tone_seed):
    ts = np.array([0.0, *times, 0.0, 500.0])
    omega_r, omega_b = _tones(np.random.default_rng(tone_seed), len(ts), 1.0)
    # the last two times at the ramp's ends, where one tone is exactly zero
    ramp = evolution.PulseSchedule(total_time=500.0, omega_bar=omega_bar)
    omega_r[-2:], omega_b[-2:] = ramp.amplitudes(ts[-2:])
    for tag, out, want in _kernel_and_numpy_values(n_ions, delta, ts, omega_r, omega_b):
        assert np.array_equal(bits(out), bits(want)), tag


_SUBNORMAL = [0.0, 5e-324, 1e-323, 2e-323, 7e-323, 1e-320, 1e-310, 3e-308]


@settings(max_examples=60, deadline=None)
@given(
    n_ions=st.integers(1, 8),
    delta=st.sampled_from([*_SUBNORMAL, 0.5, 20.0]) | st.floats(0.0, 1e-300),
    scale=st.sampled_from([*_SUBNORMAL, 1.0]) | st.floats(0.0, 1e-300),
    times=st.lists(st.sampled_from([*_SUBNORMAL, 1.0]) | st.floats(0.0, 500.0),
                   min_size=1, max_size=8),
    tone_seed=st.integers(0, 2**32 - 1),
)
# on an x86 CPU with AVX-512, ten of this example's words differ
@example(n_ions=2, delta=20.0, scale=1e-323, times=[87.41776894881181], tone_seed=1)
def test_kernel_values_differ_from_numpy_only_in_the_sign_of_an_underflowed_zero(
        n_ions, delta, scale, times, tone_seed):
    # with delta*t, a tone or a product of them below about 1e-300, a product
    # can underflow to zero, and numpy's SIMD loop, which may fuse one
    # product of each pair, can give that zero the other sign: every value
    # still equals numpy's, and any word that differs is a zero in both
    ts = np.array([0.0, *times])
    omega_r, omega_b = _tones(np.random.default_rng(tone_seed), len(ts), scale)
    for tag, out, want in _kernel_and_numpy_values(n_ions, delta, ts, omega_r, omega_b):
        assert np.array_equal(out, want), tag
        words, numpy_words = out.view(float), want.view(float)
        differ = bits(words) != bits(numpy_words)
        assert np.all(words[differ] == 0) and np.all(numpy_words[differ] == 0), tag
        if tag == "reduced":  # the chain's sums are real: no product is fused
            assert not np.any(differ)
