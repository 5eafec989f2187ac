"""The RK4 step against the textbook update it replaces, bit for bit.

``evolution._rk4`` runs each block's steps in the compiled kernel
``_rk4.c``, which builds each step's Hamiltonians from the model's
coefficients into a dense buffer, calls numpy's own zgemv, writes the
complex products and sums out on doubles, and carries the Schrodinger
equation's -i in its scalar coefficients.  Its printed digits stay the same
only if every state word equals the one of the plain numpy update with the
slopes k = -i*(H @ psi) on the dense matrices; ``_reference_rk4`` takes them
from the model's dense builder (``model.reduced_hamiltonian``,
``model.full_hamiltonian``) at the same times and keeps that update, and each
run below is integrated through both.

One regime is exempt from the word-for-word check: a product such as
s*(-i*y) that underflows to zero, below 1e-308, where the two formulas can
give that zero opposite signs, as can a product in a Hamiltonian entry,
which numpy's SIMD loop may fuse; every value still agrees (+0 == -0).  The
runs here are exempt when delta or omega_bar is nonzero and below 1e-15: a
product of at most about 15 such factors, one per coupling and RK4 stage
between basis states, can then fall below 1e-308.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import evolution, model
from dickesim.errors import NumericalError

_STEPS_PER_STACK = 64


def _reference_rk4(hamiltonians, psi0, total_time, n_steps, capture):
    """The textbook RK4 loop on dense matrices, with ``hamiltonians(ts)`` the
    dense stack at the times ``ts``, and capture as in ``evolution._rk4``.
    Each step's t is its own step*dt, as there.  The matrices are built
    ``_STEPS_PER_STACK`` steps at a time, which bounds their memory; every
    time's matrix has the same words in any stack."""
    dt = total_time / n_steps
    stop = capture[-1]
    psi = psi0.astype(complex)
    states = np.empty((len(capture), len(psi0)), dtype=complex)
    times = capture * dt
    pos = 0
    if capture[pos] == 0:
        states[pos] = psi
        pos += 1
    for first in range(0, stop, _STEPS_PER_STACK):
        t = np.arange(first, min(first + _STEPS_PER_STACK, stop)) * dt
        m = len(t)
        stack = np.asarray(hamiltonians(np.concatenate((t, t + dt / 2, t + dt))), dtype=complex)
        for j in range(m):
            h1, h2, h3 = stack[j], stack[m + j], stack[2 * m + j]
            k1 = -1j * (h1 @ psi)
            k2 = -1j * (h2 @ (psi + (dt / 2) * k1))
            k3 = -1j * (h2 @ (psi + (dt / 2) * k2))
            k4 = -1j * (h3 @ (psi + dt * k3))
            psi = psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if pos < len(capture) and capture[pos] == first + j + 1:
                states[pos] = psi
                pos += 1
    return times, states


class _Reversed(evolution.PulseSchedule):
    """The ramp run backwards, theta -> pi - theta: the two tones swap."""

    def amplitudes(self, t):
        omega_r, omega_b = super().amplitudes(t)
        return omega_b, omega_r


def _initial_state(rng, dimension):
    """A random unit state with exact +0 and -0 in some components."""
    parts = rng.normal(size=(2, dimension))
    zeros = rng.random((2, dimension)) < 0.3
    parts[zeros] = np.copysign(0.0, rng.normal(size=zeros.sum()))
    psi = parts[0] + 1j * parts[1]
    if not psi.any():
        psi[0] = 1.0
    return psi / np.linalg.norm(psi)


def _assert_same_bits(model_tag, schedule, params, capture_times=None, state_seed=None):
    """Run the integrator with every ``_rk4`` call also made by the reference
    on the same arguments, and compare the two outputs word for word (value
    for value where products can underflow).  With ``state_seed`` both start
    from a random state with signed zeros instead of |D^0>|0>."""
    step = evolution._rk4
    compared = []
    underflow = any(0 < scale < 1e-15 for scale in (params.delta, schedule.omega_bar))

    if model_tag == "reduced":
        model_operators = model.reduced_support(params.n_ions)

        def hamiltonians(ts):
            return model.reduced_hamiltonian(params, *schedule.amplitudes(ts))
    else:
        model_operators = model.full_support(params.n_ions, params.n_max)

        def hamiltonians(ts):
            return model.full_hamiltonian(params, ts, *schedule.amplitudes(ts))

    def both(coefficients, operators, delta, psi0, total_time, n_steps, capture):
        assert operators is model_operators and delta == params.delta
        if state_seed is not None:
            psi0 = _initial_state(np.random.default_rng(state_seed), len(psi0))
        times, states = step(coefficients, operators, delta, psi0, total_time, n_steps, capture)
        ref_times, ref_states = _reference_rk4(hamiltonians, psi0, total_time, n_steps, capture)
        assert np.array_equal(times.view(np.uint64), ref_times.view(np.uint64))
        assert np.array_equal(states, ref_states)
        if not underflow:
            assert np.array_equal(states.view(np.uint64), ref_states.view(np.uint64))
        compared.append(len(times))
        return times, states

    run = evolution.integrate_reduced if model_tag == "reduced" else evolution.integrate_full
    with mock.patch.object(evolution, "_rk4", both), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # adiabaticity, regime and truncation notes
        try:
            run(schedule, params, capture_times=capture_times)
        except NumericalError:
            pass  # the norm gate judges the step size, after the comparison
    assert compared


@st.composite
def _runs(draw):
    total_time = draw(st.floats(0.5, 4.0))
    schedule = draw(st.sampled_from([evolution.PulseSchedule, _Reversed]))(
        total_time=total_time,
        omega_bar=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0)),
        shape=draw(st.sampled_from(evolution.SCHEDULE_SHAPES)),
    )
    delta = draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 5.0))
    capture_times = draw(st.none() | st.lists(st.floats(0.0, total_time), min_size=1, max_size=4))
    state_seed = draw(st.none() | st.integers(0, 2**32 - 1))
    return schedule, delta, capture_times, state_seed


@pytest.mark.parametrize("n_ions", range(1, 7))
@pytest.mark.parametrize("model_tag", ["reduced", "full"])
@settings(max_examples=12, deadline=None)
@given(run=_runs())
def test_step_matches_textbook_update(model_tag, n_ions, run):
    schedule, delta, capture_times, state_seed = run
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    _assert_same_bits(model_tag, schedule, params, capture_times, state_seed)


_LINEAR = evolution.PulseSchedule(total_time=3.0)
_SMOOTH = evolution.PulseSchedule(total_time=3.0, shape="smoothstep")


@pytest.mark.parametrize("model_tag", ["reduced", "full"])
@pytest.mark.parametrize("schedule, n_ions, delta, capture_times, state_seed", [
    (evolution.PulseSchedule(total_time=3.0, omega_bar=0.0), 2, 2.0, None, None),
    (_LINEAR, 2, 0.0, None, None),
    (evolution.PulseSchedule(total_time=3.0, omega_bar=0.0), 4, 0.0, None, 11),
    (_Reversed(total_time=3.0, shape="smoothstep"), 4, 2.0, None, None),
    (_LINEAR, 3, 2.0, None, None),
    (_SMOOTH, 5, 1.0, [1.1, 0.4], None),
    (_LINEAR, 4, 2.0, [1.5], 12),
    (_Reversed(total_time=3.0, shape="smoothstep"), 2, 0.5, [0.0], 13),
    # underflowing products: a zero of the reduced N = 5 run changes sign
    (evolution.PulseSchedule(total_time=1.0, omega_bar=0.0), 5, 5e-324, None, 6326),
])
def test_step_matches_textbook_update_at_edges(model_tag, schedule, n_ions, delta,
                                               capture_times, state_seed):
    params = model.SystemParams(n_ions=n_ions, delta=delta)
    _assert_same_bits(model_tag, schedule, params, capture_times, state_seed)


def test_step_keeps_the_initial_state():
    schedule, params = evolution.adiabatic_preset("fast", 2)
    psi0 = _initial_state(np.random.default_rng(7), params.n_ions + 1)
    kept = psi0.copy()
    def coefficients(ts):
        return model.reduced_coefficients(*schedule.amplitudes(ts))

    evolution._rk4(coefficients, model.reduced_support(params.n_ions), params.delta, psi0,
                   schedule.total_time, 400, np.array([0, 10], dtype=np.int64))
    assert np.array_equal(psi0.view(np.uint64), kept.view(np.uint64))
