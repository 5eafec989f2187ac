"""The whole-trajectory readout against the per-sample formulas it replaces,
and runs stopped at a cut against the same step of the whole ramp.

``evolve`` prints every sample of a trajectory with ``str(v)``, so its
digits stay the same only if the stacked readout gives, bit for bit, what
the per-sample formulas kept here give one sample at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import evolution, model, observables
from dickesim.spin_algebra import build_collective, collective_coupling
from oracles import bits, embed, to_chain_frame

# ---------------------------------------------------------------------------
# per-sample reference formulas
# ---------------------------------------------------------------------------


def _reference_marginal(psi, model_tag, params):
    n = params.n_ions
    if model_tag == "full":
        mat = psi.reshape(n + 1, params.n_max + 1)
        return mat @ mat.conj().T
    rho = np.outer(psi, psi.conj())
    parity = np.arange(n + 1) % 2
    return rho * (parity[:, None] == parity[None, :])


def _reference_spin_columns(rho):
    """(<Jz> from the populations, Var(Jx), Var(Jy), Var(Jz)) of one matrix."""
    n = rho.shape[0] - 1
    jz_mean = float(np.sum((np.arange(n + 1) - n / 2) * np.real(np.diag(rho))))
    variances = []
    for axis in ("x", "y", "z"):
        j = build_collective(n, "j" + axis)
        mean = float(np.real(np.trace(rho @ j)))
        second = float(np.real(np.trace(rho @ (j @ j))))
        variances.append(max(second - mean**2, 0.0))
    return (jz_mean, *variances)


def _reference_dark_vector(n, omega_r, omega_b):
    half = n // 2
    coeffs = np.ones(half + 1)
    for i in range(1, half + 1):
        coeffs[i] = -coeffs[i - 1] * (collective_coupling(n, 2 * i - 2)
                                      / collective_coupling(n, 2 * i - 1))
    raw = np.array([coeffs[i] * omega_b**i * omega_r ** (half - i) for i in range(half + 1)])
    vec = np.zeros(n + 1)
    vec[0::2] = raw / np.linalg.norm(raw)
    return vec


def _reference_dark_fidelity(traj, index):
    t = traj.times[index]
    wr, wb = (tone[0] for tone in traj.schedule.amplitudes([t]))
    n = traj.params.n_ions
    if n % 2 != 0 or (wr == 0 and wb == 0):
        return np.nan
    target = _reference_dark_vector(n, wr, wb)
    state = traj.states[index]
    if traj.model_tag == "full":
        state = to_chain_frame(state, t, traj.params)
        target = embed(target, n, traj.params.n_max)
    return abs(np.vdot(target, state)) ** 2


# ---------------------------------------------------------------------------
# trajectories with random samples
# ---------------------------------------------------------------------------

@st.composite
def _trajectories(draw):
    model_tag = draw(st.sampled_from(["reduced", "full"]))
    n = draw(st.integers(1, 8))
    params = model.SystemParams(n_ions=n, delta=draw(st.floats(0.0, 40.0)))
    total_time = draw(st.floats(0.5, 500.0))
    schedule = evolution.PulseSchedule(
        total_time=total_time,
        omega_bar=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 3.0)),
        shape=draw(st.sampled_from(evolution.SCHEDULE_SHAPES)),
    )
    dim = n + 1 if model_tag == "reduced" else (n + 1) * (params.n_max + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_samples = draw(st.integers(1, 60))
    states = rng.normal(size=(n_samples, dim)) + 1j * rng.normal(size=(n_samples, dim))
    # integrated states keep exact zeros where the drive has not reached
    states[rng.random(states.shape) < 0.3] = 0.0
    states[np.arange(n_samples), rng.integers(0, dim, n_samples)] = 1.0
    states[0] = 0.0
    states[0, 0] = 1.0
    states /= np.linalg.norm(states, axis=1)[:, None]
    times = np.sort(rng.uniform(0.0, total_time, n_samples))
    times[0] = 0.0
    if n_samples > 1:
        times[-1] = total_time
    return evolution.Trajectory(times, states, model_tag, params, schedule)


@settings(max_examples=150, deadline=None)
@given(_trajectories())
def test_stacked_spin_readout_equals_per_sample_formulas(traj):
    rhos = traj.spin_marginals()
    columns = observables.spin_readout(rhos)
    for i, psi in enumerate(traj.states):
        rho = _reference_marginal(psi, traj.model_tag, traj.params)
        assert np.array_equal(rhos[i].view(np.uint64), rho.view(np.uint64))
        expected = _reference_spin_columns(rho)
        assert np.array_equal(bits([col[i] for col in columns]), bits(expected))
    # chosen samples, as scan-noise reads its cuts, take the same path
    cuts = traj.indices_of(np.linspace(0.0, traj.schedule.total_time, 7).tolist())
    assert np.array_equal(traj.spin_marginals(cuts).view(np.uint64), rhos[cuts].view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(_trajectories())
def test_dark_fidelity_series_equals_per_sample_formula(traj):
    series = evolution.dark_fidelity_series(traj)
    expected = [_reference_dark_fidelity(traj, i) for i in range(len(traj.times))]
    assert np.array_equal(bits(series), bits(expected))
    # a chosen sample, as sweep reads the midpoint, takes the same path
    index = traj.index_of(traj.schedule.total_time / 2)
    [single] = evolution.dark_fidelity_series(traj, [index])
    assert bits([single]) == bits([expected[index]])


@settings(max_examples=100, deadline=None)
@given(_trajectories(), st.integers(0, 2**32 - 1))
def test_chain_fidelities_equal_per_sample_overlaps(traj, seed):
    # as repro compares a full run with reduced runs: complex chain vectors,
    # repeated and unordered indices
    n = traj.params.n_ions
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, len(traj.times), 5).tolist()
    vectors = rng.normal(size=(5, n + 1)) + 1j * rng.normal(size=(5, n + 1))
    expected = []
    for i, vec in zip(indices, vectors):
        state = traj.states[i]
        if traj.model_tag == "full":
            state = to_chain_frame(state, traj.times[i], traj.params)
            vec = embed(vec, n, traj.params.n_max)
        expected.append(abs(np.vdot(vec, state)) ** 2)
    assert np.array_equal(bits(traj.chain_fidelities(indices, vectors)), bits(expected))


# ---------------------------------------------------------------------------
# whole trajectories, as evolve reads them
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_size_runs():
    """Integrated runs of about 2001 samples: large enough for the gemm and
    the stacks of many samples that a short random trajectory never builds."""
    strict = evolution.integrate_reduced(*evolution.adiabatic_preset("strict", 6))
    full = evolution.integrate_full(evolution.PulseSchedule(total_time=26.0),
                                    model.SystemParams(n_ions=6, delta=20.0))
    return strict, full


@pytest.mark.parametrize("which", [0, 1], ids=["strict-reduced-n6", "full-n6-t26"])
def test_whole_trajectory_readout_equals_per_sample_formulas(full_size_runs, which):
    traj = full_size_runs[which]
    n_samples = len(traj.times)
    assert n_samples >= 2001
    series = evolution.dark_fidelity_series(traj)
    expected = [_reference_dark_fidelity(traj, i) for i in range(n_samples)]
    assert np.array_equal(bits(series), bits(expected))

    # complex chain vectors on every sample in a shuffled order, as repro
    # compares a full run with reduced runs
    rng = np.random.default_rng(which)
    n = traj.params.n_ions
    indices = rng.permutation(n_samples)
    vectors = rng.normal(size=(n_samples, n + 1)) + 1j * rng.normal(size=(n_samples, n + 1))
    expected = []
    for i, vec in zip(indices, vectors):
        state = traj.states[i]
        if traj.model_tag == "full":
            state = to_chain_frame(state, traj.times[i], traj.params)
            vec = embed(vec, n, traj.params.n_max)
        expected.append(abs(np.vdot(vec, state)) ** 2)
    assert np.array_equal(bits(traj.chain_fidelities(indices, vectors)), bits(expected))

    rhos = traj.spin_marginals()
    columns = observables.spin_readout(rhos)
    expected = [_reference_spin_columns(_reference_marginal(psi, traj.model_tag, traj.params))
                for psi in traj.states]
    for k, column in enumerate(columns):
        assert np.array_equal(bits(column), bits([row[k] for row in expected]))


def test_spin_readout_rejects_unnormalized_matrices():
    rhos = np.stack([np.diag([1.0, 0.0]), np.diag([0.5, 0.6])]).astype(complex)
    with pytest.raises(ValueError, match="trace"):
        observables.spin_readout(rhos)


# ---------------------------------------------------------------------------
# runs stopped at a cut
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    model_tag=st.sampled_from(["reduced", "full"]),
    n=st.integers(1, 6),
    total_time=st.floats(5.0, 8.0),
    shape=st.sampled_from(evolution.SCHEDULE_SHAPES),
    cut_fraction=st.floats(0.0, 1.0),
)
def test_run_stopped_at_a_cut_equals_the_whole_ramp(model_tag, n, total_time, shape,
                                                    cut_fraction):
    schedule = evolution.PulseSchedule(total_time=total_time, shape=shape)
    params = model.SystemParams(n_ions=n, delta=20.0)
    integrate = evolution.integrate_reduced if model_tag == "reduced" else evolution.integrate_full
    cut = cut_fraction * total_time
    whole = integrate(schedule, params, capture_times=[cut, total_time])
    stopped = integrate(schedule, params, capture_times=[cut])
    # every sample of the stopped run is the whole ramp's, and it ends at
    # the step nearest the cut
    k = len(stopped.times)
    assert np.array_equal(stopped.times, whole.times[:k])
    assert np.array_equal(stopped.states.view(np.uint64), whole.states[:k].view(np.uint64))
    assert abs(stopped.times[-1] - cut) <= whole.times[1] / 2 * (1 + 1e-9)
    # and the sample nearest the cut is the same in both
    [index] = whole.indices_of([cut])
    [nearest] = stopped.indices_of([cut])
    assert stopped.times[nearest] == whole.times[index]
    assert np.array_equal(stopped.states[nearest].view(np.uint64),
                          whole.states[index].view(np.uint64))
