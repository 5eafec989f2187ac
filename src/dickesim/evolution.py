"""Schrodinger integration of STIRAP pulse schedules, reduced and full models.

The drive sweeps a mixing angle theta from 0 (pure red sideband, the
all-down state is dark) to pi (pure blue sideband, all-up dark), with tone
amplitudes Omega_b = omega_bar*(1 - cos theta), Omega_r = omega_bar*(1 + cos theta).

Integration is a fixed-step classical 4th-order Runge-Kutta with the
Hamiltonian sampled at the substage times; unitarity is checked after the
fact rather than enforced by construction, keeping runs deterministic and
reproducible.  H(t) does not depend on the state, so the Hamiltonians at t,
t + dt/2 and t + dt are built as (k, d, d) stacks for a block of k steps at
once.  Each step then makes four matrix-vector products y = H psi into
preallocated buffers and carries the Schrodinger equation's -i in its scalar
coefficients, not in H: 17 numpy calls a step, each at its cheapest entry
point (see ``_rk4``).  The step gives the same bits as the textbook update
with the slopes k = -i*H*psi, one Hamiltonian at a time, except for the sign
of a zero where a product underflows.

A run from |D^0>|0> fails with a ``NumericalError`` once its norm drifts so
far that the readout's ``observables.NORM_TOL`` would reject a sample.  The
``Trajectory`` records the steps taken, the step size, the largest norm
drift and, on the full model, the phonon-truncation leak, and it reads its
own model's states out: callers never branch on the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dark_state, observables
from .errors import NumericalError, PhysicsConfigError, ReducedModelWarning, TruncationWarning
from .observables import NORM_TOL
from .spin_algebra import collective_coupling
from .model import (
    FullHamiltonian,
    SystemParams,
    embed_chain_state,
    interaction_to_chain_frame,
    reduced_coupling_parts,
    reduced_hamiltonian,
)

SCHEDULE_SHAPES = ("linear", "smoothstep")
PRESET_NAMES = ("strict", "fast", "paper")

#: dimensionless eta*omega_bar*T below which adiabaticity is doubtful
ADIABATICITY_WARN_BELOW = 5.0

LEAK_WARN_LEVEL = 1e-3

#: norm drift allowed for a caller's own initial state.  The default step is
#: sized for runs from |D^0>|0>, which keep the detuned levels nearly empty;
#: a state that fills the chain's whole spectrum drifts faster at that step.
CALLER_STATE_DRIFT_LIMIT = 1e-6

#: bytes of the three complex Hamiltonian stacks (t, t + dt/2, t + dt) that
#: the integrator builds at once; sets how many steps share one block.  The
#: reduced chain's build briefly holds about 1.5 times this.
H_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class PulseSchedule:
    """Two-tone sideband ramp parameterized by a monotone mixing angle.

    ``omega_bar`` is the sideband Rabi rate eta*Omega_bar, the one drive scale.
    ``shape`` selects the built-in theta maps ("linear" or "smoothstep");
    ``theta_fn`` overrides them with an arbitrary map [0, T] -> radians
    (useful for reversed or experimental ramps; no endpoint check is applied
    to custom maps).
    """

    total_time: float
    omega_bar: float = 1.0
    shape: str = "linear"
    theta_fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if not 0 < self.total_time < np.inf:
            raise ValueError("total_time must be positive and finite")
        if not 0 <= self.omega_bar < np.inf:
            raise ValueError("omega_bar must be nonnegative and finite")
        if self.theta_fn is None and self.shape not in SCHEDULE_SHAPES:
            raise ValueError(f"shape must be one of {SCHEDULE_SHAPES}, got {self.shape!r}")

    def _thetas(self, t: np.ndarray) -> np.ndarray:
        if self.theta_fn is not None:
            return np.array([self.theta_fn(s) for s in t.tolist()], dtype=float)
        x = np.clip(t / self.total_time, 0.0, 1.0)
        if self.shape == "smoothstep":
            # per element in Python floats: numpy's array x**2 and x**3 round
            # differently from float.__pow__ in the last bit
            x = np.array([3 * s**2 - 2 * s**3 for s in x.tolist()])
        return np.pi * x

    def theta(self, t: float) -> float:
        return self._thetas(np.array([t], dtype=float))[0]

    def amplitudes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Omega_r, Omega_b) at each time of the 1-D array ``t``: the one
        amplitude formula, evaluated element by element in the same
        floating-point operations whatever the length of ``t``.
        """
        cos = np.cos(self._thetas(np.asarray(t, dtype=float)))
        return self.omega_bar * (1 + cos), self.omega_bar * (1 - cos)

    def adiabaticity(self) -> float:
        """The paper's dimensionless eta*Omega_bar*T."""
        return self.omega_bar * self.total_time

    def reversed(self) -> "PulseSchedule":
        """Same ramp with theta -> pi - theta (blue first, red last)."""
        return PulseSchedule(
            total_time=self.total_time,
            omega_bar=self.omega_bar,
            shape=self.shape,
            theta_fn=lambda t: np.pi - self.theta(t),
        )


def adiabatic_preset(name: str, n_ions: int):
    """Named (schedule, params) pairs.

    strict: delta = 20*eta*omega_bar and eta*omega_bar*T = 480; tracks the
        dark state to >= 0.99 midpoint fidelity for N <= 6 (the acceptance
        setting).
    fast:   same detuning ratio at eta*omega_bar*T = 40; quick demo runs,
        visibly incomplete transfer (the two-photon gap ~ (eta*omega_bar)^2
        / delta is too slow for this ramp time).
    paper:  experimental scale, peak per-tone sideband rate 2*pi*14 kHz and
        340 us ramp (about 4.8 peak-tone cycles); a realism preset, not an
        adiabatic-limit one.
    """
    if name == "strict":
        omega_bar, total_time = 1.0, 480.0
    elif name == "fast":
        omega_bar, total_time = 1.0, 40.0
    elif name == "paper":
        omega_bar = 2 * np.pi * 14e3 / 2  # rad/s; tones peak at 2*omega_bar
        total_time = 340e-6
    else:
        raise ValueError(f"preset must be one of {PRESET_NAMES}, got {name!r}")
    schedule = PulseSchedule(total_time=total_time, omega_bar=omega_bar)
    params = SystemParams(n_ions=n_ions, delta=20.0 * omega_bar)
    return schedule, params


@dataclass
class Trajectory:
    """Sampled state history of one integration run, and its readout.

    ``states`` holds chain states on the reduced model and spin-phonon
    product-space states on the full one; ``spin_marginals``,
    ``chain_fidelities`` and ``record`` read either out, so a caller never
    branches on ``model_tag``.  A run given capture times ends at the latest
    of them, so its last sample is that state and not the end of the ramp.
    """

    times: np.ndarray
    states: np.ndarray            # (n_samples, dim), unit norm rows
    model_tag: str                # "reduced" | "full"
    params: SystemParams
    schedule: PulseSchedule
    max_norm_drift: float = 0.0
    truncation_leak: float = 0.0  # peak population of the top Fock level
    n_steps: int = 0              # RK4 steps taken
    dt: float = 0.0               # RK4 step size

    def index_of(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def indices_of(self, times: list[float]) -> list[int]:
        """Indices of the samples nearest each of ``times``."""
        return [self.index_of(t) for t in times]

    def midpoint_state(self) -> np.ndarray:
        return self.states[self.index_of(self.schedule.total_time / 2)]

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def spin_marginals(self, indices: list[int] | None = None) -> np.ndarray:
        """(S, N+1, N+1) spin marginals of every sample, or of the samples
        at ``indices``; the phonon factor of the full model is traced out."""
        states = self.states if indices is None else self.states[indices]
        n_max = self.params.n_max if self.model_tag == "full" else None
        return observables.spin_marginals(states, self.params.n_ions, n_max)

    def chain_fidelities(self, indices, chain_vectors) -> np.ndarray:
        """|<v_k|psi_k>|^2 of the sample at ``indices[k]`` with the chain
        vector ``chain_vectors[k]``.  On the full model the overlap is read
        in the chain frame: the vector is lifted to its paired phonon
        numbers and the sample rotated out of the interaction picture at
        its own time."""
        out = np.empty(len(indices))
        for k, (i, vec) in enumerate(zip(indices, chain_vectors)):
            state = self.states[i]
            if self.model_tag == "full":
                state = interaction_to_chain_frame(state, self.times[i], self.params)
                vec = embed_chain_state(vec, self.params.n_ions, self.params.n_max)
            out[k] = abs(np.vdot(vec, state)) ** 2
        return out

    def record(self) -> dict:
        """What the integrator did, for a provenance header: propagator,
        steps, step size, norm drift and, on the full model, truncation leak."""
        leak = {"truncation_leak": self.truncation_leak} if self.model_tag == "full" else {}
        return {"propagator": "rk4", "n_steps": self.n_steps, "dt": self.dt,
                "max_norm_drift": self.max_norm_drift, **leak}


def _capture_steps(n_steps: int, extra: set[int]) -> np.ndarray:
    stride = max(1, n_steps // 2000)  # about 2001 samples
    steps = set(range(0, n_steps + 1, stride))
    steps.update((0, n_steps // 2, n_steps))
    steps.update(extra)
    return np.array(sorted(steps), dtype=int)


def _rk4(h_stack, psi0: np.ndarray, total_time: float, n_steps: int,
         capture: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over the ``n_steps`` grid of [0, total_time], stopping at
    the last captured step; ``h_stack(ts)`` returns the (len(ts), d, d)
    Hamiltonians.

    With H1, H2, H3 the Hamiltonians at t, t + dt/2 and t + dt, a step is

        y1 = H1 psi,  y2 = H2 (psi + c_h y1),  y3 = H2 (psi + c_h y2),
        y4 = H3 (psi + c_f y3),  psi <- psi + c_s (((y1 + 2 y2) + 2 y3) + y4),

    with c_h = -i dt/2, c_f = -i dt and c_s = -i dt/6, all in preallocated
    buffers.  It is the textbook update with slopes k = -i y, bit for bit:
    multiplying by -i only swaps the real and imaginary parts and negates
    one, so s*(-i*y) equals (-i*s)*y, and the sum of the -i*y equals -i
    times their sum.  The one exception is a product that underflows to zero
    (H near 1e-308), where the two can give that zero opposite signs.  The -i
    is not folded into H, because zgemv on a complex -i*H accumulates its
    products in another order and changes last bits.

    A step is 17 numpy calls: four ``ndarray.dot`` and 13 ufunc calls.  How
    each is called sets its cost, not its result.  ``h.dot(psi, out=y)`` runs
    the same matrix product (zgemv) as ``np.dot``, without passing through
    numpy's ``__array_function__`` dispatch.  The coefficients, and the 2 of
    the final sum, are 0-d complex128 arrays: a ufunc turns a scalar operand
    into just such an array on every call, so it multiplies the same values
    in the same loop.  The doubling stays a multiplication: y + y can differ
    from (2 + 0j)*y in the sign of a zero, since (2 + 0j)*(-0 - 1j) has real
    part +0 and (-0 - 1j) + (-0 - 1j) has -0.  Each step reads its three
    Hamiltonians as the rows of three slices of the block's stack, with no
    index arithmetic.
    """
    dt = total_time / n_steps
    c_h, c_f, c_s, two = (np.array(c) for c in (-0.5j * dt, -1j * dt, -1j * dt / 6, 2 + 0j))
    times = capture * dt
    capture = capture.tolist()  # Python ints: no numpy scalar compare per step
    stop = capture[-1]
    psi = psi0.astype(complex)
    states = np.empty((len(capture), len(psi0)), dtype=complex)
    y1, y2, y3, y4, arg = np.empty((5, len(psi0)), dtype=complex)
    add, mul = np.add, np.multiply  # looked up 13 times a step
    block = max(1, H_BLOCK_BYTES // (3 * 16 * len(psi0) ** 2))
    pos = 0
    if capture[pos] == 0:
        states[pos] = psi
        pos += 1
    for start in range(0, stop, block):
        # each step's own t = step*dt: (step + 1)*dt can differ in the last
        # bit from step*dt + dt, so the t + dt stack is not reused.  The
        # blocks are those of the whole ramp even where the run stops early,
        # so every Hamiltonian is built in the same array as in a full run.
        t = np.arange(start, min(start + block, n_steps)) * dt
        n = len(t)
        m = min(n, stop - start)
        stack = h_stack(np.concatenate((t, t + dt / 2, t + dt)))
        for step, h1, h2, h3 in zip(range(start + 1, start + m + 1), stack[:m],
                                    stack[n:n + m], stack[2 * n:2 * n + m]):
            h1.dot(psi, out=y1)
            add(psi, mul(c_h, y1, out=arg), out=arg)
            h2.dot(arg, out=y2)
            add(psi, mul(c_h, y2, out=arg), out=arg)
            h2.dot(arg, out=y3)
            add(psi, mul(c_f, y3, out=arg), out=arg)
            h3.dot(arg, out=y4)
            add(y1, mul(two, y2, out=y2), out=y1)
            add(y1, mul(two, y3, out=y3), out=y1)
            add(y1, y4, out=y1)
            add(psi, mul(c_s, y1, out=y1), out=psi)
            if capture[pos] == step:
                states[pos] = psi
                pos += 1
    return times, states


def _plan_steps(total_time: float, dt: float) -> int:
    n = max(1, int(np.ceil(total_time / dt)))  # an infinite guard plans one step
    return n + (n % 2)  # even so the midpoint lands on the grid


def _check_norms(states: np.ndarray, own_state: bool) -> float:
    """Largest norm drift |‖psi‖ - 1| of the samples.

    A run from |D^0>|0> fails where a sample's |psi|^2, the trace that the
    readout checks, is further than ``observables.NORM_TOL`` from 1: a drift
    that the readout would reject is a step-size failure and is reported
    here.  A run from the caller's ``own_state`` fails where the norm drift
    exceeds ``CALLER_STATE_DRIFT_LIMIT``.
    """
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if own_state:
        name, off, tol = "norm drift", drift, CALLER_STATE_DRIFT_LIMIT
    else:
        name, off, tol = "|psi|^2 drift", float(np.max(np.abs(norms**2 - 1.0))), NORM_TOL
    if not off <= tol:  # a nan drift fails too
        raise NumericalError(f"{name} {off:.3e} exceeds {tol:.0e}; reduce the step size")
    return drift


def _integrate(h_stack, dimension: int, schedule: PulseSchedule,
               dt: float | None, guard: float, coarse: str,
               initial_state: np.ndarray | None,
               capture_times: list[float] | None) -> tuple[np.ndarray, np.ndarray, dict]:
    """RK4 from |D^0>|0> (basis index 0) or ``initial_state``, sampled on the
    capture grid plus the steps nearest ``capture_times``, and stopped at the
    latest of those; returns (times, states, run record), the record being the
    ``Trajectory`` fields max_norm_drift, n_steps and dt.

    ``dt`` defaults to the model's stability ``guard`` and may not exceed it;
    ``coarse`` completes the error message when it does.  A capture time
    outside [0, T] is a ValueError.
    """
    if dt is None:
        dt = guard
    elif dt > guard * (1 + 1e-9):
        raise PhysicsConfigError(f"dt = {dt:.3e} too coarse{coarse}")
    if 0 < schedule.adiabaticity() < ADIABATICITY_WARN_BELOW:
        warnings.warn(
            f"eta*omega_bar*T = {schedule.adiabaticity():.2f} is below "
            f"{ADIABATICITY_WARN_BELOW}; the ramp is unlikely to be adiabatic",
            UserWarning,
            stacklevel=3,
        )

    psi0 = np.zeros(dimension, dtype=complex)
    psi0[0] = 1.0
    if initial_state is not None:
        psi0 = np.asarray(initial_state, dtype=complex)
        if psi0.shape != (dimension,):
            raise ValueError(f"initial state must have length {dimension}")

    n_steps = _plan_steps(schedule.total_time, dt)
    extra = set()
    if capture_times is not None:
        for t in capture_times:
            if not 0 <= t <= schedule.total_time:
                raise ValueError(f"capture time {t} outside [0, {schedule.total_time}]")
        extra = {int(round(t / (schedule.total_time / n_steps))) for t in capture_times}
    capture = _capture_steps(n_steps, extra)
    capture = capture[capture <= max(extra, default=n_steps)]
    times, states = _rk4(h_stack, psi0, schedule.total_time, n_steps, capture)
    record = {"max_norm_drift": _check_norms(states, initial_state is not None),
              "n_steps": int(capture[-1]), "dt": schedule.total_time / n_steps}
    return times, states, record


def integrate_reduced(schedule: PulseSchedule, params: SystemParams,
                      dt: float | None = None,
                      initial_state: np.ndarray | None = None,
                      capture_times: list[float] | None = None) -> Trajectory:
    """Integrate the chain model under a schedule, starting from |D^0>|0>.

    With ``capture_times``, each in [0, T], the run also samples the steps
    nearest those times and stops at the latest of them.  Warns with a
    ReducedModelWarning when the tones the ramp reaches leave the regime of
    ``SystemParams.reduced_model_trusted``.
    """
    n = params.n_ions
    kr, kb, _ = reduced_coupling_parts(n)
    # (Omega_r + Omega_b) * max coupling bounds the drive's norm; near delta = 0
    # RK4 keeps the norm to the readout's 1e-8 only with dt*drive <= 0.1/3
    drive = 2 * schedule.omega_bar * max(kr.max(), kb.max())
    rate = max(params.delta + n * schedule.omega_bar, 3 * drive)
    guard = 0.1 / rate if rate > 0 else schedule.total_time / 200
    peak = np.zeros(2)  # largest (Omega_r, Omega_b) the ramp reaches

    def h_stack(ts):
        wr, wb = schedule.amplitudes(ts)
        np.maximum(peak, (wr.max(), wb.max()), out=peak)
        # exact cast: matmul against the complex state would cast every step
        return reduced_hamiltonian(params, wr, wb).astype(complex)

    times, states, record = _integrate(
        h_stack, n + 1, schedule, dt, guard,
        ": need dt*max(delta + N*omega_bar, 6*omega_bar*max coupling) <= 0.1",
        initial_state, capture_times,
    )
    if not params.reduced_model_trusted(peak.max()):
        warnings.warn(
            f"the sideband rate peaks at {peak.max():.3g} against delta = "
            f"{params.delta:.3g}: the reduced chain needs 2*delta > "
            "10*max(Omega_r, Omega_b) to neglect the off-resonant transitions "
            "that the full model keeps",
            ReducedModelWarning,
            stacklevel=2,
        )
    return Trajectory(times, states, "reduced", params, schedule, **record)


def integrate_full(schedule: PulseSchedule, params: SystemParams,
                   dt: float | None = None,
                   initial_state: np.ndarray | None = None,
                   capture_times: list[float] | None = None) -> Trajectory:
    """Integrate the interaction-picture spin-phonon model under a schedule.

    The state is kept in the interaction picture;
    ``Trajectory.chain_fidelities`` compares it with chain states in the
    chain's frame.  Population reaching the top Fock level beyond 1e-3
    raises a TruncationWarning.  ``capture_times`` work as in
    ``integrate_reduced``.
    """
    n = params.n_ions
    ham = FullHamiltonian(params)
    # |a J+| = sqrt(n_max) * max R_k; the bound counts Fock levels that a
    # run seldom fills, so dt*drive <= 0.05 suffices
    drive = (2 * schedule.omega_bar * np.sqrt(params.n_max)
             * max(collective_coupling(n, k) for k in range(n)))
    rate = max(params.delta / 0.05, (params.delta + n * schedule.omega_bar) / 0.1, drive / 0.05)
    guard = 1.0 / rate if rate > 0 else schedule.total_time / 200

    def h_stack(ts):
        return ham.at(ts, *schedule.amplitudes(ts))

    times, states, record = _integrate(
        h_stack, ham.dimension, schedule, dt, guard, f" for delta = {params.delta}",
        initial_state, capture_times,
    )
    top = np.abs(states[:, params.n_max::(params.n_max + 1)]) ** 2
    leak = float(np.max(np.sum(top, axis=1)))
    if leak > LEAK_WARN_LEVEL:
        warnings.warn(
            f"top Fock level reaches population {leak:.2e}; increase n_max",
            TruncationWarning,
            stacklevel=2,
        )
    return Trajectory(times, states, "full", params, schedule, truncation_leak=leak, **record)


def dark_fidelity_series(traj: Trajectory,
                         indices: list[int] | np.ndarray | None = None) -> np.ndarray:
    """Overlap of each sample, or of the samples at ``indices``, with the
    analytic dark state of its drive.

    nan where both tones are off (no dark state defined) or the ion number
    is odd.
    """
    if indices is None:
        indices = np.arange(len(traj.times))
    times = traj.times[indices]
    out = np.full(len(times), np.nan)
    n = traj.params.n_ions
    if n % 2 != 0:
        return out
    coeffs = dark_state.closed_form_coefficients(n)
    wr, wb = traj.schedule.amplitudes(times)
    driven = np.flatnonzero((wr != 0) | (wb != 0))
    targets = [dark_state.chain_vector(dark_state.normalized_amplitudes(coeffs, wr[k], wb[k])[1])
               for k in driven]
    out[driven] = traj.chain_fidelities(np.asarray(indices)[driven], targets)
    return out


def transfer_numbers(traj: Trajectory) -> tuple[float, float]:
    """(final <Jz>, midpoint dark-state fidelity) of a whole-ramp chain run."""
    n = traj.params.n_ions
    final_jz = float(np.sum((np.arange(n + 1) - n / 2) * np.abs(traj.final_state()) ** 2))
    [mid_fid] = dark_fidelity_series(traj, [traj.index_of(traj.schedule.total_time / 2)])
    return final_jz, float(mid_fid)


def strict_midpoint(n_ions: int) -> np.ndarray:
    """Spin marginal at the midpoint of the strict preset's ramp; the ramp is
    integrated only that far, since no later state is read."""
    schedule, params = adiabatic_preset("strict", n_ions)
    traj = integrate_reduced(schedule, params, capture_times=[schedule.total_time / 2])
    return observables.spin_density_from_chain(traj.final_state())
