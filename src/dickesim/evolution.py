"""Schrodinger integration of STIRAP pulse schedules, reduced and full models.

The drive sweeps a mixing angle theta from 0 (pure red sideband, the
all-down state is dark) to pi (pure blue sideband, all-up dark), with tone
amplitudes Omega_b = omega_bar*(1 - cos theta), Omega_r = omega_bar*(1 + cos theta).

Integration is a fixed-step classical 4th-order Runge-Kutta with the
Hamiltonian sampled at the substage times; unitarity is checked after the
fact rather than enforced by construction, keeping runs deterministic and
reproducible.  H(t) does not depend on the state, so the Hamiltonians at t,
t + dt/2 and t + dt are built as (k, d, d) stacks for a block of k steps at
once; the RK4 arithmetic is the same per-step matrix-vector update as with
one Hamiltonian at a time, and gives the same bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dark_state import dark_coefficients
from .errors import NumericalError, PhysicsConfigError, ReducedModelWarning, TruncationWarning
from .model import (
    FullHamiltonian,
    SystemParams,
    embed_chain_state,
    interaction_to_chain_frame,
    reduced_coupling_parts,
)

SCHEDULE_SHAPES = ("linear", "smoothstep")
PRESET_NAMES = ("strict", "fast", "paper")

#: dimensionless eta*omega_bar*T below which adiabaticity is doubtful
ADIABATICITY_WARN_BELOW = 5.0

NORM_DRIFT_LIMIT = 1e-6
LEAK_WARN_LEVEL = 1e-3

#: bytes of the three complex Hamiltonian stacks (t, t + dt/2, t + dt) that
#: the integrator builds at once; sets how many steps share one block.  The
#: reduced chain's build briefly holds about 1.5 times this.
H_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class PulseSchedule:
    """Two-tone sideband ramp parameterized by a monotone mixing angle.

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
        if not self.total_time > 0:
            raise ValueError("total_time must be positive")
        if self.omega_bar < 0:
            raise ValueError("omega_bar must be nonnegative")
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
        """(Omega_r, Omega_b) at each time of the 1-D array ``t``.

        The one amplitude formula: the scalar ``omega_r``/``omega_b`` and the
        integrator's block builder both evaluate it, element by element in
        the same floating-point operations.
        """
        cos = np.cos(self._thetas(np.asarray(t, dtype=float)))
        return self.omega_bar * (1 + cos), self.omega_bar * (1 - cos)

    def omega_r(self, t: float) -> float:
        return self.amplitudes([t])[0][0]

    def omega_b(self, t: float) -> float:
        return self.amplitudes([t])[1][0]

    def adiabaticity(self, eta: float = 1.0) -> float:
        """Dimensionless eta * omega_bar * total_time."""
        return eta * self.omega_bar * self.total_time

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
    params = SystemParams(n_ions=n_ions, eta=1.0, delta=20.0 * omega_bar)
    return schedule, params


@dataclass
class Trajectory:
    """Sampled state history of one integration run."""

    times: np.ndarray
    states: np.ndarray            # (n_samples, dim), unit norm rows
    model_tag: str                # "reduced" | "full"
    n_ions: int
    params: SystemParams
    schedule: PulseSchedule
    max_norm_drift: float = 0.0
    truncation_leak: float = 0.0  # peak population of the top Fock level

    def index_of(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def state_at(self, t: float) -> np.ndarray:
        return self.states[self.index_of(t)]

    def midpoint_state(self) -> np.ndarray:
        return self.state_at(self.schedule.total_time / 2)

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _capture_steps(n_steps: int, extra: set[int]) -> np.ndarray:
    stride = max(1, n_steps // 2000)  # about 2001 samples
    steps = set(range(0, n_steps + 1, stride))
    steps.update((0, n_steps // 2, n_steps))
    steps.update(extra)
    return np.array(sorted(steps), dtype=int)


def _rk4(h_stack, psi0: np.ndarray, total_time: float, n_steps: int,
         capture: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4; ``h_stack(ts)`` returns the (len(ts), d, d) Hamiltonians."""
    dt = total_time / n_steps
    psi = psi0.astype(complex)
    states = np.empty((len(capture), len(psi0)), dtype=complex)
    times = capture * dt
    block = max(1, H_BLOCK_BYTES // (3 * 16 * len(psi0) ** 2))
    pos = 0
    if capture[pos] == 0:
        states[pos] = psi
        pos += 1
    for start in range(0, n_steps, block):
        # each step's own t = step*dt: (step + 1)*dt can differ in the last
        # bit from step*dt + dt, so the t + dt stack is not reused
        t = np.arange(start, min(start + block, n_steps)) * dt
        n = len(t)
        stack = h_stack(np.concatenate((t, t + dt / 2, t + dt)))
        for j in range(n):
            h1, h2, h3 = stack[j], stack[n + j], stack[2 * n + j]
            k1 = -1j * (h1 @ psi)
            k2 = -1j * (h2 @ (psi + (dt / 2) * k1))
            k3 = -1j * (h2 @ (psi + (dt / 2) * k2))
            k4 = -1j * (h3 @ (psi + dt * k3))
            psi = psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if pos < len(capture) and capture[pos] == start + j + 1:
                states[pos] = psi
                pos += 1
    return times, states


def _plan_steps(total_time: float, dt: float) -> int:
    n = int(np.ceil(total_time / dt))
    return n + (n % 2)  # even so the midpoint lands on the grid


def _check_norms(states: np.ndarray) -> float:
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= NORM_DRIFT_LIMIT:  # a nan drift fails too
        raise NumericalError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}; reduce the step size"
        )
    return drift


def _warn_adiabaticity(schedule: PulseSchedule, eta: float) -> None:
    value = schedule.adiabaticity(eta)
    if 0 < value < ADIABATICITY_WARN_BELOW:
        warnings.warn(
            f"eta*omega_bar*T = {value:.2f} is below {ADIABATICITY_WARN_BELOW}; "
            "the ramp is unlikely to be adiabatic",
            UserWarning,
            stacklevel=4,
        )


def _integrate(h_stack, dimension: int, schedule: PulseSchedule, params: SystemParams,
               dt: float | None, guard: float, coarse: str,
               initial_state: np.ndarray | None,
               capture_times: list[float] | None) -> tuple[np.ndarray, np.ndarray, float]:
    """RK4 from |D^0>|0> (basis index 0) or ``initial_state``, sampled on the
    capture grid plus the steps nearest ``capture_times``; returns
    (times, states, max norm drift).

    ``dt`` defaults to the model's stability ``guard`` and may not exceed it;
    ``coarse`` completes the error message when it does.
    """
    if dt is None:
        dt = guard
    elif dt > guard * (1 + 1e-9):
        raise PhysicsConfigError(f"dt = {dt:.3e} too coarse{coarse}")
    _warn_adiabaticity(schedule, params.eta)

    psi0 = np.zeros(dimension, dtype=complex)
    psi0[0] = 1.0
    if initial_state is not None:
        psi0 = np.asarray(initial_state, dtype=complex)
        if psi0.shape != (dimension,):
            raise ValueError(f"initial state must have length {dimension}")

    n_steps = _plan_steps(schedule.total_time, dt)
    extra = set()
    if capture_times is not None:
        extra = {int(round(t / (schedule.total_time / n_steps))) for t in capture_times}
    capture = _capture_steps(n_steps, extra)
    times, states = _rk4(h_stack, psi0, schedule.total_time, n_steps, capture)
    return times, states, _check_norms(states)


def integrate_reduced(schedule: PulseSchedule, params: SystemParams,
                      dt: float | None = None, coupling_scale: float = 1.0,
                      initial_state: np.ndarray | None = None,
                      capture_times: list[float] | None = None) -> Trajectory:
    """Integrate the chain model under a schedule, starting from |D^0>|0>.

    Warns with a ReducedModelWarning when the tones the ramp reaches leave
    the regime of ``SystemParams.reduced_model_trusted``.
    """
    n = params.n_ions
    rate = params.delta + n * params.eta * schedule.omega_bar
    guard = 0.1 / rate if rate > 0 else schedule.total_time / 200
    kr, kb, dmat = reduced_coupling_parts(n, params.eta, coupling_scale)
    dmat = params.delta * dmat
    peak = np.zeros(2)  # largest (Omega_r, Omega_b) the ramp reaches

    def h_stack(ts):
        wr, wb = schedule.amplitudes(ts)
        np.maximum(peak, (wr.max(), wb.max()), out=peak)
        # exact cast: matmul against the complex state would cast every step
        return (wr[:, None, None] * kr + wb[:, None, None] * kb + dmat).astype(complex)

    times, states, drift = _integrate(
        h_stack, n + 1, schedule, params, dt, guard,
        ": need dt*(delta + N*eta*omega_bar) <= 0.1", initial_state, capture_times,
    )
    if not params.with_amplitudes(*peak).reduced_model_trusted:
        warnings.warn(
            f"eta*Omega peaks at {params.eta * peak.max():.3g} against delta = "
            f"{params.delta:.3g}: the reduced chain needs 2*delta > "
            "10*eta*max(Omega_r, Omega_b) to neglect the off-resonant transitions "
            "that the full model keeps",
            ReducedModelWarning,
            stacklevel=2,
        )
    return Trajectory(times, states, "reduced", n, params, schedule, max_norm_drift=drift)


def integrate_full(schedule: PulseSchedule, params: SystemParams,
                   dt: float | None = None,
                   initial_state: np.ndarray | None = None,
                   capture_times: list[float] | None = None) -> Trajectory:
    """Integrate the interaction-picture spin-phonon model under a schedule.

    The state is kept in the interaction picture; use
    ``model.interaction_to_chain_frame`` before comparing against chain
    states.  Population reaching the top Fock level beyond 1e-3 raises a
    TruncationWarning.
    """
    n = params.n_ions
    ham = FullHamiltonian(params)
    rate = max(params.delta / 0.05, (params.delta + n * params.eta * schedule.omega_bar) / 0.1)
    guard = 1.0 / rate if rate > 0 else schedule.total_time / 200

    def h_stack(ts):
        return ham.at(ts, *schedule.amplitudes(ts))

    times, states, drift = _integrate(
        h_stack, ham.dimension, schedule, params, dt, guard, f" for delta = {params.delta}",
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
    return Trajectory(times, states, "full", n, params, schedule,
                      max_norm_drift=drift, truncation_leak=leak)


def truncated_scan(schedule: PulseSchedule, params: SystemParams,
                   cut_times: list[float], model: str = "reduced",
                   dt: float | None = None):
    """States at pulse-truncation times from a single integration pass.

    Truncating the drive at tau_c and measuring immediately is the same as
    sampling the running state at tau_c, so one pass serves every cut.
    Returned times are snapped to the integration grid.
    """
    for tc in cut_times:
        if not 0 <= tc <= schedule.total_time:
            raise ValueError(f"cut time {tc} outside [0, {schedule.total_time}]")
    if model == "reduced":
        traj = integrate_reduced(schedule, params, dt=dt, capture_times=list(cut_times))
    elif model == "full":
        traj = integrate_full(schedule, params, dt=dt, capture_times=list(cut_times))
    else:
        raise ValueError(f"model must be 'reduced' or 'full', got {model!r}")
    out = []
    for tc in cut_times:
        idx = traj.index_of(tc)
        out.append((float(traj.times[idx]), traj.states[idx]))
    return out


def dark_fidelity_at(traj: Trajectory, index: int) -> float:
    """Overlap of sample ``index`` with the analytic dark state of its drive.

    nan where both tones are off (no dark state defined) or the ion number
    is odd.
    """
    t = traj.times[index]
    wr, wb = (tone[0] for tone in traj.schedule.amplitudes([t]))
    if traj.n_ions % 2 != 0 or (wr == 0 and wb == 0):
        return np.nan
    target = dark_coefficients(traj.n_ions, wr, wb).chain_vector
    state = traj.states[index]
    if traj.model_tag == "full":
        state = interaction_to_chain_frame(state, t, traj.params)
        target = embed_chain_state(target, traj.n_ions, traj.params.n_max)
    return abs(np.vdot(target, state)) ** 2


def dark_fidelity_series(traj: Trajectory) -> np.ndarray:
    """``dark_fidelity_at`` over every sample of a trajectory."""
    return np.array([dark_fidelity_at(traj, i) for i in range(len(traj.times))])
