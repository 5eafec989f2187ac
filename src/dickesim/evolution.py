"""Schrodinger integration of STIRAP pulse schedules, reduced and full models.

The drive sweeps a mixing angle theta from 0 (pure red sideband, the
all-down state is dark) to pi (pure blue sideband, all-up dark), with the
tone amplitudes of ``tones``.

Integration is fixed-step classical RK4 with the Hamiltonian sampled at the
substage times; unitarity is checked after the fact, not enforced, so runs
stay deterministic.  H(t) does not depend on the state, so each model builds
the Hamiltonians of a block of steps at once as support values (the entries
where some operator is nonzero, and the one value all others share), and
the C kernel ``_rk4.c`` runs the block in one call through numpy's own
zgemv; every state word equals that of numpy's textbook update on the dense
matrices (see ``_rk4`` and ``_kernel``).

Every run starts from |D^0>|0> and fails with a ``NumericalError`` once its
norm drifts so far that the readout's ``observables.NORM_TOL`` would reject
a sample.  The ``Trajectory`` records the steps, the step size, the largest
norm drift and, on the full model, the phonon-truncation leak, and reads its
own model's states out: callers never branch on the model.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import dark_state, observables
from .errors import NumericalError, PhysicsConfigError, ReducedModelWarning, TruncationWarning
from .observables import NORM_TOL, READOUT_CHUNK
from .spin_algebra import collective_coupling, projections
from .model import (
    SystemParams,
    chain_indices,
    full_support,
    full_values,
    reduced_support,
    reduced_values,
)

SCHEDULE_SHAPES = ("linear", "smoothstep")
PRESET_NAMES = ("strict", "fast", "paper")

#: dimensionless eta*omega_bar*T below which adiabaticity is doubtful
ADIABATICITY_WARN_BELOW = 5.0

LEAK_WARN_LEVEL = 1e-3

#: bytes that building one block's Hamiltonians may hold at once, which sets
#: the steps per block: the values at t, t + dt/2 and t + dt of k steps are
#: (3k, s+1) complex numbers, a third of this, as the full model's sum keeps
#: up to three such arrays alive.
H_BLOCK_BYTES = 1 << 20


def tones(theta, omega_bar: float = 1.0):
    """(Omega_r, Omega_b) = omega_bar*(1 + cos theta), omega_bar*(1 - cos theta)
    at the ramp angle ``theta``, a number or an array."""
    cos = np.cos(theta)
    return omega_bar * (1 + cos), omega_bar * (1 - cos)


@dataclass(frozen=True)
class PulseSchedule:
    """Two-tone sideband ramp parameterized by a monotone mixing angle.

    ``omega_bar`` is the sideband Rabi rate eta*Omega_bar, the one drive scale.
    ``shape`` selects the theta map from 0 to pi over [0, T]: "linear" or
    "smoothstep".
    """

    total_time: float
    omega_bar: float = 1.0
    shape: str = "linear"

    def __post_init__(self):
        if not 0 < self.total_time < np.inf:
            raise ValueError("total_time must be positive and finite")
        if not 0 <= self.omega_bar < np.inf:
            raise ValueError("omega_bar must be nonnegative and finite")
        if self.shape not in SCHEDULE_SHAPES:
            raise ValueError(f"shape must be one of {SCHEDULE_SHAPES}, got {self.shape!r}")

    def _thetas(self, t: np.ndarray) -> np.ndarray:
        x = np.clip(t / self.total_time, 0.0, 1.0)
        if self.shape == "smoothstep":
            x = x * x * (3 - 2 * x)
        return np.pi * x

    def amplitudes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Omega_r, Omega_b) at each time of the 1-D array ``t`` by ``tones``,
        element by element in the same words whatever the length of ``t``."""
        return tones(self._thetas(np.asarray(t, dtype=float)), self.omega_bar)

    def adiabaticity(self) -> float:
        """The paper's dimensionless eta*Omega_bar*T."""
        return self.omega_bar * self.total_time


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
    product-space states on the full one; the methods read either out, so a
    caller never branches on ``model_tag``.  A run given capture times ends
    at the latest of them, not at the end of the ramp.
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

    @property
    def midpoint(self) -> int:
        """Index of the sample nearest T/2."""
        return self.index_of(self.schedule.total_time / 2)

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
        vector ``chain_vectors[k]``, on the full model in the chain frame:
        the vector lifted to its paired phonon numbers, the sample rotated
        out of the interaction picture at its own time.

        Stacks of ``READOUT_CHUNK`` samples give each the words of
        ``abs(np.vdot(v, psi)) ** 2`` alone.  An array's ``x ** 2`` rounds
        otherwise than libm's ``pow``, which a Python float calls.  So does
        ``np.abs`` of a complex array against Python's ``abs``, so both act
        on an object array.  A matmul of conjugate rows and columns runs
        vdot's own dot product.  numpy elides ``states * np.exp(...)`` into
        its temporary from 256 KiB on and changes words, so the rotation is
        bound to a name first."""
        indices, vectors = np.asarray(indices, dtype=np.intp), np.asarray(chain_vectors)
        full = self.model_tag == "full"
        if full:
            n, n_max = self.params.n_ions, self.params.n_max
            nvec = np.tile(np.arange(n_max + 1), n + 1)  # phonon number of each product state
            chain = chain_indices(n, n_max)
        overlaps = np.empty(len(indices), dtype=complex)
        for start in range(0, len(indices), READOUT_CHUNK):
            chunk = slice(start, start + READOUT_CHUNK)
            rows, vecs = indices[chunk], vectors[chunk]
            states = self.states[rows]
            if full:
                rotation = np.exp((-1j * self.params.delta * self.times[rows])[:, None] * nvec)
                states = states * rotation
                vecs = np.zeros_like(states)
                vecs[:, chain] = vectors[chunk]
            overlaps[chunk] = (vecs.conj()[:, None, :] @ states[:, :, None])[:, 0, 0]
        return (np.abs(overlaps.astype(object)) ** 2).astype(float)

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
    return np.array(sorted(steps), dtype=np.int64)


def _rk4(h_values, support: np.ndarray, psi0: np.ndarray, total_time: float,
         n_steps: int, capture: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over the ``n_steps`` grid of [0, total_time], stopping at
    the last captured step; ``h_values(ts)`` returns the (len(ts), s+1)
    values of the Hamiltonians at ``ts`` on the s flat indices ``support``,
    as ``model.expand`` reads them, and ``capture`` holds the int64 step
    numbers to sample.

    With H1, H2, H3 the Hamiltonians at t, t + dt/2 and t + dt, a step is

        y1 = H1 psi,  y2 = H2 (psi + c_h y1),  y3 = H2 (psi + c_h y2),
        y4 = H3 (psi + c_f y3),  psi <- psi + c_s (((y1 + 2 y2) + 2 y3) + y4),

    with c_h = -i dt/2, c_f = -i dt and c_s = -i dt/6.  It is the textbook
    update with slopes k = -i y, bit for bit: multiplying by -i only swaps
    the real and imaginary parts and negates one, so s*(-i*y) equals
    (-i*s)*y, and the sum of the -i*y equals -i times their sum.  The one
    exception is a product that underflows to zero (H near 1e-308), where the
    two can give that zero opposite signs.  The -i is not folded into H,
    because zgemv on a complex -i*H accumulates its products in another
    order and changes last bits.

    Python builds each block's values and makes one call of the C kernel
    ``rk4_block`` (``_rk4.c``, loaded by ``_kernel``).  Each step expands
    H1, H2 and H3 into a zeroed (3, d, d) buffer in ``model.expand``'s
    words: the support values every step, the other entries only when their
    bits differ from the (0, 0) word.  The four products y = H x go through
    numpy's own zgemv with ``ndarray.dot``'s arguments; the stage arguments
    and the final sum round each product before adding it, as numpy's
    complex loops do, so the kernel is built with floating-point contraction
    off (a fused multiply-add can flip the sign of an underflowed zero).
    The doubling stays a product with 2 + 0i: y + y can differ from
    (2 + 0j)*y in the sign of a zero.  Arrays of the wrong type, layout,
    shape or range raise ValueError in Python and never reach C.
    """
    dt = total_time / n_steps
    coef = np.array([-0.5j * dt, -1j * dt, -1j * dt / 6])  # c_h, c_f, c_s
    times = capture * dt
    stop = int(capture[-1])
    psi = psi0.astype(complex)
    d = len(psi0)
    states = np.empty((len(capture), d), dtype=complex)
    work = np.empty((5, d), dtype=complex)  # y1, y2, y3, y4 and a stage argument
    buffer = np.zeros((3, d, d), dtype=complex)  # H1, H2, H3 of the current step
    block = max(1, H_BLOCK_BYTES // 3 // (3 * 16 * (len(support) + 1)))
    pos = 0
    if capture[pos] == 0:
        states[pos] = psi
        pos += 1
    for start in range(0, stop, block):
        # each step's own t = step*dt, since (step + 1)*dt can differ in the
        # last bit from step*dt + dt; the blocks are the whole ramp's even
        # where a run stops early, so each H is built in the same array.
        t = np.arange(start, min(start + block, n_steps)) * dt
        n = len(t)
        values = h_values(np.concatenate((t, t + dt / 2, t + dt)))
        _check_block(values, support, buffer, n, psi, states, capture)
        pos = _kernel()(values.ctypes.data, support.ctypes.data, len(support),
                        buffer.ctypes.data, n, min(n, stop - start), d,
                        coef.ctypes.data, psi.ctypes.data, work.ctypes.data, start,
                        capture.ctypes.data, len(capture), pos, states.ctypes.data)
    return times, states


def _check_block(values, support, buffer, n: int, psi: np.ndarray, states: np.ndarray,
                 capture: np.ndarray) -> None:
    """ValueError unless the arrays of one kernel call have the dtype, layout
    and shape that ``rk4_block`` reads and writes through raw pointers, and
    the support holds distinct flat indices of a d x d matrix other than 0."""
    d = len(psi)
    s = len(support) if isinstance(support, np.ndarray) and support.ndim == 1 else -1
    for name, array, dtype, shape in (
        ("support", support, np.int64, (s,)),
        ("value array", values, np.complex128, (3 * n, s + 1)),
        ("Hamiltonian buffer", buffer, np.complex128, (3, d, d)),
        ("state", psi, np.complex128, (d,)),
        ("sample array", states, np.complex128, (len(capture), d)),
        ("capture steps", capture, np.int64, (len(capture),)),
    ):
        if not (isinstance(array, np.ndarray) and array.dtype == dtype
                and array.shape == shape and array.flags.c_contiguous
                and array.flags.aligned):
            got = (f"{array.dtype} {array.shape}" if isinstance(array, np.ndarray)
                   else type(array).__name__)
            want = "1-D" if name == "support" else f"shape {shape}"
            raise ValueError(f"the RK4 kernel needs a C-contiguous {np.dtype(dtype)} "
                             f"{name} of {want}, got {got}")
    ordered = np.sort(support)  # np.unique would import numpy.ma
    if s and not (ordered[0] >= 1 and ordered[-1] < d * d and np.all(ordered[1:] > ordered[:-1])):
        raise ValueError(f"the RK4 kernel needs distinct support indices in [1, {d * d})")


#: zgemv symbols that numpy's bundled BLAS may export, with their integer type
_ZGEMV_SYMBOLS = (("scipy_cblas_zgemv64_", "int64_t"), ("cblas_zgemv64_", "int64_t"),
                  ("scipy_cblas_zgemv", "int"), ("cblas_zgemv", "int"))
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def _kernel():
    """The C function ``rk4_block``, loaded on the first integration.

    zgemv comes from numpy's own BLAS, through the handle of numpy's
    extension module.  The library is ``__pycache__/_rk4-<hash>.so`` beside
    this file, the hash covering the C source, compiler flags and zgemv
    symbol; ``cc`` compiles a missing one, into this process's own temporary
    directory where ``__pycache__`` cannot be written.  Failures raise
    OSError with a one-line message.
    """
    import ctypes
    import hashlib
    import tempfile
    from pathlib import Path

    from numpy._core import _multiarray_umath
    blas = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym also searches its BLAS
    for symbol, blas_int in _ZGEMV_SYMBOLS:
        if hasattr(blas, symbol):
            break
    else:
        raise OSError("numpy's BLAS exports no zgemv that the RK4 kernel knows: tried "
                      + ", ".join(name for name, _ in _ZGEMV_SYMBOLS))
    source = Path(__file__).with_name("_rk4.c")
    flags = [*_KERNEL_FLAGS, f"-DBLAS_INT={blas_int}"]
    key = b"\0".join([source.read_bytes(), *(f.encode() for f in flags), symbol.encode()])
    library = source.with_name("__pycache__") / f"_rk4-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if library.exists() or _writable(library.parent):
        if not library.exists():
            _compile(source, flags, library)
        lib = ctypes.CDLL(str(library))
    else:
        with tempfile.TemporaryDirectory(prefix="dickesim-") as private:
            lib = ctypes.CDLL(str(_compile(source, flags, Path(private) / library.name)))
        # the loaded library stays mapped after its directory is gone
    step = lib.rk4_block
    pointer, int64 = ctypes.c_void_p, ctypes.c_int64
    step.argtypes = [pointer, pointer, pointer, int64, pointer, int64, int64, int64,
                     pointer, pointer, pointer, int64, pointer, int64, int64, pointer]
    step.restype = int64
    return functools.partial(step, ctypes.cast(getattr(blas, symbol), pointer))


def _writable(directory) -> bool:
    """Whether a file can be created in ``directory``, made if missing."""
    import tempfile

    try:
        directory.mkdir(exist_ok=True)
        with tempfile.TemporaryFile(dir=directory):
            return True
    except OSError:
        return False


def _compile(source, flags: list[str], library):
    """Compile ``source`` with ``cc`` into ``library`` through a temporary
    file and an atomic rename, so that processes building at once each load
    a whole library, then remove the other ``_rk4-*.so`` files there where
    possible (a process that loaded one keeps it mapped); OSError with the
    compiler's stderr on one line if cc fails or is missing."""
    import contextlib
    import os
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=library.stem + "-", suffix=".tmp", dir=library.parent)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(["cc", *flags, "-o", tmp, str(source)],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise OSError(f"cannot build the RK4 kernel: no C compiler cc ({exc})") from None
        if proc.returncode != 0:
            stderr = " | ".join(line.strip() for line in proc.stderr.splitlines() if line.strip())
            raise OSError(f"cannot build the RK4 kernel: cc exited with status "
                          f"{proc.returncode}: {stderr}")
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would keep other users from loading it
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in library.parent.glob("_rk4-*.so"):
        if stale != library:
            with contextlib.suppress(OSError):
                stale.unlink()
    return library


def _plan_steps(total_time: float, dt: float, levels: int = 1) -> int:
    # steps x dimension <= 2^31 x (N + 1): 2^31 steps on the chain (under an
    # hour at 0.8-1.5 us a step on one x86 core), 2^31/levels on the full
    # model, whose step costs about its dimension: 5.2, 11.4, 32.4 us at d = 18, 35, 81
    if not total_time / dt <= 2.0**31 / levels:
        of = "" if levels == 1 else f"/(n_max + 1) = 2^31/{levels}"
        raise PhysicsConfigError(f"{total_time / dt:.3g} steps exceed the limit of 2^31{of}")
    n = max(1, int(np.ceil(total_time / dt)))  # an infinite guard plans one step
    return n + (n % 2)  # even so the midpoint lands on the grid


def _check_norms(states: np.ndarray) -> float:
    """Largest norm drift |‖psi‖ - 1| of the samples; a NumericalError where
    a sample's |psi|^2, the trace that the readout checks, is further than
    ``observables.NORM_TOL`` from 1, a step-size failure reported here."""
    norms = np.linalg.norm(states, axis=1)
    off = float(np.max(np.abs(norms**2 - 1.0)))
    if not off <= NORM_TOL:  # a nan drift fails too
        raise NumericalError(f"|psi|^2 drift {off:.3e} exceeds {NORM_TOL:.0e}; reduce the step size")
    return float(np.max(np.abs(norms - 1.0)))


def _integrate(h_values, support: np.ndarray, dimension: int, schedule: PulseSchedule,
               dt: float | None, guard: float, coarse: str, capture_times: list[float] | None,
               levels: int = 1) -> tuple[np.ndarray, np.ndarray, dict]:
    """RK4 from |D^0>|0> (basis index 0 of both models), sampled on the
    capture grid and at the steps nearest ``capture_times``, stopped at the
    latest of those; returns (times, states, the ``Trajectory`` fields
    max_norm_drift, n_steps and dt).  ``dt`` defaults to the model's
    stability ``guard`` and may not exceed it (``coarse`` completes that
    error).  A capture time outside [0, T] is a ValueError.
    """
    if dt is None:
        dt = guard
    elif dt > guard * (1 + 1e-9):
        raise PhysicsConfigError(f"dt = {dt:.3e} too coarse{coarse}")
    if 0 < schedule.adiabaticity() < ADIABATICITY_WARN_BELOW:
        warnings.warn(f"eta*omega_bar*T = {schedule.adiabaticity():.2f} is below "
                      f"{ADIABATICITY_WARN_BELOW}; the ramp is unlikely to be adiabatic",
                      UserWarning, stacklevel=3)

    psi0 = np.zeros(dimension, dtype=complex)
    psi0[0] = 1.0

    n_steps = _plan_steps(schedule.total_time, dt, levels)
    extra = set()
    if capture_times is not None:
        for t in capture_times:
            if not 0 <= t <= schedule.total_time:
                raise ValueError(f"capture time {t} outside [0, {schedule.total_time}]")
        extra = {int(round(t / (schedule.total_time / n_steps))) for t in capture_times}
    capture = _capture_steps(n_steps, extra)
    capture = capture[capture <= max(extra, default=n_steps)]
    times, states = _rk4(h_values, support, psi0, schedule.total_time, n_steps, capture)
    record = {"max_norm_drift": _check_norms(states),
              "n_steps": int(capture[-1]), "dt": schedule.total_time / n_steps}
    return times, states, record


def integrate_reduced(schedule: PulseSchedule, params: SystemParams,
                      dt: float | None = None,
                      capture_times: list[float] | None = None) -> Trajectory:
    """Integrate the chain model under a schedule, starting from |D^0>|0>.

    With ``capture_times``, each in [0, T], the run also samples the steps
    nearest those times and stops at the latest of them.  Warns with a
    ReducedModelWarning when the ramp's peak tone, 2*omega_bar, leaves the
    regime of ``SystemParams.reduced_model_trusted``.
    """
    n = params.n_ions
    # (Omega_r + Omega_b) * max coupling bounds the drive's norm; near delta = 0
    # RK4 keeps the norm to the readout's 1e-8 only with dt*drive <= 0.1/3
    drive = 2 * schedule.omega_bar * max(collective_coupling(n, k) for k in range(n))
    rate = max(params.delta + n * schedule.omega_bar, 3 * drive)
    guard = 0.1 / rate if rate > 0 else schedule.total_time / 200

    def h_values(ts):
        return reduced_values(params, *schedule.amplitudes(ts))

    times, states, record = _integrate(
        h_values, reduced_support(n)[0], n + 1, schedule, dt, guard,
        ": need dt*max(delta + N*omega_bar, 6*omega_bar*max coupling) <= 0.1", capture_times,
    )
    peak = 2 * schedule.omega_bar  # the red tone at t = 0, where every run starts
    if not params.reduced_model_trusted(peak):
        warnings.warn(f"the sideband rate peaks at {peak:.3g} against delta = "
                      f"{params.delta:.3g}: the reduced chain needs 2*delta > "
                      "10*max(Omega_r, Omega_b) to neglect the off-resonant transitions "
                      "that the full model keeps", ReducedModelWarning, stacklevel=2)
    return Trajectory(times, states, "reduced", params, schedule, **record)


def integrate_full(schedule: PulseSchedule, params: SystemParams,
                   dt: float | None = None,
                   capture_times: list[float] | None = None) -> Trajectory:
    """Integrate the spin-phonon model ``full_values`` as ``integrate_reduced``
    does the chain; a TruncationWarning when the top Fock level's population
    exceeds 1e-3."""
    n = params.n_ions
    # |a J+| = sqrt(n_max) * max R_k; the bound counts Fock levels that a
    # run seldom fills, so dt*drive <= 0.05 suffices
    drive = (2 * schedule.omega_bar * np.sqrt(params.n_max)
             * max(collective_coupling(n, k) for k in range(n)))
    rate = max(params.delta / 0.05, (params.delta + n * schedule.omega_bar) / 0.1, drive / 0.05)
    guard = 1.0 / rate if rate > 0 else schedule.total_time / 200

    def h_values(ts):
        return full_values(params, ts, *schedule.amplitudes(ts))

    times, states, record = _integrate(
        h_values, full_support(n, params.n_max)[0], (n + 1) * (params.n_max + 1),
        schedule, dt, guard, f" for delta = {params.delta}", capture_times, params.n_max + 1,
    )
    top = np.abs(states[:, params.n_max::(params.n_max + 1)]) ** 2
    leak = float(np.max(np.sum(top, axis=1)))
    if leak > LEAK_WARN_LEVEL:
        warnings.warn(f"top Fock level reaches population {leak:.2e}; increase n_max",
                      TruncationWarning, stacklevel=2)
    return Trajectory(times, states, "full", params, schedule, truncation_leak=leak, **record)


def dark_fidelity_series(traj: Trajectory,
                         indices: list[int] | np.ndarray | None = None) -> np.ndarray:
    """Overlap of each sample, or of the samples at ``indices``, with the
    analytic dark state of its drive.

    nan where both tones are off (no dark state defined) or the ion number
    is odd.
    """
    indices = np.arange(len(traj.times)) if indices is None else np.asarray(indices)
    out = np.full(len(indices), np.nan)
    n = traj.params.n_ions
    if n % 2 != 0:
        return out
    wr, wb = traj.schedule.amplitudes(traj.times[indices])
    driven = (wr != 0) | (wb != 0)
    _, amplitudes = dark_state.normalized_amplitudes(
        dark_state.closed_form_coefficients(n), wr[driven], wb[driven])
    out[driven] = traj.chain_fidelities(indices[driven], dark_state.chain_vector(amplitudes))
    return out


def transfer_numbers(traj: Trajectory) -> tuple[float, float]:
    """(final <Jz>, midpoint dark-state fidelity) of a whole-ramp chain run."""
    final_jz = float(np.sum(projections(traj.params.n_ions) * np.abs(traj.final_state()) ** 2))
    [mid_fid] = dark_fidelity_series(traj, [traj.midpoint])
    return final_jz, float(mid_fid)


def strict_midpoint(n_ions: int) -> tuple[np.ndarray, dict]:
    """Spin marginal at the midpoint of the strict preset's ramp, and the run's
    record; the ramp is integrated only that far, since no later state is read."""
    schedule, params = adiabatic_preset("strict", n_ions)
    traj = integrate_reduced(schedule, params, capture_times=[schedule.total_time / 2])
    return traj.spin_marginals([traj.midpoint])[0], traj.record()
