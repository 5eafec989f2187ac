"""Schrodinger integration of STIRAP pulse schedules, reduced and full models.

The drive sweeps a mixing angle theta from 0 (pure red sideband, the
all-down state is dark) to pi (pure blue sideband, all-up dark), with the
tone amplitudes of ``tones``.

Integration is fixed-step classical RK4 with the Hamiltonian sampled at the
substage times; unitarity is checked after the fact, not enforced, so runs
stay deterministic.  H(t) does not depend on the state, so each model gives
the few real coefficients of its Hamiltonians for a block of steps at once,
and the C kernel ``_rk4.c`` builds each step's matrices from them on the
model's support and runs the block in one call through numpy's own zgemv;
every state word equals that of numpy's textbook update on the matrices of
the model's dense builder, ``model.reduced_hamiltonian`` or
``model.full_hamiltonian`` (see ``_rk4`` and ``_kernel``).

Every run starts from |D^0>|0> and fails with a ``NumericalError`` once its
norm drifts so far that the readout's ``observables.NORM_TOL`` would reject
a sample.  The ``Trajectory`` records the steps, the step size, the largest
norm drift and, on the full model, the phonon-truncation leak, and reads its
own model's states out: callers never branch on the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import dark_state
from .errors import NumericalError, PhysicsConfigError, ReducedModelWarning, TruncationWarning
from .observables import NORM_TOL
from .spin_algebra import _frozen, collective_coupling, constant_cache, projections
from .model import (
    SystemParams,
    chain_frame,
    full_coefficients,
    full_support,
    reduced_coefficients,
    reduced_support,
    spin_marginals,
    top_fock_populations,
)

SCHEDULE_SHAPES = ("linear", "smoothstep")
#: (omega_bar, total_time) of each ``adiabatic_preset``; paper's is in rad/s and s
PRESETS = {"strict": (1.0, 480.0), "fast": (1.0, 40.0), "paper": (2 * np.pi * 14e3 / 2, 340e-6)}

#: dimensionless eta*omega_bar*T below which adiabaticity is doubtful
ADIABATICITY_WARN_BELOW = 5.0

LEAK_WARN_LEVEL = 1e-3

#: bytes of one block's coefficients, which sets the steps per block: the
#: coefficients at t, t + dt/2 and t + dt of k steps are 3k rows of 2 (chain)
#: or 4 (full model) doubles, and computing them holds a few arrays of 3k
#: numbers at a time.  One block is alive at a time, so a run's Hamiltonians
#: hold well under 1 MiB whatever its length.
H_BLOCK_BYTES = 1 << 17

#: samples that ``Trajectory.chain_fidelities`` rotates into the chain frame
#: and ``_check_norms`` squares at once, which bounds their memory
READOUT_CHUNK = 128


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
    if name not in PRESETS:
        raise ValueError(f"preset must be one of {tuple(PRESETS)}, got {name!r}")
    omega_bar, total_time = PRESETS[name]
    schedule = PulseSchedule(total_time=total_time, omega_bar=omega_bar)
    params = SystemParams(n_ions=n_ions, delta=20.0 * omega_bar)
    return schedule, params


@dataclass(frozen=True)
class Trajectory:
    """Sampled state history of one integration run, and its readout.

    ``states`` holds chain states on the reduced model and spin-phonon
    product-space states on the full one; the methods read either out, so a
    caller never branches on ``model_tag``.  A run given capture times ends
    at the latest of them, not at the end of the ramp.  A trajectory and its
    arrays are read-only, because ``repro`` hands one cached run to every
    criterion.
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

    def indices_of(self, times: list[float]) -> list[int]:
        """Indices of the samples nearest each of ``times``, the first on a tie."""
        return [int(np.argmin(np.abs(self.times - t))) for t in times]

    @property
    def midpoint(self) -> int:
        """Index of the sample nearest T/2."""
        [index] = self.indices_of([self.schedule.total_time / 2])
        return index

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def spin_marginals(self, indices: list[int] | None = None) -> np.ndarray:
        """(S, N+1, N+1) spin marginals of every sample, or of the samples
        at ``indices``; the phonon factor of the full model is traced out."""
        states = self.states if indices is None else self.states[indices]
        n_max = self.params.n_max if self.model_tag == "full" else None
        return spin_marginals(states, self.params.n_ions, n_max)

    def chain_fidelities(self, indices, chain_vectors) -> np.ndarray:
        """|<v_k|psi_k>|^2 of the sample at ``indices[k]`` with the chain
        vector ``chain_vectors[k]``, on the full model in the chain frame of
        ``model.chain_frame``.

        Stacks of ``READOUT_CHUNK`` samples give each the words of
        ``abs(np.vdot(v, psi)) ** 2`` alone.  An array's ``x ** 2`` rounds
        otherwise than libm's ``pow``, which a Python float calls.  So does
        ``np.abs`` of a complex array against Python's ``abs``, so both act
        on an object array.  A matmul of conjugate rows and columns runs
        vdot's own dot product."""
        indices, vectors = np.asarray(indices, dtype=np.intp), np.asarray(chain_vectors)
        overlaps = np.empty(len(indices), dtype=complex)
        for start in range(0, len(indices), READOUT_CHUNK):
            chunk = slice(start, start + READOUT_CHUNK)
            rows, vecs = indices[chunk], vectors[chunk]
            states = self.states[rows]
            if self.model_tag == "full":
                states, vecs = chain_frame(self.params, states, self.times[rows], vecs)
            overlaps[chunk] = (vecs.conj()[:, None, :] @ states[:, :, None])[:, 0, 0]
        return (np.abs(overlaps.astype(object)) ** 2).astype(float)

    def record(self) -> dict:
        """What the integrator did, for a provenance header: propagator,
        steps, step size, norm drift and, on the full model, truncation leak."""
        leak = {"truncation_leak": self.truncation_leak} if self.model_tag == "full" else {}
        return {"propagator": "rk4", "n_steps": self.n_steps, "dt": self.dt,
                "max_norm_drift": self.max_norm_drift, **leak}


def _rk4(coefficients, operators: tuple, delta: float, psi0: np.ndarray, total_time: float,
         n_steps: int, capture: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of one model over the ``n_steps`` grid of
    [0, total_time], stopping at the last captured step; ``operators`` is the
    model's support tuple (``model.reduced_support``, ``model.full_support``),
    whose formula gives the kernel's model number and the width of the rows
    that ``coefficients(ts)`` returns at ``ts`` (``model.reduced_coefficients``,
    ``model.full_coefficients``), ``delta`` is its detuning, and ``capture``
    holds the int64 step numbers to sample.

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

    The calling thread computes one block's coefficients at a time and runs
    the block in one call of the C kernel ``rk4_block`` (``_rk4.c``, loaded
    by ``_kernel``), which releases the GIL.  For each step it builds H1, H2
    and H3 from their coefficients into a zeroed (3, d, d) buffer, in the
    words of the model's dense builder (``model.reduced_hamiltonian``,
    ``model.full_hamiltonian``) at the same rows: the support every step,
    the other entries only when their bits differ from the (0, 0) word.  (A
    product that underflows to zero can take the other sign of zero than
    numpy's fused SIMD loop gives it; see ``_rk4.c``.)  The four
    products y = H x go through numpy's own zgemv with ``ndarray.dot``'s
    arguments; the stage arguments and the final sum round each product
    before adding it, as numpy's complex loops do, so the kernel is built
    with floating-point contraction off (a fused multiply-add can flip the
    sign of an underflowed zero).  The doubling
    stays a product with 2 + 0i: y + y can differ from (2 + 0j)*y in the
    sign of a zero.  Arrays of the wrong type, layout, shape or range raise
    ValueError in Python and never reach C: the run's fixed arrays with
    ``_check_block`` before any coefficient is computed, and each block's
    coefficients, the first included, before the kernel runs them; the
    kernel loads once the first block's coefficients pass.
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
    support, _, parts, bounds, (kind, width, *_) = operators
    _check_block(operators, buffer, psi, states, capture)
    # the kernel's arguments that stay fixed for the run, in rk4_block's order
    fixed = (kind, support.ctypes.data, len(support), parts.ctypes.data, bounds.ctypes.data,
             delta, buffer.ctypes.data, d, coef.ctypes.data, psi.ctypes.data, work.ctypes.data,
             capture.ctypes.data, len(capture), states.ctypes.data)
    block = max(1, H_BLOCK_BYTES // (3 * 8 * width))
    pos = 0
    if capture[pos] == 0:
        states[pos] = psi
        pos += 1
    for start in range(0, stop, block):
        # each step's own t = step*dt, since (step + 1)*dt can differ in the
        # last bit from step*dt + dt; the blocks are the whole ramp's even
        # where a run stops early, so each coefficient is computed in the
        # same array
        t = np.arange(start, min(start + block, n_steps)) * dt
        n = len(t)
        rows = coefficients(np.concatenate((t, t + dt / 2, t + dt)))
        _check_array("coefficient array", rows, np.float64, (3 * n, width))
        pos = _kernel().step(rows.ctypes.data, n, min(n, stop - start), start, pos, *fixed)
    return times, states


def _check_array(name: str, array, dtype, shape: tuple) -> None:
    """ValueError unless ``array`` is an aligned C-contiguous ndarray of
    ``dtype`` and ``shape``, as the kernel reads it through a raw pointer."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == shape and array.flags.c_contiguous and array.flags.aligned):
        got = (f"{array.dtype} {array.shape}" if isinstance(array, np.ndarray)
               else type(array).__name__)
        want = "1-D" if name == "support" else f"shape {shape}"
        raise ValueError(f"the RK4 kernel needs a C-contiguous {np.dtype(dtype)} "
                         f"{name} of {want}, got {got}")


def _check_block(operators: tuple, buffer, psi: np.ndarray, states: np.ndarray,
                 capture: np.ndarray) -> None:
    """ValueError unless a run's fixed arrays have the dtype, layout and shape
    that ``rk4_block`` reads and writes through raw pointers for the formula
    of ``operators``, the support holds distinct flat indices of a d x d
    matrix other than 0, and the bounds split it into one run of entries per
    operator part, in order."""
    support, _, parts, bounds, (_, _, part_type, groups) = operators
    d = len(psi)
    s = len(support) if isinstance(support, np.ndarray) and support.ndim == 1 else -1
    for name, array, dtype, shape in (
        ("support", support, np.int64, (s,)),
        ("operator parts", parts, part_type, (groups, s + 1)),
        ("group bounds", bounds, np.int64, (groups + 1,)),
        ("Hamiltonian buffer", buffer, np.complex128, (3, d, d)),
        ("state", psi, np.complex128, (d,)),
        ("sample array", states, np.complex128, (len(capture), d)),
        ("capture steps", capture, np.int64, (len(capture),)),
    ):
        _check_array(name, array, dtype, shape)
    ordered = np.sort(support)  # np.unique would import numpy.ma
    if s and not (ordered[0] >= 1 and ordered[-1] < d * d and np.all(ordered[1:] > ordered[:-1])):
        raise ValueError(f"the RK4 kernel needs distinct support indices in [1, {d * d})")
    if not (bounds[0] == 0 and bounds[-1] == s and np.all(bounds[1:] >= bounds[:-1])):
        raise ValueError(f"the RK4 kernel needs group bounds from 0 to {s} in order")


#: zgemv symbols that numpy's bundled BLAS may export, with their integer type
_ZGEMV_SYMBOLS = (("scipy_cblas_zgemv64_", "int64_t"), ("cblas_zgemv64_", "int64_t"),
                  ("scipy_cblas_zgemv", "int"), ("cblas_zgemv", "int"))
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@constant_cache()
def _kernel():
    """The C functions of ``_rk4.c``, loaded on the first integration:
    ``step``, ``rk4_block`` with numpy's zgemv bound, and ``values``, the
    ``hamiltonian_values`` that it calls for each Hamiltonian.

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
    step, values = lib.rk4_block, lib.hamiltonian_values
    pointer, int64, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    step.argtypes = [pointer, pointer, int64, int64, int64, int64, int64, pointer, int64,
                     pointer, pointer, double, pointer, int64, pointer, pointer, pointer,
                     pointer, int64, pointer]
    step.restype = int64
    values.argtypes = [int64, pointer, pointer, pointer, int64, double, pointer, pointer, pointer]
    values.restype = None
    return SimpleNamespace(step=partial(step, ctypes.cast(getattr(blas, symbol), pointer)),
                           values=values)


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
    # hour at 0.3-0.9 us a step for N = 2-8 on one x86 core), 2^31/levels on
    # the full model, whose step costs about its dimension or more, Hamiltonians
    # built in the kernel included: 1.5, 3.3, 11.9 us at d = 18, 35, 81
    if not total_time / dt <= 2.0**31 / levels:
        of = "" if levels == 1 else f"/(n_max + 1) = 2^31/{levels}"
        raise PhysicsConfigError(f"{total_time / dt:.3g} steps exceed the limit of 2^31{of}")
    n = max(1, int(np.ceil(total_time / dt)))  # an infinite guard plans one step
    return n + (n % 2)  # even so the midpoint lands on the grid


def _check_norms(states: np.ndarray) -> float:
    """Largest norm drift |‖psi‖ - 1| of the samples; a NumericalError where
    a sample's |psi|^2, the trace that the readout checks, is further than
    ``observables.NORM_TOL`` from 1, a step-size failure reported here.  The
    norms are ``np.linalg.norm(states, axis=1)``'s own expression, taken
    ``READOUT_CHUNK`` samples at a time, so no temporary spans the run."""
    norms = np.empty(len(states))
    for start in range(0, len(states), READOUT_CHUNK):
        chunk = slice(start, start + READOUT_CHUNK)
        x = states[chunk]
        norms[chunk] = np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))
    off = float(np.max(np.abs(norms**2 - 1.0)))
    if not off <= NORM_TOL:  # a nan drift fails too
        raise NumericalError(f"|psi|^2 drift {off:.3e} exceeds {NORM_TOL:.0e}; reduce the step size")
    return float(np.max(np.abs(norms - 1.0)))


def _integrate(tag: str, coefficients, operators: tuple, guard: float, schedule: PulseSchedule,
               params: SystemParams, dt: float | None,
               capture_times: list[float] | None) -> Trajectory:
    """The one run path: RK4 of the ``tag`` model, "reduced" or "full", from
    |D^0>|0> (basis index 0 of both) under ``coefficients`` on ``operators``
    (see ``_rk4``), sampled at about 2001 steps and the steps nearest
    ``capture_times``, stopped at the latest of those and recorded as a
    ``Trajectory``.  ``dt`` defaults to the model's stable step ``guard`` and
    may not exceed it.  A capture time outside [0, T] is a ValueError.
    """
    if dt is None:
        dt = guard
    elif dt > guard * (1 + 1e-9):
        raise PhysicsConfigError(f"dt = {dt:.3e} exceeds the stable step {guard:.3e} "
                                 f"of this {tag} run")
    if 0 < schedule.adiabaticity() < ADIABATICITY_WARN_BELOW:
        warnings.warn(f"eta*omega_bar*T = {schedule.adiabaticity():.2f} is below "
                      f"{ADIABATICITY_WARN_BELOW}; the ramp is unlikely to be adiabatic",
                      UserWarning, stacklevel=3)

    levels = params.n_max + 1 if tag == "full" else 1  # Fock levels of each Dicke level
    psi0 = np.zeros((params.n_ions + 1) * levels, dtype=complex)
    psi0[0] = 1.0

    n_steps = _plan_steps(schedule.total_time, dt, levels)
    extra = set()
    for t in capture_times if capture_times is not None else ():
        if not 0 <= t <= schedule.total_time:
            raise ValueError(f"capture time {t} outside [0, {schedule.total_time}]")
        extra.add(int(round(t / (schedule.total_time / n_steps))))
    stop = max(extra, default=n_steps)
    steps = {*range(0, n_steps + 1, max(1, n_steps // 2000)), n_steps // 2, n_steps, *extra}
    capture = np.array(sorted(step for step in steps if step <= stop), dtype=np.int64)
    times, states = _rk4(coefficients, operators, params.delta, psi0, schedule.total_time,
                         n_steps, capture)
    drift = _check_norms(states)
    leak = float(np.max(top_fock_populations(params, states))) if tag == "full" else 0.0
    return Trajectory(_frozen(times), _frozen(states), tag, params, schedule,
                      max_norm_drift=drift, truncation_leak=leak, n_steps=int(capture[-1]),
                      dt=schedule.total_time / n_steps)


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

    traj = _integrate("reduced", lambda ts: reduced_coefficients(*schedule.amplitudes(ts)),
                      reduced_support(n), guard, schedule, params, dt, capture_times)
    peak = 2 * schedule.omega_bar  # the red tone at t = 0, where every run starts
    if not params.reduced_model_trusted(peak):
        warnings.warn(f"the sideband rate peaks at {peak:.3g} against delta = "
                      f"{params.delta:.3g}: the reduced chain needs 2*delta > "
                      "10*max(Omega_r, Omega_b) to neglect the off-resonant transitions "
                      "that the full model keeps", ReducedModelWarning, stacklevel=2)
    return traj


def integrate_full(schedule: PulseSchedule, params: SystemParams,
                   dt: float | None = None,
                   capture_times: list[float] | None = None) -> Trajectory:
    """Integrate the spin-phonon model ``model.full_hamiltonian`` as
    ``integrate_reduced`` does the chain; a TruncationWarning when the top
    Fock level's population exceeds 1e-3."""
    n = params.n_ions
    # |a J+| = sqrt(n_max) * max R_k; the bound counts Fock levels that a
    # run seldom fills, so dt*drive <= 0.05 suffices
    drive = (2 * schedule.omega_bar * np.sqrt(params.n_max)
             * max(collective_coupling(n, k) for k in range(n)))
    rate = max(params.delta / 0.05, (params.delta + n * schedule.omega_bar) / 0.1, drive / 0.05)
    guard = 1.0 / rate if rate > 0 else schedule.total_time / 200

    traj = _integrate("full", lambda ts: full_coefficients(params, ts, *schedule.amplitudes(ts)),
                      full_support(n, params.n_max), guard, schedule, params, dt, capture_times)
    if traj.truncation_leak > LEAK_WARN_LEVEL:
        warnings.warn(f"top Fock level reaches population {traj.truncation_leak:.2e}; "
                      "increase n_max", TruncationWarning, stacklevel=2)
    return traj


def dark_fidelity_series(traj: Trajectory,
                         indices: list[int] | np.ndarray | None = None) -> np.ndarray:
    """Overlap of each sample, or of the samples at ``indices``, with the
    analytic dark state of its drive.

    nan where both tones are off (no dark state defined) or the ion number
    is odd.
    """
    indices = np.arange(len(traj.times)) if indices is None else np.asarray(indices)
    out = np.full(len(indices), np.nan)
    try:
        coeffs = dark_state.closed_form_coefficients(traj.params.n_ions)
    except ValueError:  # an odd N, which has no dark state
        return out
    wr, wb = traj.schedule.amplitudes(traj.times[indices])
    driven = (wr != 0) | (wb != 0)
    _, amplitudes = dark_state.normalized_amplitudes(coeffs, wr[driven], wb[driven])
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
