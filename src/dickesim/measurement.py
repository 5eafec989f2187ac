"""Finite-shot projective readout with a reproducible counter-based generator.

Sampling uses numpy's Philox bit generator (Philox-4x64-10, counter-based
with published round constants), keyed by (seed, stream).  Identical
(state, config) inputs give identical records on any platform; parallel
sweeps must take distinct streams rather than sharing a generator.  Every
shot, of a population histogram, a squared-spin mean or a parity curve, is
drawn by ``_draw``: one multinomial over the exact outcome probabilities.
``_draw`` reuses one Philox per thread and re-keys it before each draw to
(seed, stream) at counter 0 with an empty buffer.  Philox is counter-based,
so that is the stream of a freshly built generator, bit for bit, without
the cost of building one a draw.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import observables
from .certification import CertificationRecord, fidelity_lower, fidelity_upper, propagate_uncertainty
from .spin_algebra import _frozen, projections

GENERATOR_NAME = "philox4x64-10"


@dataclass(frozen=True)
class ShotConfig:
    """Shot count plus the (seed, stream) key of the Philox generator."""

    n_shots: int
    seed: int
    stream: int = 0

    def __post_init__(self):
        if int(self.n_shots) != self.n_shots or self.n_shots < 1:
            raise ValueError(f"n_shots must be a positive integer, got {self.n_shots}")
        if not 0 <= self.seed < 2**64 or not 0 <= self.stream < 2**64:
            raise ValueError("seed and stream must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "ShotConfig":
        """The same shots and seed on stream ``stream + offset``.  Only the
        new stream needs checking, so ``__post_init__`` is not run again."""
        stream = self.stream + offset
        if not 0 <= stream < 2**64:
            raise ValueError("seed and stream must be unsigned 64-bit integers")
        config = object.__new__(ShotConfig)
        config.__dict__.update(n_shots=self.n_shots, seed=self.seed, stream=stream)
        return config


@dataclass(frozen=True)
class MeasurementRecord:
    """Histogram of projection outcomes with binomial standard errors."""

    projections: np.ndarray
    counts: np.ndarray
    frequencies: np.ndarray
    std_errors: np.ndarray
    n_shots: int
    seed: int
    stream: int
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        for name in ("projections", "counts", "frequencies", "std_errors"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name))))
        if int(np.sum(self.counts)) != self.n_shots:
            raise ValueError("histogram counts must sum to n_shots")


def _normalized(probabilities) -> np.ndarray:
    """Exact outcome probabilities clipped at 0 and normalised along the
    last axis, ready for ``_draw``."""
    probs = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


_per_thread = threading.local()


def _keyed_generator(config: ShotConfig) -> np.random.Generator:
    """This thread's generator, its Philox set to key (seed, stream),
    counter 0, an empty buffer and no cached 32-bit half: the state in
    which ``config.generator()`` starts.  A draw leaves nothing behind that
    the next re-keying does not overwrite."""
    generator = getattr(_per_thread, "generator", None)
    if generator is None:
        generator = _per_thread.generator = config.generator()
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (config.seed, config.stream)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator


def _draw(probabilities: np.ndarray, config: ShotConfig) -> np.ndarray:
    """Outcome counts of ``config.n_shots`` shots over ``_normalized``
    probabilities."""
    return _keyed_generator(config).multinomial(config.n_shots, probabilities)


def sample_populations(state: np.ndarray, config: ShotConfig, axis: str) -> MeasurementRecord:
    """Multinomial draw from the exact projection populations along an axis."""
    probs = observables.populations_along(state, axis)
    counts = _draw(_normalized(probs), config)
    freq = counts / config.n_shots
    return MeasurementRecord(
        projections=projections(len(probs) - 1),
        counts=counts,
        frequencies=freq,
        std_errors=np.sqrt(freq * (1 - freq) / config.n_shots),
        n_shots=config.n_shots,
        seed=config.seed,
        stream=config.stream,
    )


def sample_parities(parities: np.ndarray, config: ShotConfig) -> np.ndarray:
    """Shot-sampled two-ion parity curve from its exact values: at phase k,
    the count of the even-parity outcome in a draw over (even, odd) on
    substream 100 + k.  The curve is normalised once, not once a phase."""
    p_even = np.clip((1 + np.asarray(parities, dtype=float)) / 2, 0.0, 1.0)
    probs = _normalized(np.stack([p_even, 1 - p_even], axis=-1))
    draws = [_draw(pair, config.substream(100 + k))[0] for k, pair in enumerate(probs)]
    return 2 * np.array(draws) / config.n_shots - 1


def _sample_square(probs: np.ndarray, config: ShotConfig) -> tuple[float, float]:
    """Sampled mean and standard error of J^2 along the axis whose
    projection populations, m - N/2 ascending, are ``probs``."""
    squares = projections(len(probs) - 1) ** 2
    counts = _draw(_normalized(probs), config)
    mean = float(np.sum(counts * squares) / config.n_shots)
    var = np.sum(counts * (squares - mean) ** 2) / max(config.n_shots - 1, 1)
    return mean, float(np.sqrt(var / config.n_shots))


def simulated_experiment(state: np.ndarray, config: ShotConfig) -> CertificationRecord:
    """Four-ion certification pipeline from sampled global measurements.

    Populations are sampled along x; <Jz^2> is sampled without an analysis
    pulse; <Jy^2> is the peak of a sampled J_phi^2 scan over 13 azimuths in
    [0, pi].  Streams are partitioned per setting, so one config reproduces
    the whole record.  The exact record of a symmetric-sector ``state`` is
    ``certify_from_state(symmetric_isometry(4) @ state, "x")``, which this
    one approaches as the shots grow.
    """
    state = np.asarray(state, dtype=complex)
    n_ions = observables._state_dim(state) - 1
    if n_ions != 4:
        raise ValueError(f"the certification pipeline is a four-ion protocol, got N={n_ions}")
    j_max = n_ions // 2

    pop_rec = sample_populations(state, config.substream(0), "x")
    pops = pop_rec.frequencies
    jz2_mean, jz2_err = _sample_square(observables.populations_along(state, "z"),
                                       config.substream(1))
    azimuth_pops = observables.populations_azimuth(state, np.linspace(0.0, np.pi, 13))
    scan = [_sample_square(probs, config.substream(2 + k))
            for k, probs in enumerate(azimuth_pops)]
    jy2_mean, jy2_err = max(scan, key=lambda ms: ms[0])

    w_value = jy2_mean + jz2_mean
    sigma_w = float(np.hypot(jy2_err, jz2_err))
    sigma_lower, sigma_upper = propagate_uncertainty(j_max, sigma_w, pop_rec.std_errors)
    return CertificationRecord(
        j_max=j_max,
        axis="x",
        witness_value=float(w_value),
        populations=pops,
        f_lower=fidelity_lower(w_value, pops, j_max),
        f_upper=fidelity_upper(pops),
        sigma_witness=sigma_w,
        sigma_populations=pop_rec.std_errors,
        sigma_lower=sigma_lower,
        sigma_upper=sigma_upper,
    )
