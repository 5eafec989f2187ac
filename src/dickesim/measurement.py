"""Finite-shot projective readout with a reproducible counter-based generator.

Sampling uses numpy's Philox bit generator (Philox-4x64-10, counter-based
with published round constants), keyed by (seed, stream): integers in
[0, 2^64) that ``ShotConfig`` reads with ``spin_algebra.whole``, so a seed
of 1.5 is refused, not truncated.  One (state, config) gives one record on
any platform; parallel sweeps take distinct streams, not one generator.  Every
shot, of a population histogram, a squared-spin mean or a parity curve, is
drawn by ``_draw``: one multinomial over the exact outcome probabilities.
``_draw`` reuses one Philox per thread and re-keys it before each draw to
(seed, stream) at counter 0 with an empty buffer.  Philox is counter-based,
so that is the stream of a freshly built generator, bit for bit, without
the cost of building one a draw.

Nothing is cached here: the J_phi eigenbases of the witness scan come from
``observables``' grid cache, keyed on the azimuth count.
The scan's squared-spin estimates are row reductions of one stack of
settings, each row summed in the order of a sum over that row alone, so a
record has the bits of one estimated a setting at a time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import observables
from .certification import CertificationRecord
from .spin_algebra import _frozen, half_excitation, projections, whole

GENERATOR_NAME = "philox4x64-10"

#: substreams of a sampled parity curve: phase k draws on PARITY_STREAM + k
#: and the z populations on POPULATION_STREAM, past every phase's stream
PARITY_STREAM, POPULATION_STREAM = 100, 10_000

#: the most shots of one draw: numpy's multinomial takes a C long
MAX_SHOTS = 2**63 - 1
#: the largest seed or stream: a Philox-4x64 key is two 64-bit words
KEY_MAX = 2**64 - 1

#: azimuths over [0, pi] of the witness's sampled J_phi^2 scan
WITNESS_AZIMUTHS = 13


@dataclass(frozen=True)
class ShotConfig:
    """Shot count plus the (seed, stream) key of the Philox generator."""

    n_shots: int
    seed: int
    stream: int = 0

    def __post_init__(self):
        self.__dict__.update(n_shots=whole(self.n_shots, "n_shots", 1, MAX_SHOTS),
                             seed=whole(self.seed, "seed", 0, KEY_MAX),
                             stream=whole(self.stream, "stream", 0, KEY_MAX))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "ShotConfig":
        """The same shots and seed on stream ``stream + offset``.  Only the
        offset needs checking, so ``__post_init__`` is not run again."""
        offset = whole(offset, "stream offset", -self.stream, KEY_MAX - self.stream)
        stream = self.stream + offset
        config = object.__new__(ShotConfig)
        config.__dict__.update(n_shots=self.n_shots, seed=self.seed, stream=stream)
        return config


@dataclass(frozen=True)
class MeasurementRecord:
    """Histogram of projection outcomes, m - N/2 ascending, drawn on the
    Philox key (seed, stream); the shot count, frequencies and binomial
    standard errors follow from the counts."""

    counts: np.ndarray
    seed: int
    stream: int
    n_shots: int = field(init=False)
    frequencies: np.ndarray = field(init=False)
    std_errors: np.ndarray = field(init=False)

    def __post_init__(self):
        counts = _frozen(np.array(self.counts))
        n_shots = int(np.sum(counts))
        freq = counts / n_shots
        self.__dict__.update(counts=counts, n_shots=n_shots, frequencies=_frozen(freq),
                             std_errors=_frozen(np.sqrt(freq * (1 - freq) / n_shots)))


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
    counts = _draw(_normalized(observables.populations_along(state, axis)), config)
    return MeasurementRecord(counts=counts, seed=config.seed, stream=config.stream)


def sample_parities(parities: np.ndarray, config: ShotConfig) -> np.ndarray:
    """Shot-sampled two-ion parity curve from its exact values: at phase k,
    the count of the even-parity outcome in a draw over (even, odd) on
    substream ``PARITY_STREAM`` + k.  The curve is normalised once, not once
    a phase."""
    p_even = np.clip((1 + np.asarray(parities, dtype=float)) / 2, 0.0, 1.0)
    probs = _normalized(np.stack([p_even, 1 - p_even], axis=-1))
    draws = [_draw(pair, config.substream(PARITY_STREAM + k))[0]
             for k, pair in enumerate(probs)]
    return 2 * np.array(draws) / config.n_shots - 1


def sample_parity_curve(state: np.ndarray, n_phases: int, config: ShotConfig):
    """(parities, z populations) of a two-ion ``state``, shot-sampled: the
    parity curve at ``observables.parity_phases(n_phases)`` by
    ``sample_parities`` and the populations on substream
    ``POPULATION_STREAM``.  More phases than the streams between the two
    hold is a ValueError, raised before anything is built or drawn."""
    if PARITY_STREAM + n_phases > POPULATION_STREAM:
        raise ValueError(f"a sampled parity curve takes at most "
                         f"{POPULATION_STREAM - PARITY_STREAM} phases, got {n_phases}")
    parities, _ = observables.parity_curve(state, n_phases)
    pops = sample_populations(state, config.substream(POPULATION_STREAM), "z").frequencies
    return sample_parities(parities, config), pops


def _sample_squares(probs: np.ndarray, config: ShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sampled means and standard errors of J^2 along each axis whose
    projection populations, m - N/2 ascending, are a row of ``probs``; row k
    draws on substream k.  The statistics are row reductions, each summing
    its row's terms in the order of a sum over that row alone."""
    probs = _normalized(probs)
    squares = projections(probs.shape[1] - 1) ** 2
    counts = np.array([_draw(row, config.substream(k)) for k, row in enumerate(probs)])
    means = np.sum(counts * squares, axis=1) / config.n_shots
    var = np.sum(counts * (squares - means[:, None]) ** 2, axis=1) / max(config.n_shots - 1, 1)
    return means, np.sqrt(var / config.n_shots)


def simulated_experiment(state: np.ndarray, config: ShotConfig) -> CertificationRecord:
    """Certification pipeline from sampled global measurements, at any even N.

    Populations are sampled along x; <Jz^2> is sampled without an analysis
    pulse; <Jy^2> is the peak of a sampled J_phi^2 scan over
    ``WITNESS_AZIMUTHS`` azimuths in [0, pi], the first azimuth where ties
    leave more than one.  Streams are partitioned per setting, so one config
    reproduces the whole record: the z row and the azimuth rows are one
    stack, one ``_draw`` per row on substream 1 + k.  The exact record of a
    symmetric-sector ``state`` is ``certify_from_state`` of the state lifted
    by ``symmetric_isometry(N)``, which this one approaches as the shots grow.
    """
    state = np.asarray(state, dtype=complex)
    z_pops = observables.populations_along(state, "z")
    half_excitation(len(z_pops) - 1)

    pop_rec = sample_populations(state, config.substream(0), "x")
    azimuth_pops = observables.populations_azimuth(state, WITNESS_AZIMUTHS)
    means, errors = _sample_squares(np.vstack([z_pops, azimuth_pops]), config.substream(1))
    peak = 1 + int(np.argmax(means[1:]))  # the first of tied maxima
    return CertificationRecord(witness_value=float(means[peak] + means[0]),
                               populations=pop_rec.frequencies,
                               sigma_witness=float(np.hypot(errors[peak], errors[0])),
                               sigma_populations=pop_rec.std_errors)
