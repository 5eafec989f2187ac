"""Finite-shot projective readout with a reproducible counter-based generator.

Sampling uses numpy's Philox bit generator (Philox-4x64-10, counter-based
with published round constants), keyed by (seed, stream): integers in
[0, 2^64) that ``ShotConfig`` reads with ``spin_algebra.whole``, so a seed
of 1.5 is refused, not truncated.  One (state, config) gives one record on
any platform; parallel sweeps take distinct streams, not one generator.  Every
shot is drawn by ``_draw``: one multinomial over the exact outcome
probabilities of each row of a stack of settings, from one Philox per thread
re-keyed before row k to (seed, stream + k) at counter 0 with an empty buffer,
the stream of a freshly built generator, bit for bit, without the cost of
building one a row.  Each stack is one ``_draw``; its rows' streams, as
offsets from ``config.stream``, are

    0, 1, 2 + k   ``simulated_experiment``'s x, z and azimuth k
    100 + k       parity phase k (``PARITY_STREAM`` + k)
    10,000        a parity curve's z populations (``POPULATION_STREAM``)

Nothing is cached here: the witness scan's J_phi eigenbases, whose azimuth 0
is the Jx eigenbasis word for word, come from ``observables``' grid cache.
Each setting's statistics sum its row alone, so a record has the bits of one
estimated a setting at a time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import observables
from .certification import CertificationRecord
from .spin_algebra import _frozen, half_excitation, projections, whole

GENERATOR_NAME = "philox4x64-10"

#: substreams of a parity curve: phase k on PARITY_STREAM + k, its z populations past them
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

    def substream(self, offset: int) -> "ShotConfig":
        """The same shots and seed on stream ``stream + offset``."""
        offset = whole(offset, "stream offset", -self.stream, KEY_MAX - self.stream)
        return ShotConfig(self.n_shots, self.seed, self.stream + offset)


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


def _keyed_generator(seed: int, stream: int) -> np.random.Generator:
    """This thread's generator, its Philox set to key (seed, stream), counter
    0, an empty buffer and no cached 32-bit half, as a fresh Philox starts; a
    draw leaves nothing that the next re-keying does not overwrite."""
    generator = getattr(_per_thread, "generator", None)
    if generator is None:
        generator = _per_thread.generator = np.random.Generator(np.random.Philox(0))
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, stream)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator


def _draw(probabilities: np.ndarray, config: ShotConfig) -> np.ndarray:
    """Counts of ``config.n_shots`` shots over ``_normalized`` probabilities:
    one distribution, or a (k, m) stack whose row k draws on stream
    ``config.stream`` + k; a stack past ``KEY_MAX`` is refused before any draw."""
    rows = np.atleast_2d(probabilities)
    if config.stream + len(rows) - 1 > KEY_MAX:
        raise ValueError(f"{len(rows)} rows from stream {config.stream} end past stream {KEY_MAX}")
    counts = [_keyed_generator(config.seed, config.stream + k).multinomial(config.n_shots, row)
              for k, row in enumerate(rows)]
    return np.array(counts, dtype=np.int64).reshape(np.shape(probabilities))


def sample_populations(state: np.ndarray, config: ShotConfig, axis: str) -> MeasurementRecord:
    """Multinomial draw from the exact projection populations along an axis."""
    counts = _draw(_normalized(observables.populations_along(state, axis)), config)
    return MeasurementRecord(counts=counts, seed=config.seed, stream=config.stream)


def sample_parities(parities: np.ndarray, config: ShotConfig) -> np.ndarray:
    """Shot-sampled two-ion parity curve from its exact values: at phase k,
    the count of the even-parity outcome in a draw over (even, odd) on
    substream ``PARITY_STREAM`` + k: one ``_draw`` of the stack of phases."""
    p_even = (1 + np.asarray(parities, dtype=float)) / 2
    probs = _normalized(np.stack([p_even, 1 - p_even], axis=-1))
    return 2 * _draw(probs, config.substream(PARITY_STREAM))[:, 0] / config.n_shots - 1


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


def _sample_squares(counts: np.ndarray, n_shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled means and standard errors of J^2 along the axis of each row of
    ``counts``, outcomes m - N/2 ascending: row reductions, each summing its
    row's terms in the order of a sum over that row alone."""
    squares = projections(counts.shape[1] - 1) ** 2
    means = np.sum(counts * squares, axis=1) / n_shots
    var = np.sum(counts * (squares - means[:, None]) ** 2, axis=1) / max(n_shots - 1, 1)
    return means, np.sqrt(var / n_shots)


def simulated_experiment(state: np.ndarray, config: ShotConfig) -> CertificationRecord:
    """Certification pipeline from sampled global measurements, at any even N.

    Populations are sampled along x; <Jz^2> is sampled without an analysis
    pulse; <Jy^2> is the peak of a sampled J_phi^2 scan over
    ``WITNESS_AZIMUTHS`` azimuths in [0, pi], the first azimuth where ties
    leave more than one.  The state is read along z and for the scan, whose
    azimuth 0 is x; one ``_draw`` of the stack x, z, azimuths draws them on
    substreams 0, 1 and 2 + k.  The exact record of a symmetric-sector
    ``state`` is ``certify_from_state`` of the state lifted by
    ``symmetric_isometry(N)``, which this one approaches as the shots grow.
    """
    z_pops = observables.populations_along(state, "z")
    half_excitation(len(z_pops) - 1)
    azimuth_pops = observables.populations_azimuth(state, WITNESS_AZIMUTHS)
    counts = _draw(_normalized(np.vstack([azimuth_pops[0], z_pops, azimuth_pops])), config)
    pop_rec = MeasurementRecord(counts=counts[0], seed=config.seed, stream=config.stream)
    means, errors = _sample_squares(counts[1:], config.n_shots)
    peak = 1 + int(np.argmax(means[1:]))  # the first of tied maxima
    return CertificationRecord(witness_value=float(means[peak] + means[0]),
                               populations=pop_rec.frequencies,
                               sigma_witness=float(np.hypot(errors[peak], errors[0])),
                               sigma_populations=pop_rec.std_errors)
