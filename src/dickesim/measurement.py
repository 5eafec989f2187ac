"""Finite-shot projective readout with a reproducible counter-based generator.

Sampling uses numpy's Philox bit generator (Philox-4x64-10, counter-based
with published round constants), keyed by (seed, stream).  Identical
(state, config) inputs give identical records on any platform; parallel
sweeps must take distinct streams rather than sharing a generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import observables
from .certification import CertificationRecord, fidelity_lower, fidelity_upper, propagate_uncertainty
from .spin_algebra import _frozen

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
        return replace(self, stream=self.stream + offset)


@dataclass(frozen=True)
class MeasurementRecord:
    """Histogram of projection outcomes with binomial standard errors."""

    axis: str
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


def _draw(probabilities: np.ndarray, config: ShotConfig) -> np.ndarray:
    probs = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    probs = probs / probs.sum()
    return config.generator().multinomial(config.n_shots, probs)


def _record(axis: str, projections: np.ndarray, counts: np.ndarray,
            config: ShotConfig) -> MeasurementRecord:
    freq = counts / config.n_shots
    err = np.sqrt(freq * (1 - freq) / config.n_shots)
    return MeasurementRecord(
        axis=axis,
        projections=projections,
        counts=counts,
        frequencies=freq,
        std_errors=err,
        n_shots=config.n_shots,
        seed=config.seed,
        stream=config.stream,
    )


def sample_populations(state: np.ndarray, config: ShotConfig, axis: str) -> MeasurementRecord:
    """Multinomial draw from the exact projection populations along an axis."""
    probs = observables.populations_along(state, axis)
    n_ions = len(probs) - 1
    projections = np.arange(n_ions + 1) - n_ions / 2
    return _record(axis, projections, _draw(probs, config), config)


def sample_parities(parities: np.ndarray, config: ShotConfig) -> np.ndarray:
    """Shot-sampled two-ion parity curve from its exact values: at phase k,
    a binomial count of the even-parity outcome on substream 100 + k."""
    p_even = np.clip((1 + np.asarray(parities, dtype=float)) / 2, 0.0, 1.0)
    draws = [config.substream(100 + k).generator().binomial(config.n_shots, p)
             for k, p in enumerate(p_even)]
    return 2 * np.array(draws) / config.n_shots - 1


def _sample_square(probs: np.ndarray, config: ShotConfig) -> tuple[float, float]:
    """Sampled mean and standard error of J^2 along the axis whose
    projection populations, m - N/2 ascending, are ``probs``."""
    n_ions = len(probs) - 1
    squares = (np.arange(n_ions + 1) - n_ions / 2) ** 2
    counts = _draw(probs, config)
    mean = float(np.sum(counts * squares) / config.n_shots)
    var = np.sum(counts * (squares - mean) ** 2) / max(config.n_shots - 1, 1)
    return mean, float(np.sqrt(var / config.n_shots))


def sample_azimuth_square(state: np.ndarray, config: ShotConfig,
                          phi: float) -> tuple[float, float]:
    """Sampled mean and standard error of J_phi^2 at one analysis azimuth."""
    return _sample_square(observables.populations_azimuth(state, phi), config)


def simulated_experiment(state: np.ndarray, config: ShotConfig,
                         exact: bool = False) -> CertificationRecord:
    """Four-ion certification pipeline from sampled global measurements.

    Populations are sampled along x; <Jz^2> is sampled without an analysis
    pulse; <Jy^2> is the peak of a sampled J_phi^2 scan over 13 azimuths in
    [0, pi].  Streams are partitioned per setting, so one config reproduces
    the whole record.  With ``exact=True`` the sampling is bypassed and the
    record matches exact moments (infinite-shot limit).
    """
    state = np.asarray(state, dtype=complex)
    n_ions = observables._state_dim(state) - 1
    if n_ions != 4:
        raise ValueError(f"the certification pipeline is a four-ion protocol, got N={n_ions}")
    j_max = n_ions // 2

    if exact:
        pops = observables.populations_along(state, "x")
        w_value = observables.witness(state, ("y", "z"))
        return CertificationRecord(
            j_max=j_max,
            axis="x",
            witness_value=w_value,
            populations=pops,
            f_lower=fidelity_lower(w_value, pops, j_max),
            f_upper=fidelity_upper(pops),
        )

    pop_rec = sample_populations(state, config.substream(0), "x")
    pops = pop_rec.frequencies
    jz2_mean, jz2_err = _sample_square(observables.populations_along(state, "z"),
                                       config.substream(1))
    scan = [sample_azimuth_square(state, config.substream(2 + k), phi)
            for k, phi in enumerate(np.linspace(0.0, np.pi, 13))]
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
