"""Phonon-mediated multi-level STIRAP simulator and certification toolkit
for half-excited symmetric Dicke states in trapped-ion chains."""

__version__ = "0.1.0"

from .certification import (
    CertificationRecord,
    certify_from_state,
    fidelity_lower,
    fidelity_sandwich_4ion,
    fidelity_upper,
    propagate_uncertainty,
)
from .dark_state import dark_coefficients, jx_annihilation_check, verify_dark
from .errors import NumericalError, PhysicsConfigError, TruncationWarning
from .evolution import (
    PulseSchedule,
    Trajectory,
    adiabatic_preset,
    integrate_full,
    integrate_reduced,
)
from .measurement import MeasurementRecord, ShotConfig, sample_populations, simulated_experiment
from .model import SystemParams, reduced_hamiltonian
from .observables import (
    ParityScan,
    direct_fidelity,
    parity_scan,
    witness,
)
from .spin_algebra import build_collective, collective_coupling, full_space_oracle, rotation_y

__all__ = [name for name in dir() if not name.startswith("_")]
