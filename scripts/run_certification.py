#!/usr/bin/env python3
"""End-to-end certification experiment on simulated states.

Two ions: parity oscillation of the STIRAP midpoint state and the fidelity
estimate from its amplitude.  Four ions: shot-sampled witness + populations
fed through the fidelity bounds, compared against the exact overlap.
"""

import argparse

import numpy as np

from dickesim import measurement, observables, repro
from dickesim.certification import ghz_excluded
from dickesim.spin_algebra import half_excited_x


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shots", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=20260810)
    args = ap.parse_args()

    print("== two ions: parity oscillation ==")
    rho2 = observables.spin_density_from_chain(repro.strict_trajectory(2).midpoint_state())
    scan = observables.parity_scan(rho2)
    print(f"A_p = {scan.amplitude:.4f}, p_-1 = {scan.p_lower:.4f}, "
          f"p_+1 = {scan.p_upper:.4f}  =>  F = {scan.fidelity:.4f}")

    print("\n== four ions: witness + population bounds ==")
    mid4 = repro.strict_trajectory(4).midpoint_state()
    rho4 = observables.spin_density_from_chain(mid4)
    exact_fid = observables.direct_fidelity(rho4, half_excited_x(4))
    config = measurement.ShotConfig(n_shots=args.shots, seed=args.seed)

    # the sampler draws from the pure even-sector part; at strict settings the
    # odd-sector weight is ~1e-5 and the even part carries the physics
    even = mid4.copy()
    even[1::2] = 0.0
    even = even / np.linalg.norm(even)
    record = measurement.simulated_experiment(even, config)
    print(f"sampled W = {record.witness_value:.4f} +- {record.sigma_witness:.4f} "
          f"({config.n_shots} shots/setting, {measurement.GENERATOR_NAME}, seed {config.seed})")
    print(f"sampled P = {np.round(record.populations, 4)}")
    print(f"F_lo = {record.f_lower:.4f} +- {record.sigma_lower:.4f}, "
          f"F_hi = {record.f_upper:.4f} +- {record.sigma_upper:.4f}")
    print(f"exact overlap with the half-excited Dicke state: {exact_fid:.6f}")
    print(f"GHZ excluded (F_lo > 3/4): {ghz_excluded(record.f_lower)}")


if __name__ == "__main__":
    main()
