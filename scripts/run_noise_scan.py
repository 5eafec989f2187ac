#!/usr/bin/env python3
"""Spin-noise experiment: squeezing of the dark-state family across the ramp
angle, and the same variances read out of a truncated-pulse simulation.

Writes results/noise_analytic_n<N>.csv and results/noise_truncated_n<N>.csv.
The analytic curve shows the x variance pinching to zero at theta = pi/2
(half-excited Dicke state); the truncated scan is its dynamical counterpart.
"""

import argparse
import pathlib

import numpy as np

from dickesim import cli, evolution, observables
from dickesim.dark_state import dark_coefficients
from dickesim.spin_algebra import dicke_state


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--preset", default="strict", choices=evolution.PRESET_NAMES)
    ap.add_argument("--points", type=int, default=41)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for theta in np.linspace(0.0, np.pi, args.points):
        wr, wb = 1 + np.cos(theta), 1 - np.cos(theta)
        if wb == 0:
            psi = dicke_state(args.n, 0)
        elif wr == 0:
            psi = dicke_state(args.n, args.n)
        else:
            psi = dark_coefficients(args.n, wr, wb).chain_vector.astype(complex)
        mom = observables.spin_moments(psi)
        rows.append((theta, mom.var_jx, mom.var_jy, mom.var_jz))
    path = outdir / f"noise_analytic_n{args.n}.csv"
    header = cli._provenance("scripts/run_noise_scan", {
        "n": args.n, "mode": "analytic", "points": args.points, "seed": "none",
    })
    cli._emit(str(path), header, ("theta", "var_jx", "var_jy", "var_jz"), rows)
    print(f"analytic dark-state sweep -> {path}")

    schedule, params = evolution.adiabatic_preset(args.preset, args.n)
    cuts = list(np.linspace(0.0, schedule.total_time, args.points))
    rows = []
    for tau, state in evolution.truncated_scan(schedule, params, cuts):
        mom = observables.spin_moments(observables.spin_density_from_chain(state))
        rows.append((tau, mom.var_jx, mom.var_jy, mom.var_jz))
    path = outdir / f"noise_truncated_n{args.n}.csv"
    header = cli._provenance("scripts/run_noise_scan", {
        "n": args.n, "mode": "truncated", "preset": args.preset,
        "points": args.points, "seed": "none",
    })
    cli._emit(str(path), header, ("tau_c", "var_jx", "var_jy", "var_jz"), rows)
    print(f"truncated-pulse scan          -> {path}")


if __name__ == "__main__":
    main()
