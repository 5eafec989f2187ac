#!/usr/bin/env python3
"""Population-transfer experiment: integrate a STIRAP ramp in both models
and write time series of <Jz>, spin variances and dark-state fidelity.

Writes results/transfer_<model>_n<N>.csv; the reduced model uses the
calibrated coupling scale so both series live in the same physical frame.
"""

import argparse
import pathlib

import numpy as np

from dickesim import cli, evolution, model, observables


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--preset", default="fast", choices=evolution.PRESET_NAMES)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    schedule, params = evolution.adiabatic_preset(args.preset, args.n)
    jz = np.arange(args.n + 1) - args.n / 2

    for tag in ("reduced", "full"):
        if tag == "reduced":
            traj = evolution.integrate_reduced(
                schedule, params, coupling_scale=model.CALIBRATED_COUPLING_SCALE
            )
        else:
            traj = evolution.integrate_full(schedule, params)
        rows = []
        for i, t in enumerate(traj.times):
            rho = cli._spin_marginal(traj.states[i], tag, params)
            mom = observables.spin_moments(rho)
            rows.append((t, float(np.sum(jz * np.real(np.diag(rho)))),
                         mom.var_jx, mom.var_jy, mom.var_jz))
        path = outdir / f"transfer_{tag}_n{args.n}.csv"
        header = cli._provenance("scripts/run_transfer", {
            "n": args.n, "preset": args.preset, "model": tag,
            "total_time": schedule.total_time, "delta": params.delta, "seed": "none",
        })
        cli._emit(str(path), header, ("t", "jz_mean", "var_jx", "var_jy", "var_jz"), rows)
        print(f"{tag}: final <Jz> = {rows[-1][1]:+.4f}  -> {path}")


if __name__ == "__main__":
    main()
