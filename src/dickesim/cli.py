"""Command-line front end for the simulation and certification pipeline.

All angles are radians; times and rates are in the dimensionless units set
by eta*omega_bar unless a preset supplies physical values.  Every output
file begins with a provenance header (tool version, effective configuration,
seed).  Exit codes: 0 success, 1 usage, 2 violated physics precondition,
3 numerical failure, 141 (128 + SIGPIPE) when the reader closes stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, certification, evolution, measurement, model, observables, repro
from .dark_state import dark_coefficients
from .errors import NumericalError, PhysicsConfigError, TruncationWarning

EXIT_OK, EXIT_USAGE, EXIT_PHYSICS, EXIT_NUMERICAL = 0, 1, 2, 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, what a shell reports for `cmd | head`

DEFAULT_SEED = 12345


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not positive")
    return value


def positive_float(text: str) -> float:
    """argparse type for rates and times that must be positive and finite."""
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"{text} is not a positive finite number")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type for counts that may be 0."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def seed_int(text: str) -> int:
    """argparse type for generator seeds, which are unsigned 64-bit integers."""
    if not 0 <= (value := int(text)) < 2**64:
        raise ValueError(f"{value} is not an unsigned 64-bit integer")
    return value


def finite_float(text: str) -> float:
    """argparse type for angles and other values that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def nonnegative_float(text: str) -> float:
    """argparse type for ratios that must be nonnegative and finite."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"{text} is not a nonnegative finite number")
    return value


def positive_float_list(text: str) -> str:
    """argparse type for a comma-separated list of positive finite numbers;
    the text is kept as written, since the provenance header echoes it."""
    for tok in text.split(","):
        positive_float(tok)
    return text


def _provenance(subcommand: str, config: dict) -> list[str]:
    lines = [f"# dickesim {__version__}", f"# subcommand: {subcommand}"]
    lines += [f"# {key} = {value}" for key, value in config.items()]
    return lines


def format_csv(header_lines, column_names, rows) -> str:
    text_lines = list(header_lines)
    text_lines.append(",".join(column_names))
    for row in rows:
        text_lines.append(",".join(map(str, row)))
    return "\n".join(text_lines) + "\n"


def _emit(path, header_lines, column_names, rows):
    text = format_csv(header_lines, column_names, rows)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _print_summary(pairs: dict, path=None) -> None:
    lines = [f"{key} = {value}" for key, value in pairs.items()]
    for line in lines:
        print(line)
    if path is not None:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _parse_keyvalue(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed line in {path!r}: {raw.rstrip()}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _with_config(ns, argv: list[str]) -> list[str]:
    """``argv`` with the --config file's ``key = value`` lines inserted as
    ``--key=value`` flags right after the subcommand, so that parsing it
    again checks them like typed flags and the user's own flags, which come
    later, win.  A file names no other file: ``config`` is an unknown key."""
    values = _parse_keyvalue(ns.config)
    unknown = set(values) - (set(vars(ns)) - {"subcommand", "func", "config"})
    if unknown:
        raise ValueError(f"config file has unknown keys: {', '.join(sorted(unknown))}")
    at = argv.index(ns.subcommand) + 1
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    return argv[:at] + flags + argv[at:]


def _build_run(ns):
    """(schedule, params) from either a preset or explicit dimensionless flags."""
    if ns.adiabatic_preset is not None:
        return evolution.adiabatic_preset(ns.adiabatic_preset, ns.n)
    schedule = evolution.PulseSchedule(
        total_time=ns.eta_omega_t, omega_bar=1.0, shape=ns.schedule
    )
    params = model.SystemParams(n_ions=ns.n, delta=ns.delta_ratio)
    return schedule, params


def _integrate(ns, schedule, params, capture_times=None) -> evolution.Trajectory:
    # the leak is reported by ``_check_leak``, with the CLI's own advice
    run = evolution.integrate_reduced if ns.model == "reduced" else evolution.integrate_full
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return run(schedule, params, dt=ns.dt, capture_times=capture_times)


def _check_leak(traj: evolution.Trajectory) -> None:
    """A NumericalError (exit 3) when the full model's top Fock level fills
    past ``evolution.LEAK_WARN_LEVEL``; called after a command's output, so
    that the failed run still prints its rows."""
    if traj.truncation_leak > evolution.LEAK_WARN_LEVEL:
        raise NumericalError(
            f"phonon truncation leak {traj.truncation_leak:.2e} exceeds "
            f"{evolution.LEAK_WARN_LEVEL:.0e}; the CLI fixes n_max = N//2 + 4 = "
            f"{traj.params.n_max}, and a larger --delta-ratio keeps the phonons in range")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_darkstate(ns) -> int:
    if ns.theta is not None:
        omega_r, omega_b = evolution.tones(ns.theta)
    else:
        omega_r, omega_b = ns.omega_r, ns.omega_b
    state = dark_coefficients(ns.n, omega_r, omega_b)
    header = _provenance("darkstate", {
        "n": ns.n, "theta": ns.theta, "omega_r": omega_r, "omega_b": omega_b,
        "norm_a": state.norm_a, "seed": "none",
    })
    rows = [(2 * i, amp) for i, amp in enumerate(state.amplitudes)]
    _emit(ns.output, header, ("excitation", "amplitude"), rows)
    return EXIT_OK


def cmd_evolve(ns) -> int:
    schedule, params = _build_run(ns)
    traj = _integrate(ns, schedule, params)
    dark_fid = evolution.dark_fidelity_series(traj).tolist()
    spin = observables.spin_readout(traj.spin_marginals())
    # Python floats print as numpy's float64 do, and faster
    rows = list(zip(traj.times.tolist(), *spin, dark_fid))

    header = _provenance("evolve", {
        "n": ns.n, "model": ns.model, "schedule": schedule.shape,
        "preset": ns.adiabatic_preset, "total_time": schedule.total_time,
        "omega_bar": schedule.omega_bar, "delta": params.delta,
        "eta_omega_bar_T": schedule.adiabaticity(), "seed": "none", **traj.record(),
    })
    _emit(ns.output, header, ("t", "jz_mean", "var_jx", "var_jy", "var_jz", "dark_fidelity"),
          rows)
    _print_summary({
        "final_jz": rows[-1][1],
        "midpoint_dark_fidelity": dark_fid[traj.midpoint],
        "eta_omega_bar_T": schedule.adiabaticity(),
        "max_norm_drift": traj.max_norm_drift,
        "truncation_leak": traj.truncation_leak,
    }, path=ns.summary)
    _check_leak(traj)
    return EXIT_OK


def cmd_scan_noise(ns) -> int:
    schedule, params = _build_run(ns)
    # truncating the drive at tau_c and measuring at once samples the running
    # state at tau_c, so one run, stopped at the last cut, serves every cut
    cut_times = np.linspace(0.0, schedule.total_time, ns.cuts).tolist()
    traj = _integrate(ns, schedule, params, capture_times=cut_times)
    cuts = traj.indices_of(cut_times)
    _, *variances = observables.spin_readout(traj.spin_marginals(cuts))
    rows = list(zip(traj.times[cuts].tolist(), *variances))
    header = _provenance("scan-noise", {
        "n": ns.n, "model": ns.model, "preset": ns.adiabatic_preset,
        "total_time": schedule.total_time, "delta": params.delta,
        "cuts": ns.cuts, "seed": "none", **traj.record(),
    })
    _emit(ns.output, header, ("tau_c", "var_jx", "var_jy", "var_jz"), rows)
    _check_leak(traj)
    return EXIT_OK


def cmd_parity(ns) -> int:
    if ns.n != 2:
        raise PhysicsConfigError("parity oscillation analysis is a two-ion protocol")
    if ns.source == "ideal":
        state, record = dark_coefficients(2, 1.0, 1.0).chain_vector.astype(complex), {}
    else:
        state, record = evolution.strict_midpoint(2)
    phases = np.linspace(0.0, 2 * np.pi, ns.phases, endpoint=False)
    parities, pops = observables.parity_curve(state, phases)
    if ns.shots is not None:
        config = measurement.ShotConfig(n_shots=ns.shots, seed=ns.seed)
        parities = measurement.sample_parities(parities, config)
        pops = measurement.sample_populations(state, config.substream(10_000), "z").frequencies
    scan = observables.parity_analysis(phases, parities, pops[0], pops[-1])

    header = _provenance("parity", {
        "n": 2, "source": ns.source, "phases": ns.phases,
        "shots": ns.shots, "generator": measurement.GENERATOR_NAME,
        "seed": ns.seed if ns.shots is not None else "none", **record,
    })
    _emit(ns.output, header, ("phi", "parity"), list(zip(phases, scan.parities)))
    _print_summary({
        "amplitude": scan.amplitude, "p_lower": scan.p_lower, "p_upper": scan.p_upper,
        "fidelity": scan.fidelity,
    }, path=ns.summary)
    return EXIT_OK


def cmd_witness(ns) -> int:
    if ns.source == "ideal":
        from .spin_algebra import half_excited_x
        state, record = half_excited_x(ns.n), {}
    else:
        state, record = evolution.strict_midpoint(ns.n)
    rows = []
    for axes in (("y", "z"), ("z", "x"), ("x", "y")):
        value = observables.witness(state, axes)
        verdict = observables.witness_verdict(ns.n, value)
        rows.append(("".join(axes), value, observables.WITNESS_THRESHOLD_FOUR_ION, verdict))
    header = _provenance("witness", {
        "n": ns.n, "source": ns.source, "seed": "none", **record,
    })
    _emit(ns.output, header, ("axes", "value", "threshold", "genuine_multipartite"), rows)
    return EXIT_OK


def cmd_bounds(ns) -> int:
    raw = _parse_keyvalue(ns.input)
    required = ("W", "sigma_W", "p_list", "sigma_list", "j_M")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"input file is missing keys: {', '.join(missing)}")
    witness_value = float(raw["W"])
    sigma_w = float(raw["sigma_W"])
    pops = [float(tok) for tok in raw["p_list"].split(",")]
    sigmas = [float(tok) for tok in raw["sigma_list"].split(",")]
    j_max = int(raw["j_M"])

    lower = certification.fidelity_lower(witness_value, pops, j_max)
    upper = certification.fidelity_upper(pops)
    sigma_lower, sigma_upper = certification.propagate_uncertainty(j_max, sigma_w, sigmas)

    header = _provenance("bounds", {"input": ns.input, "seed": "none"})
    echo_rows = [(key, f"\"{raw[key]}\"") for key in required]
    result_rows = [
        ("F_lo", lower), ("sigma_lo", sigma_lower),
        ("F_hi", upper), ("sigma_hi", sigma_upper),
        ("ghz_excluded", certification.ghz_excluded(lower)),
    ]
    _emit(ns.output, header + ["# input echo below"], ("key", "value"),
          echo_rows + result_rows)
    _print_summary({
        "F_lo": f"{lower:.6f} +- {sigma_lower:.6f}",
        "F_hi": f"{upper:.6f} +- {sigma_upper:.6f}",
        "ghz_excluded": certification.ghz_excluded(lower),
        "verdict": "half-excited Dicke state certified"
        if certification.ghz_excluded(lower) else "lower bound does not exclude GHZ",
    }, path=ns.summary)
    return EXIT_OK


def cmd_sweep(ns) -> int:
    times = [float(tok) for tok in ns.eta_omega_t_list.split(",")]
    params = model.SystemParams(n_ions=ns.n, delta=ns.delta_ratio)
    rows, ramp_records = [], []
    for total_time in times:
        schedule = evolution.PulseSchedule(total_time=total_time, omega_bar=1.0,
                                           shape=ns.schedule)
        traj = evolution.integrate_reduced(schedule, params)
        rows.append((total_time, *evolution.transfer_numbers(traj)))
        fields = ", ".join(f"{key} = {value}" for key, value in traj.record().items())
        ramp_records.append(f"# ramp {total_time}: {fields}")
    header = _provenance("sweep", {
        "n": ns.n, "schedule": ns.schedule, "delta_ratio": ns.delta_ratio,
        "eta_omega_t_list": ns.eta_omega_t_list, "seed": "none",
    }) + ramp_records
    _emit(ns.output, header, ("eta_omega_t", "final_jz", "midpoint_dark_fidelity"), rows)
    return EXIT_OK


def cmd_repro(ns) -> int:
    results = repro.run_all()
    width = max(len(r.description) for r in results)
    ok = True
    for r in results:
        print(f"criterion {r.cid:>3}  {r.description:<{width}}  {r.verdict}")
        for line in r.details:
            print(f"      {line}")
        if r.documented_shortfall:
            continue  # expected to fail; see notes shipped with the repository
        ok = ok and r.passed
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _darkstate_flags(p):
    p.add_argument("--n", type=positive_int, default=4)
    p.add_argument("--theta", type=finite_float, default=None,
                   help="ramp angle in radians; sets omega_r/b = 1 +- cos(theta)")
    p.add_argument("--omega-r", type=nonnegative_float, default=1.0)
    p.add_argument("--omega-b", type=nonnegative_float, default=1.0)
    p.add_argument("--output", default=None)


def _run_flags(p):
    p.add_argument("--n", type=positive_int, default=4, help="number of ions")
    p.add_argument("--model", choices=("reduced", "full"), default="reduced")
    p.add_argument("--schedule", choices=evolution.SCHEDULE_SHAPES, default="linear")
    p.add_argument("--eta-omega-t", type=positive_float, default=40.0,
                   help="dimensionless ramp length eta*omega_bar*T")
    p.add_argument("--delta-ratio", type=nonnegative_float, default=20.0,
                   help="detuning over eta*omega_bar")
    p.add_argument("--adiabatic-preset", choices=evolution.PRESET_NAMES, default=None,
                   help="overrides the explicit ramp flags")
    p.add_argument("--dt", type=positive_float, default=None, help="integrator step")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.add_argument("--summary", default=None, help="key-value summary file")


def _scan_noise_flags(p):
    _run_flags(p)
    p.add_argument("--cuts", type=positive_int, default=41, help="number of truncation times")


def _parity_flags(p):
    p.add_argument("--n", type=positive_int, default=2)
    p.add_argument("--source", choices=("ideal", "simulated"), default="ideal")
    p.add_argument("--phases", type=nonnegative_int, default=40, help="analysis phases over 2*pi")
    p.add_argument("--shots", type=positive_int, default=None,
                   help="shots per phase (default exact)")
    p.add_argument("--seed", type=seed_int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)
    p.add_argument("--summary", default=None, help="key-value summary file")


def _witness_flags(p):
    p.add_argument("--n", type=positive_int, default=4)
    p.add_argument("--source", choices=("ideal", "simulated"), default="ideal")
    p.add_argument("--output", default=None)


def _bounds_flags(p):
    p.add_argument("--input", required=True,
                   help="key-value file with W, sigma_W, p_list, sigma_list, j_M")
    p.add_argument("--output", default=None)
    p.add_argument("--summary", default=None, help="key-value summary file")


def _sweep_flags(p):
    p.add_argument("--n", type=positive_int, default=4)
    p.add_argument("--schedule", choices=evolution.SCHEDULE_SHAPES, default="linear")
    p.add_argument("--delta-ratio", type=nonnegative_float, default=20.0)
    p.add_argument("--eta-omega-t-list", type=positive_float_list, default="20,40,80,160",
                   help="comma-separated ramp lengths")
    p.add_argument("--output", default=None)


# (name, help, flags, handler) of every subcommand, in the order --help lists them
SUBCOMMANDS = (
    ("darkstate", "closed-form dark-state amplitudes", _darkstate_flags, cmd_darkstate),
    ("evolve", "integrate a STIRAP ramp", _run_flags, cmd_evolve),
    ("scan-noise", "spin noise versus pulse truncation time", _scan_noise_flags,
     cmd_scan_noise),
    ("parity", "two-ion parity oscillation and fidelity", _parity_flags, cmd_parity),
    ("witness", "two-axis squared-spin witness values", _witness_flags, cmd_witness),
    ("bounds", "fidelity bounds from measured witness + populations", _bounds_flags,
     cmd_bounds),
    ("sweep", "transfer quality over a list of ramp lengths", _sweep_flags, cmd_sweep),
    ("repro", "re-run the acceptance checks and print a table", lambda p: None, cmd_repro),
)


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The dickesim parser.  When ``subcommand`` names one, only its
    subparser is built: argparse spends most of a light command's time
    building parsers, and a parse that starts with that name visits no
    other.  Every other argument list (help, --version, no or an unknown
    subcommand) needs them all.  The lone subparser keeps the full choice
    list as its metavar, so that the top-level usage in an error such as
    ``evolve --bogus`` still names every subcommand; the full build leaves
    it unset, because argparse names the argument after it in the errors
    of a missing or unknown subcommand."""
    names = [name for name, *_ in SUBCOMMANDS]
    only = subcommand in names
    parser = _Parser(prog="dickesim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dickesim {__version__}")
    metavar = {"metavar": "{" + ",".join(names) + "}"} if only else {}
    sub = parser.add_subparsers(dest="subcommand", required=True, **metavar)
    for name, help_text, add_flags, handler in SUBCOMMANDS:
        if only and name != subcommand:
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="key-value file supplying flag defaults (flags win)")
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    ns = parser.parse_args(argv)
    try:
        if ns.config is not None:
            ns = parser.parse_args(_with_config(ns, list(argv)))
        return ns.func(ns)
    except BrokenPipeError:
        # the reader went away (`| head`): say nothing, and point stdout at
        # devnull so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except OSError as exc:  # a missing or unreadable --config/--input file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PhysicsConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
