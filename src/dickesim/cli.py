"""Command-line front end; ``DESCRIPTION`` is its top-level help."""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, certification, evolution, measurement, model, observables, repro
from .dark_state import chain_vector, dark_coefficients
from .errors import NumericalError, TruncationWarning
from .spin_algebra import constant_cache, half_excited_x

EXIT_OK, EXIT_USAGE, EXIT_PHYSICS, EXIT_NUMERICAL = 0, 1, 2, 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, what a shell reports for `cmd | head`

DEFAULT_SEED = 12345

#: largest sum of a ``bounds`` p_list: raw populations may sum below 1, not above
P_LIST_MAX_SUM = 1.05

#: the top-level ``--help`` text
DESCRIPTION = """Command-line front end for the simulation and certification pipeline.

All angles are radians; times and rates are in the dimensionless units set
by eta*omega_bar unless a preset supplies physical values.  Every output
file begins with a provenance header (tool version, effective configuration,
seed).  Exit codes: 0 success, 1 usage, 2 violated physics precondition,
3 numerical failure, 141 (128 + SIGPIPE) when the reader closes stdout.
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _checked(name: str, convert, accept):
    """The argparse type ``name``: ``convert`` the text and keep the value
    that ``accept`` takes.  argparse prints the name, as in ``argument --n:
    invalid positive_int value: '0'``, and no message of the bare
    ValueError raised otherwise."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise ValueError
        return value
    parse.__name__ = name
    return parse


def _numbers(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


positive_int = _checked("positive_int", int, lambda v: v >= 1)
nonnegative_int = _checked("nonnegative_int", int, lambda v: v >= 0)
seed_int = _checked("seed_int", int, lambda v: 0 <= v <= measurement.KEY_MAX)
shot_count = _checked("shot_count", int, lambda v: 1 <= v <= measurement.MAX_SHOTS)
positive_float = _checked("positive_float", float, lambda v: 0 < v < math.inf)
nonnegative_float = _checked("nonnegative_float", float, lambda v: 0 <= v < math.inf)
finite_float = _checked("finite_float", float, math.isfinite)
# the list is kept as written, since the provenance header echoes it
positive_float_list = _checked("positive_float_list", str,
                               lambda text: all(0 < v < math.inf for v in _numbers(text)))


def format_csv(header_lines, column_names, rows) -> str:
    text_lines = list(header_lines)
    text_lines.append(",".join(column_names))
    for row in rows:
        text_lines.append(",".join(map(str, row)))
    return "\n".join(text_lines) + "\n"


def _report(ns, config: dict, columns, rows, summary: dict | None = None, notes=()) -> None:
    """Write a command's output; no other code does.  The CSV of ``columns``
    and ``rows`` goes to ``--output`` or stdout, under a provenance header:
    the tool version, the subcommand, a ``# key = value`` line for each
    ``config`` entry and a ``# note`` line for each of ``notes``.  The
    ``summary`` pairs follow on stdout as ``key = value`` lines, which
    ``--summary`` also writes to its file.  Rows hold Python scalars, which
    print as numpy's do and faster."""
    header = [f"# dickesim {__version__}", f"# subcommand: {ns.subcommand}",
              *(f"# {key} = {value}" for key, value in config.items()),
              *(f"# {note}" for note in notes)]
    text = format_csv(header, columns, rows)
    if ns.output is None:
        sys.stdout.write(text)
    else:
        with open(ns.output, "w") as fh:
            fh.write(text)
    if summary is not None:
        text = "".join(f"{key} = {value}\n" for key, value in summary.items())
        sys.stdout.write(text)
        if ns.summary is not None:
            with open(ns.summary, "w") as fh:
                fh.write(text)


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
    later, win.  A file sets only its subcommand's flags, never --config."""
    values = _parse_keyvalue(ns.config)
    (flags,) = [flags for name, _, _, flags in SUBCOMMANDS if name == ns.subcommand]
    unknown = set(values) - {flag[2:].replace("-", "_") for flag in flags}
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
    norm_a, amplitudes = dark_coefficients(ns.n, omega_r, omega_b)
    amplitudes = (amplitudes + 0.0).tolist()  # a vanishing amplitude prints as 0.0, not -0.0
    _report(ns, {
        "n": ns.n, "theta": ns.theta, "omega_r": omega_r, "omega_b": omega_b,
        "norm_a": norm_a, "seed": "none",
    }, ("excitation", "amplitude"), [(2 * i, amp) for i, amp in enumerate(amplitudes)])
    return EXIT_OK


def cmd_evolve(ns) -> int:
    schedule, params = _build_run(ns)
    traj = _integrate(ns, schedule, params)
    dark_fid = evolution.dark_fidelity_series(traj).tolist()
    spin = traj.spin_readout()
    rows = list(zip(traj.times.tolist(), *spin, dark_fid))
    _report(ns, {
        "n": ns.n, "model": ns.model, "schedule": schedule.shape,
        "preset": ns.adiabatic_preset, "total_time": schedule.total_time,
        "omega_bar": schedule.omega_bar, "delta": params.delta,
        "eta_omega_bar_T": schedule.adiabaticity(), "seed": "none", **traj.record(),
    }, ("t", "jz_mean", "var_jx", "var_jy", "var_jz", "dark_fidelity"), rows, summary={
        "final_jz": rows[-1][1],
        "midpoint_dark_fidelity": dark_fid[traj.midpoint],
        "eta_omega_bar_T": schedule.adiabaticity(),
        "max_norm_drift": traj.max_norm_drift,
        "truncation_leak": traj.truncation_leak,
    })
    _check_leak(traj)
    return EXIT_OK


def cmd_scan_noise(ns) -> int:
    schedule, params = _build_run(ns)
    # truncating the drive at tau_c and measuring at once samples the running
    # state at tau_c, so one run, stopped at the last cut, serves every cut
    cut_times = np.linspace(0.0, schedule.total_time, ns.cuts).tolist()
    traj = _integrate(ns, schedule, params, capture_times=cut_times)
    cuts = traj.indices_of(cut_times)
    _, *variances = traj.spin_readout(cuts)
    _report(ns, {
        "n": ns.n, "model": ns.model, "preset": ns.adiabatic_preset,
        "total_time": schedule.total_time, "delta": params.delta,
        "cuts": ns.cuts, "seed": "none", **traj.record(),
    }, ("tau_c", "var_jx", "var_jy", "var_jz"), list(zip(traj.times[cuts].tolist(), *variances)))
    _check_leak(traj)
    return EXIT_OK


def cmd_parity(ns) -> int:
    if ns.source == "ideal":
        state, record = chain_vector(dark_coefficients(2, 1.0, 1.0)[1]).astype(complex), {}
    else:
        state, record = evolution.strict_midpoint(2)
    if ns.shots is None:
        parities, pops = observables.parity_curve(state, ns.phases)
    else:
        config = measurement.ShotConfig(n_shots=ns.shots, seed=ns.seed)
        parities, pops = measurement.sample_parity_curve(state, ns.phases, config)
    phases = observables.parity_phases(ns.phases)
    scan = observables.parity_analysis(phases, parities, pops[0], pops[-1])
    _report(ns, {
        "n": 2, "source": ns.source, "phases": ns.phases,
        "shots": ns.shots, "generator": measurement.GENERATOR_NAME,
        "seed": ns.seed if ns.shots is not None else "none", **record,
    }, ("phi", "parity"), list(zip(phases.tolist(), scan.parities.tolist())), summary={
        "amplitude": scan.amplitude, "p_lower": scan.p_lower, "p_upper": scan.p_upper,
        "fidelity": scan.fidelity,
    })
    return EXIT_OK


def cmd_witness(ns) -> int:
    if ns.source == "ideal":
        state, record = half_excited_x(ns.n), {}
    else:
        state, record = evolution.strict_midpoint(ns.n)
    rows = []
    for axes in certification.AXIS_COMPLEMENTS.values():
        value = observables.witness(state, axes)
        verdict = observables.witness_verdict(ns.n, value)
        rows.append(("".join(axes), value, observables.WITNESS_THRESHOLD_FOUR_ION, verdict))
    _report(ns, {"n": ns.n, "source": ns.source, "seed": "none", **record},
            ("axes", "value", "threshold", "genuine_multipartite"), rows)
    return EXIT_OK


def cmd_bounds(ns) -> int:
    raw = _parse_keyvalue(ns.input)
    number, numbers = (float, "a number"), (_numbers, "a comma-separated list of numbers")
    required = {"W": number, "sigma_W": number, "p_list": numbers, "sigma_list": numbers,
                "j_M": (int, "an integer")}
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"input file is missing keys: {', '.join(missing)}")
    values = {}
    for key, (convert, rule) in required.items():
        try:
            values[key] = convert(raw[key])
        except ValueError:
            raise ValueError(f"{key} = {raw[key]!r} is not {rule}") from None
    pops = values["p_list"]
    if 2 * values["j_M"] + 1 != len(pops):
        raise ValueError(f"j_M = {raw['j_M']} does not match the {len(pops)} populations "
                         "of p_list: j_M must be (len(p_list) - 1)/2")
    if sum(pops) > P_LIST_MAX_SUM:
        raise ValueError(f"p_list sums to {sum(pops)}, more than {P_LIST_MAX_SUM}")
    rec = certification.CertificationRecord(values["W"], pops, values["sigma_W"],
                                            values["sigma_list"])
    certified = certification.ghz_excluded(rec.f_lower)
    rows = [(key, f"\"{raw[key]}\"") for key in required] + [
        ("F_lo", rec.f_lower), ("sigma_lo", rec.sigma_lower),
        ("F_hi", rec.f_upper), ("sigma_hi", rec.sigma_upper), ("ghz_excluded", certified),
    ]
    _report(ns, {"input": ns.input, "seed": "none"}, ("key", "value"), rows, summary={
        "F_lo": f"{rec.f_lower:.6f} +- {rec.sigma_lower:.6f}",
        "F_hi": f"{rec.f_upper:.6f} +- {rec.sigma_upper:.6f}",
        "ghz_excluded": certified,
        "verdict": "half-excited Dicke state certified" if certified
        else "lower bound does not exclude GHZ",
    }, notes=("input echo below",))
    return EXIT_OK


def cmd_sweep(ns) -> int:
    times = _numbers(ns.eta_omega_t_list)
    params = model.SystemParams(n_ions=ns.n, delta=ns.delta_ratio)
    rows, ramp_records = [], []
    for total_time in times:
        schedule = evolution.PulseSchedule(total_time=total_time, omega_bar=1.0,
                                           shape=ns.schedule)
        traj = evolution.integrate_reduced(schedule, params)
        rows.append((total_time, *evolution.transfer_numbers(traj)))
        fields = ", ".join(f"{key} = {value}" for key, value in traj.record().items())
        ramp_records.append(f"ramp {total_time}: {fields}")
    _report(ns, {
        "n": ns.n, "schedule": ns.schedule, "delta_ratio": ns.delta_ratio,
        "eta_omega_t_list": ns.eta_omega_t_list, "seed": "none",
    }, ("eta_omega_t", "final_jz", "midpoint_dark_fidelity"), rows, notes=ramp_records)
    return EXIT_OK


def cmd_repro(ns) -> int:
    results = repro.run_all()
    width = max(len(r.description) for r in results)
    for r in results:
        print(f"criterion {r.cid:>3}  {r.description:<{width}}  {r.verdict}")
        for line in r.details:
            print(f"      {line}")
    # a documented shortfall prints FAIL and still exits 0
    ok = all(r.passed or r.cid in repro.DOCUMENTED_SHORTFALLS for r in results)
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# every flag of every subcommand, declared once with its type, default and help
FLAGS = {
    "--n": dict(type=positive_int, default=4, help="number of ions"),
    "--theta": dict(type=finite_float,
                    help="ramp angle in radians; sets omega_r/b = 1 +- cos(theta)"),
    "--omega-r": dict(type=nonnegative_float, default=1.0),
    "--omega-b": dict(type=nonnegative_float, default=1.0),
    "--model": dict(choices=("reduced", "full"), default="reduced"),
    "--schedule": dict(choices=evolution.SCHEDULE_SHAPES, default="linear"),
    "--eta-omega-t": dict(type=positive_float, default=40.0,
                          help="dimensionless ramp length eta*omega_bar*T"),
    "--eta-omega-t-list": dict(type=positive_float_list, default="20,40,80,160",
                               help="comma-separated ramp lengths"),
    "--delta-ratio": dict(type=nonnegative_float, default=20.0,
                          help="detuning over eta*omega_bar"),
    "--adiabatic-preset": dict(choices=evolution.PRESETS,
                               help="overrides the explicit ramp flags"),
    "--dt": dict(type=positive_float, help="integrator step"),
    "--cuts": dict(type=positive_int, default=41, help="number of truncation times"),
    "--source": dict(choices=("ideal", "simulated"), default="ideal"),
    "--phases": dict(type=nonnegative_int, default=observables.PARITY_PHASES,
                     help="analysis phases over 2*pi"),
    "--shots": dict(type=shot_count, help="shots per phase (default exact)"),
    "--seed": dict(type=seed_int, default=DEFAULT_SEED),
    "--input": dict(required=True,
                    help="key-value file with W, sigma_W, p_list, sigma_list, j_M"),
    "--output": dict(help="CSV path (default stdout)"),
    "--summary": dict(help="key-value summary file"),
}

# (name, help, handler, flags in --help order) of every subcommand, in the
# order --help lists them
SUBCOMMANDS = (
    ("darkstate", "closed-form dark-state amplitudes", cmd_darkstate,
     ("--n", "--theta", "--omega-r", "--omega-b", "--output")),
    ("evolve", "integrate a STIRAP ramp", cmd_evolve,
     ("--n", "--model", "--schedule", "--eta-omega-t", "--delta-ratio", "--adiabatic-preset",
      "--dt", "--output", "--summary")),
    ("scan-noise", "spin noise versus pulse truncation time", cmd_scan_noise,
     ("--n", "--model", "--schedule", "--eta-omega-t", "--delta-ratio", "--adiabatic-preset",
      "--dt", "--output", "--cuts")),
    ("parity", "two-ion parity oscillation and fidelity", cmd_parity,
     ("--source", "--phases", "--shots", "--seed", "--output", "--summary")),
    ("witness", "two-axis squared-spin witness values", cmd_witness,
     ("--n", "--source", "--output")),
    ("bounds", "fidelity bounds from measured witness + populations", cmd_bounds,
     ("--input", "--output", "--summary")),
    ("sweep", "transfer quality over a list of ramp lengths", cmd_sweep,
     ("--n", "--schedule", "--delta-ratio", "--eta-omega-t-list", "--output")),
    ("repro", "re-run the acceptance checks and print a table", cmd_repro, ()),
)


@constant_cache()
def build_parser() -> argparse.ArgumentParser:
    """The dickesim parser with all eight subparsers, built once per
    process: argparse spends most of a light command's time building
    parsers, and a parse keeps no state in them.  Every call returns the
    same parser, so callers must not change it."""
    parser = _Parser(prog="dickesim", description=DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"dickesim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, handler, flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key-value file supplying flag defaults (flags win)")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=handler)
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    ns = parser.parse_args(argv)
    # a library warning prints as one line; recorders such as pytest.warns
    # take the warning itself and never format it
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
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
    except (ValueError, MemoryError) as exc:
        # MemoryError: a --cuts or --phases too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
