import argparse
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import cli, errors, evolution, observables, repro, spin_algebra

PAPER_CFG = """\
W = 5.46
sigma_W = 0.07
p_list = 0.00, 0.03, 0.88, 0.03, 0.03
sigma_list = 0.00, 0.02, 0.03, 0.02, 0.02
j_M = 2
"""


def _data_rows(path):
    rows = []
    for line in open(path):
        if line.startswith("#"):
            continue
        rows.append(line.strip().split(","))
    return rows[0], rows[1:]


def _summary(text):
    pairs = (line.split(" = ") for line in text.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


def test_darkstate_half_pi_amplitudes(tmp_path):
    out = tmp_path / "dark.csv"
    assert cli.main(["darkstate", "--n", "4", "--theta", "1.5708",
                     "--output", str(out)]) == 0
    header, rows = _data_rows(out)
    assert header == ["excitation", "amplitude"]
    amps = [float(r[1]) for r in rows]
    assert np.allclose(amps, [0.6124, -0.5, 0.6124], atol=5e-4)
    assert [int(r[0]) for r in rows] == [0, 2, 4]


@pytest.mark.parametrize("flags, amplitudes", [
    (["--theta", "0"], ["1.0", "0.0", "0.0"]),
    (["--theta", str(np.pi)], ["0.0", "0.0", "1.0"]),
    (["--omega-b", "0"], ["1.0", "0.0", "0.0"]),
    (["--omega-r", "0"], ["0.0", "0.0", "1.0"]),
])
def test_darkstate_prints_a_vanishing_amplitude_without_a_sign(flags, amplitudes, capsys):
    # at the ends of the ramp the negative C_1 times a zero tone is -0.0 in
    # the dark state, and the CSV prints it as 0.0
    assert cli.main(["darkstate", "--n", "4", *flags]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows == ["excitation,amplitude", *(f"{2 * i},{a}" for i, a in enumerate(amplitudes))]


def test_darkstate_provenance_header(tmp_path):
    out = tmp_path / "dark.csv"
    cli.main(["darkstate", "--n", "2", "--output", str(out)])
    first = open(out).readline()
    assert first.startswith("# dickesim ")


def test_bounds_on_published_inputs(tmp_path, capsys):
    cfg = tmp_path / "paper.cfg"
    cfg.write_text(PAPER_CFG)
    out = tmp_path / "bounds.csv"
    assert cli.main(["bounds", "--input", str(cfg), "--output", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "F_lo = 0.835000" in summary
    assert "F_hi = 0.880000" in summary
    assert "ghz_excluded = True" in summary
    text = out.read_text()
    # verbatim echo of the raw input strings
    assert '"0.00, 0.03, 0.88, 0.03, 0.03"' in text


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: bounds applies the four-ion GHZ "
                   "ceiling 0.75 at every j_M, and a two-ion GHZ state reaches F = 1")
def test_bounds_at_two_ions_never_excludes_ghz(tmp_path, capsys):
    # the ideal two-ion state is, along x, the Bell state (|00> - |11>)/sqrt(2),
    # itself a GHZ state, so no two-ion record can exclude GHZ
    cfg = tmp_path / "two_ion.cfg"
    cfg.write_text("W = 2\nsigma_W = 0.0\np_list = 0.0, 1.0, 0.0\n"
                   "sigma_list = 0.0, 0.0, 0.0\nj_M = 1\n")
    assert cli.main(["bounds", "--input", str(cfg)]) == cli.EXIT_OK
    assert "ghz_excluded = True" not in capsys.readouterr().out


def test_bounds_missing_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("W = 5.0\n")
    assert cli.main(["bounds", "--input", str(cfg)]) == 2


@pytest.mark.parametrize("old, new", [
    ("sigma_W = 0.07", "sigma_W = inf"),
    ("W = 5.46", "W = nan"),
    ("p_list = 0.00,", "p_list = nan,"),
])
def test_bounds_non_finite_input_exits_2(tmp_path, capsys, old, new):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(PAPER_CFG.replace(old, new))
    assert new in cfg.read_text()
    assert cli.main(["bounds", "--input", str(cfg)]) == cli.EXIT_PHYSICS
    captured = capsys.readouterr()
    assert "certified" not in captured.out
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("p_list, error", [
    ("0.0, 0.0, 3.0, 0.0, 0.0", "p_list sums to 3.0, more than 1.05"),
    ("0.0, 0.5, 0.5, 0.06, 0.0", "p_list sums to 1.06, more than 1.05"),
    ("0.0, 0.0, 1.01, 0.0, 0.0", "populations must lie in [0, 1]"),
], ids=["sum-3", "sum-1.06", "value-1.01"])
def test_bounds_refuses_populations_above_one(tmp_path, capsys, p_list, error):
    # raw populations may sum below 1 (the paper's sum to 0.97), not above
    # 1.05, and none may exceed 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(PAPER_CFG.replace("0.00, 0.03, 0.88, 0.03, 0.03", p_list))
    assert cli.main(["bounds", "--input", str(cfg)]) == cli.EXIT_PHYSICS
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("j_m", ["3", "2.5"])
def test_bounds_refuses_a_j_m_that_disagrees_with_p_list(tmp_path, capsys, j_m):
    # five populations need j_M = 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(PAPER_CFG.replace("j_M = 2", f"j_M = {j_m}"))
    assert cli.main(["bounds", "--input", str(cfg)]) == cli.EXIT_PHYSICS
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("old, new, rule", [
    ("W = 5.46", "W = 5,46", "W = '5,46' is not a number"),
    ("sigma_list = 0.00, 0.02,", "sigma_list = 0.00, x,",
     "sigma_list = '0.00, x, 0.03, 0.02, 0.02' is not a comma-separated list of numbers"),
    ("j_M = 2", "j_M = 2.0", "j_M = '2.0' is not an integer"),
    ("j_M = 2", "j_M = two", "j_M = 'two' is not an integer"),
], ids=["W", "sigma_list", "j_M-2.0", "j_M-two"])
def test_bounds_names_the_key_it_cannot_read(tmp_path, capsys, old, new, rule):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(PAPER_CFG.replace(old, new))
    assert new in cfg.read_text()
    assert cli.main(["bounds", "--input", str(cfg)]) == cli.EXIT_PHYSICS
    assert capsys.readouterr() == ("", f"error: {rule}\n")


@pytest.mark.parametrize("flag", ["--config", "--input"])
def test_missing_input_file_exits_usage(tmp_path, flag, capsys):
    subcommand = "darkstate" if flag == "--config" else "bounds"
    missing = str(tmp_path / "nonexistent.cfg")
    assert cli.main([subcommand, flag, missing]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err and err.count("\n") == 1


def test_parity_ideal(tmp_path, capsys):
    out = tmp_path / "parity.csv"
    assert cli.main(["parity", "--output", str(out)]) == 0
    summary = capsys.readouterr().out
    fidelity = float([ln for ln in summary.splitlines() if ln.startswith("fidelity")][0]
                     .split("=")[1])
    assert fidelity == pytest.approx(1.0, abs=1e-9)
    header, rows = _data_rows(out)
    assert header == ["phi", "parity"]
    assert len(rows) == 40


def test_parity_ion_number_flag_is_a_usage_error(capsys):
    # parity is a two-ion protocol and takes no --n
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["parity", "--n", "2"])
    assert excinfo.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --n 2\n")


def test_parity_config_ion_number_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "parity.cfg"
    cfg.write_text("n = 2\n")
    assert cli.main(["parity", "--config", str(cfg)]) == cli.EXIT_PHYSICS
    assert capsys.readouterr().err == "error: config file has unknown keys: n\n"


@pytest.mark.parametrize("n_phases", ["0", "1", "2", "4"])
def test_parity_underdetermined_phases_exit_code(n_phases):
    # such phase grids cannot resolve the 2*phi oscillation; the fit refuses them
    assert cli.main(["parity", "--phases", n_phases]) == 2


def test_parity_sampled_near_exact_curve(tmp_path):
    exact, sampled = tmp_path / "exact.csv", tmp_path / "sampled.csv"
    assert cli.main(["parity", "--output", str(exact)]) == 0
    assert cli.main(["parity", "--shots", "1000000", "--seed", "5",
                     "--output", str(sampled)]) == 0
    _, exact_rows = _data_rows(exact)
    _, sampled_rows = _data_rows(sampled)
    p = np.clip((1 + np.array([float(r[1]) for r in exact_rows])) / 2, 0.0, 1.0)
    sigma = 2 * np.sqrt(p * (1 - p) / 1e6)
    dev = np.abs(np.array([float(r[1]) for r in sampled_rows]) - (2 * p - 1))
    assert np.all(dev <= 5 * sigma + 1e-12)


@pytest.mark.parametrize("shots", [[], ["--shots", "100", "--seed", "3"]])
def test_parity_fits_its_curve_once(shots, monkeypatch, capsys):
    # the exact or the sampled curve is fitted, never both
    calls, fit = [], observables.parity_analysis
    monkeypatch.setattr(observables, "parity_analysis",
                        lambda *args: calls.append(args) or fit(*args))
    assert cli.main(["parity", *shots]) == cli.EXIT_OK
    assert len(calls) == 1


def test_parity_sampled_byte_identical(tmp_path, capsys):
    # measurement._draw re-keys one generator per thread before every draw,
    # so no call draws from what an earlier call left: a second call in this
    # interpreter and a call in a fresh one print the same bytes
    a, b, fresh = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "fresh.csv"
    args = ["parity", "--shots", "2000", "--seed", "77", "--phases", "16"]
    assert cli.main(args + ["--output", str(a)]) == 0
    summary = capsys.readouterr().out
    assert cli.main(args + ["--output", str(b)]) == 0
    assert capsys.readouterr().out == summary
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dickesim.cli", *args, "--output", str(fresh)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, summary, "")
    assert a.read_bytes() == b.read_bytes() == fresh.read_bytes()


def test_witness_ideal(tmp_path):
    out = tmp_path / "witness.csv"
    assert cli.main(["witness", "--n", "4", "--output", str(out)]) == 0
    header, rows = _data_rows(out)
    assert header == ["axes", "value", "threshold", "genuine_multipartite"]
    yz = rows[0]
    assert yz[0] == "yz"
    assert float(yz[1]) == pytest.approx(6.0, abs=1e-9)
    assert yz[3] == "True"


def _around(x):
    """x and its two float neighbours, with their negatives."""
    near = [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return [float(v) for v in near] + [-float(v) for v in near]


# the repr switches from positional to scientific notation below 1e-4 and
# from 1e16 on; the subnormals end at 2.2250738585072014e-308
_CSV_EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, *_around(1e-4),
              *_around(1e16), *_around(2.2250738585072014e-308), *_around(1.0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_CSV_EDGES) | st.floats(), min_size=1, max_size=6),
                min_size=1, max_size=8))
def test_csv_rows_print_the_same_for_numpy_and_python_floats(rows):
    # evolve hands format_csv Python floats from .tolist(); the bytes must be
    # those of the numpy float64 rows it was given before
    header, names = ["# header"], [f"c{i}" for i in range(6)]
    as_numpy = [[np.float64(v) for v in row] for row in rows]
    as_python = [[float(v) for v in row] for row in rows]
    assert cli.format_csv(header, names, as_numpy) == cli.format_csv(header, names, as_python)


def test_evolve_quick_run(tmp_path, capsys):
    out = tmp_path / "evolve.csv"
    with pytest.warns(errors.ReducedModelWarning):
        assert cli.main(["evolve", "--n", "2", "--eta-omega-t", "10",
                         "--delta-ratio", "5", "--output", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "final_jz" in summary
    header, rows = _data_rows(out)
    assert header == ["t", "jz_mean", "var_jx", "var_jy", "var_jz", "dark_fidelity"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(10.0, abs=1e-9)


def test_scan_noise_quick_run(tmp_path):
    out = tmp_path / "noise.csv"
    with pytest.warns(errors.ReducedModelWarning):
        assert cli.main(["scan-noise", "--n", "4", "--eta-omega-t", "10",
                         "--delta-ratio", "5", "--cuts", "5", "--output", str(out)]) == 0
    header, rows = _data_rows(out)
    assert header == ["tau_c", "var_jx", "var_jy", "var_jz"]
    assert len(rows) == 5
    # initial state is the pole: variances (1, 1, 0)
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-9)


def test_scan_noise_stopped_at_the_start_warns(capsys):
    # one cut stops the run at t = 0, before any step; the ramp's peak tone
    # 2*omega_bar still leaves the reduced regime at delta = 5*eta*omega_bar
    with pytest.warns(errors.ReducedModelWarning):
        assert cli.main(["scan-noise", "--n", "2", "--cuts", "1", "--delta-ratio", "5"]) == 0
    out = capsys.readouterr().out
    assert "# n_steps = 0" in out.splitlines()
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 2 and float(rows[1].split(",")[0]) == 0.0


def test_sweep_quick_run(tmp_path):
    out = tmp_path / "sweep.csv"
    with pytest.warns(errors.ReducedModelWarning):
        assert cli.main(["sweep", "--n", "2", "--eta-omega-t-list", "6,12",
                         "--delta-ratio", "5", "--output", str(out)]) == 0
    header, rows = _data_rows(out)
    assert header == ["eta_omega_t", "final_jz", "midpoint_dark_fidelity"]
    assert len(rows) == 2
    # longer ramp transfers better
    assert float(rows[1][1]) > float(rows[0][1])


def test_sweep_records_each_ramp(capsys):
    assert cli.main(["sweep", "--n", "4", "--eta-omega-t-list", "20,40"]) == 0
    out = capsys.readouterr().out.splitlines()
    ramps = [line for line in out if line.startswith("# ramp ")]
    assert len(ramps) == 2
    for line, total_time in zip(ramps, (20.0, 40.0)):
        label, _, fields = line.partition(": ")
        assert label == f"# ramp {total_time}"
        record = dict(field.split(" = ") for field in fields.split(", "))
        assert set(record) == {"propagator", "n_steps", "dt", "max_norm_drift"}
        assert record["propagator"] == "rk4"
        n_steps, dt = int(record["n_steps"]), float(record["dt"])
        assert n_steps > 0 and n_steps * dt == pytest.approx(total_time, rel=1e-12)
        assert 0 <= float(record["max_norm_drift"]) <= 1e-8
    # the records are header lines, ahead of the column names and data rows
    data = [line for line in out if not line.startswith("#")]
    assert out.index(ramps[-1]) < out.index(data[0])
    assert len(data) == 3


def test_sweep_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--n", "2", "--eta-omega-t-list", "6,12", "--delta-ratio", "5"]
    for path in (a, b):
        with pytest.warns(errors.ReducedModelWarning):
            assert cli.main(base + ["--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the header records the configuration, not how the run was executed
    assert "workers" not in a.read_text()


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\ntheta = 0.0\n")
    out = tmp_path / "a.csv"
    # file supplies both values
    assert cli.main(["darkstate", "--config", str(cfg), "--output", str(out)]) == 0
    _, rows = _data_rows(out)
    assert len(rows) == 2 and float(rows[0][1]) == pytest.approx(1.0)
    # the explicit flag beats the file value
    out2 = tmp_path / "b.csv"
    assert cli.main(["darkstate", "--config", str(cfg), "--n", "4",
                     "--output", str(out2)]) == 0
    _, rows2 = _data_rows(out2)
    assert len(rows2) == 3


@pytest.mark.parametrize("subcommand, text", [
    ("darkstate", "n = 0\n"),
    ("darkstate", "theta = nan\n"),
    ("evolve", "model = bogus\n"),
])
def test_config_value_failing_its_flag_exits_usage(tmp_path, subcommand, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        cli.main([subcommand, "--config", str(cfg)])
    assert excinfo.value.code == cli.EXIT_USAGE


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(["darkstate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key", ["func", "subcommand", "help", "eta_omega", "config"])
def test_config_file_names_no_parser_internals_or_prefixes(tmp_path, key, capsys):
    # namespace entries that no flag sets, flag prefixes, and the --config
    # flag itself (a file names no other file) are not keys
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = x\n")
    assert cli.main(["evolve", "--config", str(cfg)]) == cli.EXIT_PHYSICS
    assert capsys.readouterr().err == f"error: config file has unknown keys: {key}\n"


def _header(path):
    return dict(line[2:].split(" = ", 1) for line in path.read_text().splitlines()
                if line.startswith("# ") and " = " in line)


@pytest.mark.parametrize("flags", [["--n=6"], ["--n", "6"], ["--n", "2", "--n", "6"]])
def test_config_file_loses_to_a_flag_in_every_spelling(tmp_path, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\n")
    out = tmp_path / "a.csv"
    assert cli.main(["darkstate", "--config", str(cfg), *flags, "--output", str(out)]) == 0
    assert _header(out)["n"] == "6"
    _, rows = _data_rows(out)
    assert len(rows) == 4


def test_config_file_loses_to_a_flag_prefix(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\neta_omega_t = 30\n")
    out = tmp_path / "a.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--eta-omega", "12",
                     "--output", str(out)]) == 0
    header = _header(out)
    assert (header["total_time"], header["n"]) == ("12.0", "2")


def test_config_value_may_start_with_a_minus(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = -1.0\n")
    out = tmp_path / "a.csv"
    assert cli.main(["darkstate", "--config", str(cfg), "--output", str(out)]) == 0
    header = _header(out)
    assert header["theta"] == "-1.0"
    assert float(header["omega_r"]) == 1 + np.cos(-1.0)


def test_config_value_error_is_argparse_message(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = bogus\n")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["evolve", "--config", str(cfg)])
    assert excinfo.value.code == cli.EXIT_USAGE
    assert "argument --model: invalid choice: 'bogus'" in capsys.readouterr().err


def test_summary_file(tmp_path, capsys):
    summary = tmp_path / "sum.txt"
    assert cli.main(["parity", "--output", str(tmp_path / "p.csv"),
                     "--summary", str(summary)]) == 0
    text = summary.read_text()
    assert text.startswith("amplitude = ")
    assert "fidelity = " in text


def test_summary_is_written_by_evolve_and_is_no_scan_noise_key(tmp_path, capsys):
    summary = tmp_path / "sum.txt"
    assert cli.main(["evolve", "--n", "2", "--eta-omega-t", "8", "--output",
                     str(tmp_path / "e.csv"), "--summary", str(summary)]) == 0
    assert summary.read_text() == capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"summary = {summary}\n")
    assert cli.main(["scan-noise", "--config", str(cfg)]) == cli.EXIT_PHYSICS
    assert capsys.readouterr().err == "error: config file has unknown keys: summary\n"


def test_sampled_parity_refuses_phases_that_reach_the_population_stream(capsys):
    # phase k is drawn on substream 100 + k and the z populations on 10,000
    assert cli.main(["parity", "--shots", "10", "--phases", "9901"]) == cli.EXIT_PHYSICS
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a sampled parity curve takes at most 9900 phases, got 9901\n"


def test_evolve_strict_preset_reaches_full_transfer(tmp_path, capsys):
    out = tmp_path / "strict.csv"
    assert cli.main(["evolve", "--n", "4", "--adiabatic-preset", "strict",
                     "--output", str(out)]) == 0
    summary = capsys.readouterr().out
    final_jz = float([ln for ln in summary.splitlines()
                      if ln.startswith("final_jz")][0].split("=")[1])
    assert final_jz >= 1.98
    _, rows = _data_rows(out)
    assert float(rows[-1][1]) >= 1.98


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["not-a-command"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--eta-omega-t-list", "6,abc"],
    ["sweep", "--eta-omega-t-list", "0"],
    ["sweep", "--eta-omega-t-list", "6,nan"],
    ["parity", "--shots", "-5"],
    ["parity", "--shots", "0"],
    ["scan-noise", "--cuts", "-1"],
    ["scan-noise", "--cuts", "0"],
    ["evolve", "--eta-omega-t", "inf"],
    ["evolve", "--eta-omega-t", "0"],
    ["evolve", "--eta-omega-t", "nan"],
    ["evolve", "--dt", "0"],
    ["evolve", "--dt", "-0.1"],
    ["evolve", "--dt", "inf"],
    ["evolve", "--delta-ratio", "nan"],
    ["evolve", "--delta-ratio", "-1"],
    ["sweep", "--delta-ratio", "inf"],
    ["evolve", "--n", "0"],
    ["scan-noise", "--n", "-2"],
    ["darkstate", "--n", "0"],
    ["parity", "--phases", "1.5"],
    ["witness", "--n", "2.5"],
    ["sweep", "--n", "0"],
    ["darkstate", "--theta", "nan"],
    ["darkstate", "--omega-r", "nan"],
    ["darkstate", "--omega-r", "inf", "--omega-b", "1"],
    ["darkstate", "--omega-b", "-1"],
    ["parity", "--phases", "-3"],
    ["parity", "--shots", "10", "--seed", "-1"],
    ["parity", "--shots", "10", "--seed", str(2**64)],
    ["scan-noise", "--summary", "f"],  # only evolve writes a summary
    ["parity", "--shots", str(2**63), "--phases", "3"],  # past a C long
])
def test_malformed_input_exits_usage(argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv, type_name", [
    (["evolve", "--n", "0"], "positive_int"),
    (["parity", "--phases", "-3"], "nonnegative_int"),
    (["parity", "--shots", "10", "--seed", str(2**64)], "seed_int"),
    (["parity", "--shots", str(2**63)], "shot_count"),
    (["evolve", "--eta-omega-t", "nan"], "positive_float"),
    (["evolve", "--delta-ratio", "-1"], "nonnegative_float"),
    (["darkstate", "--theta", "nan"], "finite_float"),
    (["sweep", "--eta-omega-t-list", "6,abc"], "positive_float_list"),
], ids=lambda value: value if isinstance(value, str) else value[-2])
def test_argparse_names_each_type(argv, type_name, capsys):
    # argparse prints the type's __name__, not the message of its ValueError
    *_, flag, text = argv
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"dickesim {argv[0]}: error: argument {flag}: invalid {type_name} value: '{text}'")


@pytest.mark.parametrize("argv", [
    ["evolve", "--eta-omega-t", "1e17"],
    ["evolve", "--dt", "1e-300", "--eta-omega-t", "5"],
    ["scan-noise", "--model", "full", "--eta-omega-t", "1e20"],
    ["evolve", "--eta-omega-t", "1e308"],
    ["sweep", "--eta-omega-t-list", "1e308"],
])
def test_step_count_past_int64_exits_physics(argv, capsys):
    # T/dt past the kernel's int64 step count or infinite is refused with one
    # error line before any step is planned, not an OverflowError
    assert cli.main(argv) == cli.EXIT_PHYSICS
    err = capsys.readouterr().err
    # the full model at N = 4 has n_max + 1 = 7 Fock levels
    limit = "2^31/(n_max + 1) = 2^31/7" if "full" in argv else "2^31"
    assert err.startswith("error: ") and err.endswith(f"steps exceed the limit of {limit}\n")
    assert err.count("\n") == 1


def test_step_plan_past_the_bound_exits_physics(capsys):
    # 1e15 at the default step 0.1/24 fits int64 but would run for millennia
    assert cli.main(["evolve", "--eta-omega-t", "1e15"]) == cli.EXIT_PHYSICS
    assert capsys.readouterr().err == "error: 2.4e+17 steps exceed the limit of 2^31\n"


def test_full_model_plan_is_bounded_by_its_step_cost(monkeypatch, capsys):
    # 2.0e9 steps pass the chain's 2^31, but at about 12 us a full-model step
    # at N = 8 they would run for about 7 h; the plan is refused first
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(evolution, "_rk4", no_step)
    argv = ["evolve", "--model", "full", "--n", "8", "--eta-omega-t", "4e6"]
    assert cli.main(argv) == cli.EXIT_PHYSICS
    assert capsys.readouterr().err == (
        "error: 2.02e+09 steps exceed the limit of 2^31/(n_max + 1) = 2^31/9\n")


@pytest.mark.parametrize("model, step", [("reduced", "4.545e-03"), ("full", "2.500e-03")])
def test_a_too_coarse_dt_names_the_stable_step(capsys, model, step):
    argv = ["evolve", "--model", model, "--n", "2", "--dt", "0.5"]
    assert cli.main(argv) == cli.EXIT_PHYSICS
    assert capsys.readouterr() == (
        "", f"error: dt = 5.000e-01 exceeds the stable step {step} of this {model} run\n")


def test_scan_noise_honours_dt():
    # the same step is too coarse for evolve, which exits 2 on it
    assert cli.main(["scan-noise", "--n", "2", "--eta-omega-t", "10", "--cuts", "5",
                     "--dt", "1"]) == cli.EXIT_PHYSICS


def test_largest_seed_is_accepted(capsys):
    assert cli.main(["parity", "--shots", "10", "--seed", str(2**64 - 1)]) == cli.EXIT_OK


def test_largest_shot_count_is_accepted(capsys):
    assert cli.main(["parity", "--shots", str(2**63 - 1), "--phases", "3"]) == cli.EXIT_OK


@pytest.mark.parametrize("argv", [
    ["scan-noise", "--cuts", str(10**15)],
    ["parity", "--phases", str(10**15)],
])
def test_a_request_too_large_to_allocate_exits_physics(argv, capsys):
    # 10^15 float64 grid points are 7.11 PiB, which the allocator refuses at once
    assert cli.main(argv) == cli.EXIT_PHYSICS
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate 7.11 PiB") and err.count("\n") == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_detuning_default_step_keeps_the_norm(n, capsys):
    # at delta = 0 the drive's norm, not delta + N*omega_bar, bounds the step
    argv = ["evolve", "--n", str(n), "--delta-ratio", "0", "--eta-omega-t", "20"]
    with pytest.warns(errors.ReducedModelWarning):
        assert cli.main(argv + ["--model", "reduced"]) == cli.EXIT_OK
    assert float(_summary(capsys.readouterr().out)["max_norm_drift"]) < 1e-8
    # the full model pumps phonons past the truncation at resonance: the
    # run fails on that leak (exit 3) and not on the readout's trace check,
    # and stderr holds the CLI's one message, not the library's warning too
    assert cli.main(argv + ["--model", "full"]) == cli.EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert float(_summary(out)["max_norm_drift"]) < 1e-8
    assert err.startswith("numerical failure: phonon truncation leak") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["evolve"], ["scan-noise", "--cuts", "5"]])
def test_full_model_leak_prints_the_rows_then_exits_numerical(command, capsys):
    # at resonance the sidebands fill n_max = N//2 + 4, which no flag raises
    argv = command + ["--model", "full", "--n", "2", "--delta-ratio", "0", "--eta-omega-t", "20"]
    assert cli.main(argv) == cli.EXIT_NUMERICAL  # and no TruncationWarning
    out, err = capsys.readouterr()
    assert "\n20.0," in out  # the row at the end of the ramp was printed
    assert err.startswith("numerical failure: phonon truncation leak 1.13e-01 exceeds 1e-03; ")
    assert "n_max = N//2 + 4 = 5" in err and "--delta-ratio" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["evolve", "--n", "1", "--delta-ratio", "0", "--eta-omega-t", "100"],
    ["sweep", "--n", "1", "--delta-ratio", "0", "--eta-omega-t-list", "100"],
])
def test_drift_past_the_readout_tolerance_is_a_numerical_failure(argv, capsys):
    # at odd N and delta = 0 the drift grows with T and passes the readout's
    # 1e-8 at T = 100: the integrator reports it as a step-size failure
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert "reduce the step size" in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    (["evolve", "--n", "2", "--eta-omega-t", "1"],
     "warning: eta*omega_bar*T = 1.00 is below 5.0; the ramp is unlikely to be adiabatic\n"),
    (["evolve", "--n", "2", "--delta-ratio", "1", "--eta-omega-t", "5"],
     "warning: the sideband rate peaks at 2 against delta = 1: the reduced chain needs "
     "2*delta > 10*max(Omega_r, Omega_b) to neglect the off-resonant transitions that the "
     "full model keeps\n"),
], ids=["short-ramp", "small-detuning"])
def test_a_library_warning_prints_one_line(argv, err, tmp_path):
    # not Python's file:line header and echoed source line
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dickesim.cli", *argv,
                           "--output", str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, err)


def test_main_restores_the_warning_format(capsys):
    before = warnings.formatwarning
    with pytest.warns(UserWarning, match="below 5.0"):
        assert cli.main(["evolve", "--n", "2", "--eta-omega-t", "1"]) == cli.EXIT_OK
    assert warnings.formatwarning is before


def test_parity_prints_the_observables_phase_grid(capsys):
    assert cli.main(["parity", "--phases", "7"]) == cli.EXIT_OK
    phis = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()
            if line[:1].isdigit()]
    assert phis == [str(phi) for phi in observables.parity_phases(7)]
    assert cli.build_parser().parse_args(["parity"]).phases == observables.PARITY_PHASES


def test_evolve_outside_reduced_regime_warns(capsys):
    # the peak tone 2*omega_bar is not small against delta = 0.5*eta*omega_bar
    with pytest.warns(errors.ReducedModelWarning, match="full model"):
        assert cli.main(["evolve", "--n", "2", "--eta-omega-t", "10",
                         "--delta-ratio", "0.5"]) == 0


@pytest.mark.parametrize("argv", [
    ["evolve", "--n", "2", "--eta-omega-t", "10"],
    ["evolve", "--n", "4", "--adiabatic-preset", "fast"],
    ["evolve", "--n", "2", "--adiabatic-preset", "paper"],
    ["scan-noise", "--n", "2", "--eta-omega-t", "10", "--cuts", "5"],
    ["sweep", "--n", "2", "--eta-omega-t-list", "6,12"],
])
def test_default_and_preset_runs_are_silent(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", errors.ReducedModelWarning)
        assert cli.main(argv) == 0


@pytest.mark.parametrize("verdicts, code", [
    ([("1", True), ("3s", False)], cli.EXIT_OK),
    ([("1", True), ("3", False)], cli.EXIT_NUMERICAL),
])
def test_repro_exit_code_forgives_only_documented_shortfalls(monkeypatch, capsys,
                                                             verdicts, code):
    results = [repro.CriterionResult(cid, "check", passed, ["detail"])
               for cid, passed in verdicts]
    monkeypatch.setattr(repro, "run_all", lambda: results)
    assert cli.main(["repro"]) == code
    assert "FAIL" in capsys.readouterr().out


def test_repro_prints_a_failing_dark_state_row(monkeypatch, capsys):
    # an equal-tone dark state that is not Ry(pi/2)|D^{N/2}> fails criterion
    # 1's gate: a FAIL row and exit 3, not a traceback
    half_excited_x = spin_algebra.half_excited_x
    monkeypatch.setattr(spin_algebra, "half_excited_x", lambda n: np.roll(half_excited_x(n), 1))
    monkeypatch.setattr(repro, "ROWS", {"1": repro.ROWS["1"]})
    assert cli.main(["repro"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().out.startswith("criterion   1  dark-state algebra  FAIL\n")


def test_closed_stdout_exits_quietly():
    # `dickesim evolve ... | head -1`: the reader closes the pipe after one
    # line, long before the ~250 kB of CSV are written
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dickesim.cli", "evolve", "--n", "2", "--eta-omega-t", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# dickesim ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_commands_that_never_exponentiate_start_without_scipy(tmp_path):
    # only the matrix exponential (parity, witness --source ideal, repro)
    # needs scipy.linalg; every other command must run without loading it
    cfg = Path(__file__).resolve().parents[1] / "data" / "paper_fourion.cfg"
    runs = [
        ["darkstate"],
        ["bounds", "--input", str(cfg)],
        ["evolve", "--n", "2", "--eta-omega-t", "5", "--model", "reduced"],
        ["evolve", "--n", "2", "--eta-omega-t", "5", "--model", "full"],
        ["sweep", "--eta-omega-t-list", "5"],
        ["scan-noise", "--cuts", "3"],
    ]
    script = "\n".join([
        "import sys",
        "from dickesim import cli",
        "assert 'scipy.linalg' not in sys.modules, 'import dickesim.cli'",
        f"for i, argv in enumerate({runs!r}):",
        f"    out = {str(tmp_path)!r} + f'/out{{i}}.csv'",
        "    assert cli.main(argv + ['--output', out]) == 0, argv",
        "    assert 'scipy.linalg' not in sys.modules, argv",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _subcommand_choices(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_subcommand_table_is_the_full_parser():
    names = [name for name, *_ in cli.SUBCOMMANDS]
    assert _subcommand_choices(cli.build_parser()) == names


def test_missing_or_unknown_subcommand_errors_name_the_argument(capsys):
    # argparse names the argument after the subparsers' metavar, which
    # build_parser therefore leaves unset
    for argv, message in ((["bogus"], "error: argument subcommand: invalid choice: 'bogus'"),
                          ([], "error: the following arguments are required: subcommand")):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err


_TOP_LEVEL_HELP = """\
usage: dickesim [-h] [--version]
                {darkstate,evolve,scan-noise,parity,witness,bounds,sweep,repro}
                ...

Command-line front end for the simulation and certification pipeline. All
angles are radians; times and rates are in the dimensionless units set by
eta*omega_bar unless a preset supplies physical values. Every output file
begins with a provenance header (tool version, effective configuration, seed).
Exit codes: 0 success, 1 usage, 2 violated physics precondition, 3 numerical
failure, 141 (128 + SIGPIPE) when the reader closes stdout.

positional arguments:
  {darkstate,evolve,scan-noise,parity,witness,bounds,sweep,repro}
    darkstate           closed-form dark-state amplitudes
    evolve              integrate a STIRAP ramp
    scan-noise          spin noise versus pulse truncation time
    parity              two-ion parity oscillation and fidelity
    witness             two-axis squared-spin witness values
    bounds              fidelity bounds from measured witness + populations
    sweep               transfer quality over a list of ramp lengths
    repro               re-run the acceptance checks and print a table

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


def test_top_level_help_survives_a_docstring_edit(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    monkeypatch.setattr(cli, "__doc__", "An edited module docstring.")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == cli.EXIT_OK
    assert capsys.readouterr() == (_TOP_LEVEL_HELP, "")


_PAPER_CFG_PATH = str(Path(__file__).resolve().parents[1] / "data" / "paper_fourion.cfg")

# help, a valid run of each light subcommand, and the errors that argparse
# reports from the top-level parser (whose usage names every subcommand) or
# from the subcommand's own; override.cfg (n = 4) is written by the test
_BUILD_EQUIVALENCE_ARGV = [
    *([name, "--help"] for name, *_ in cli.SUBCOMMANDS),
    ["darkstate", "--n", "4", "--theta", "1.5708"],
    ["evolve", "--n", "2", "--eta-omega-t", "8"],
    ["parity"],
    ["parity", "--shots", "1000", "--seed", "7"],
    ["witness", "--source", "ideal"],
    ["bounds", "--input", _PAPER_CFG_PATH],
    ["evolve", "--bogus"],
    ["evolve", "--model", "bogus"],
    ["bogus"],
    [],
    ["--help"],
    ["--version"],
    ["bounds"],
    ["darkstate"],
    ["darkstate", "--config", "override.cfg", "--n=6"],
]


def _outcome(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", _BUILD_EQUIVALENCE_ARGV,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_a_one_shot_process_prints_what_the_cached_parser_prints(argv, monkeypatch, tmp_path,
                                                                 capsys):
    # a fresh process builds every subparser for its one command; it prints
    # what this process's cached parser prints
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    (tmp_path / "override.cfg").write_text("n = 4\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dickesim.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    one = (proc.returncode, proc.stdout, proc.stderr)
    if argv[1:] == ["--help"]:
        assert one[0] == cli.EXIT_OK
    assert _outcome(argv, capsys) == one


def test_warm_parsers_print_what_cold_ones_print(monkeypatch, tmp_path, capsys):
    # a parse (an error exit, --help, a --config run) leaves no state in a
    # cached parser that a later, different command reads
    monkeypatch.chdir(tmp_path)
    (tmp_path / "override.cfg").write_text("n = 4\n")
    cold = {}
    for argv in _BUILD_EQUIVALENCE_ARGV:
        cli.build_parser.cache_clear()
        cold[tuple(argv)] = _outcome(argv, capsys)
    assert all(cold[name, "--help"][0] == cli.EXIT_OK for name, *_ in cli.SUBCOMMANDS)
    cli.build_parser.cache_clear()
    for argv in [*_BUILD_EQUIVALENCE_ARGV, *reversed(_BUILD_EQUIVALENCE_ARGV)]:
        assert _outcome(argv, capsys) == cold[tuple(argv)], argv


def test_a_process_builds_each_parser_once(tmp_path, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("n = 2\n")
    cli.build_parser.cache_clear()
    for _ in range(2):
        # --config parses twice, with the same parser
        assert cli.main(["darkstate", "--config", str(cfg), "--n", "6"]) == cli.EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert "# n = 6" in capsys.readouterr().out
    # every subcommand and every other argument list shares that parser
    for argv in ([[name, "--help"] for name, *_ in cli.SUBCOMMANDS]
                 + [["bogus"], [], ["--version"]]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    info = cli.build_parser.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
