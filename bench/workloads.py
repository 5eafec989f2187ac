"""Seeded operation lists for the benchmark workloads, how to run an
operation, and how to check its output.

A run repeats its workload's round.  A round is a list of slots, a slot
lists candidates, and a candidate is a list of operations taken together.
The seed picks one candidate per slot and shuffles the round.  The
candidates of a slot cost the same, or within 7 % for the full-model bands,
so every seed gives the same cost profile and an order statistic of the op
times moves by no more than a slot's spread.  That is how ramp lengths, ion
numbers, sweep lists, shot counts and sampler seeds vary with the seed while
wall time stays steady.

CLI outputs are checked against ``reference.json`` (see
``make_reference.py``) to all the digits the CLI prints; library outputs are
checked against the certification sandwich F_lo <= F <= F_hi.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: nominal seconds per round on a 2-core x86 box, used only to size the run
ROUND_SECONDS = {"ramp": 27.0, "sweep": 29.0, "certify": 0.036}

WORKLOADS = tuple(ROUND_SECONDS)

#: one BLAS thread per client, set before numpy is imported
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PARAM_TOL = 1e-9      # slack on exact inequalities between computed floats
SIGMA_MARGIN = 6.0    # standard errors allowed between a sampled bound and F


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


#: The reduced model's step count is proportional to T * (20 + N), and
#: 3432 = lcm(22, 24, 26): ramps of length k * 3432 / (20 + N) take the same
#: number of steps for N = 2, 4 and 6.
_REDUCED_UNIT = 3432


def _reduced(subcommand, k, *extra):
    return [[_cli(subcommand, "--n", n, "--eta-omega-t", f"{k * _REDUCED_UNIT / (20 + n):g}",
                  *extra)] for n in (2, 4, 6)]


#: full-model ramp lengths per N; the product space grows as (N + 1)(N/2 + 5),
#: so larger N gets a shorter ramp and every band costs about the same
_FULL_BANDS = {2: range(70, 81, 2), 4: range(40, 51, 2), 6: range(20, 31, 2)}


def _full(subcommand, n, *extra):
    return [[_cli(subcommand, "--model", "full", "--n", n, "--eta-omega-t", t, *extra)]
            for t in _FULL_BANDS[n]]


def _sweep(*lists):
    return _cli("sweep", "--n", 4, "--eta-omega-t-list", ",".join(map(str, lists)))


def _sweep_pairs():
    """Two sweeps, [640, x] and [320, y] with {x, y} = {20, 40}, in either
    order within each list: the pair always costs the same."""
    return [[_sweep(*a), _sweep(*b)]
            for x, y in ((20, 40), (40, 20))
            for a in itertools.permutations((640, x))
            for b in itertools.permutations((320, y))]


def _library(kind, **fields):
    return [[{"kind": kind, **fields}]]


RAMP_ROUND = [
    # strict evolve at N = a with the simulated witness at N = 8 - a:
    # the two strict integrations together always take the same steps
    [[_cli("evolve", "--n", a, "--adiabatic-preset", "strict"),
      _cli("witness", "--source", "simulated", "--n", 8 - a)] for a in (2, 4, 6)],
    [[_cli("parity", "--source", "simulated", "--shots", shots, "--seed", seed)]
     for shots in (200, 1000, 5000) for seed in (1, 2, 3, 4)],
    *(_reduced("evolve", k) for k in (0.5, 1, 2, 3)),
    *(_full("evolve", n) for n in (2, 4, 6)),
]

SWEEP_ROUND = [
    _sweep_pairs(),
    _sweep_pairs(),
    [[_sweep(*order)] for order in itertools.permutations((20, 40, 80, 160))],
    _reduced("scan-noise", 0.5, "--cuts", 401),
    _reduced("scan-noise", 1.5, "--cuts", 401),
    *(_full("scan-noise", n, "--cuts", 401) for n in (2, 4, 6)),
]

CERTIFY_ROUND = [
    *(_library("certify", n=n, components=c) for n in (4, 6, 8) for c in (1, 3)),
    _library("experiment"),
    _library("experiment"),
    [[_cli("parity", "--source", "ideal", "--shots", shots, "--seed", seed)]
     for shots in (1000, 10_000, 100_000, 1_000_000) for seed in range(1, 9)],
    [[_cli("witness", "--source", "ideal", "--n", n)] for n in (2, 4, 6, 8)],
    [[_cli("bounds", "--input", "data/paper_fourion.cfg")]],
]

ROUNDS = {"ramp": RAMP_ROUND, "sweep": SWEEP_ROUND, "certify": CERTIFY_ROUND}

#: run once per worker before timing, to import lazily loaded code and fill
#: the operator caches; counted in setup_s
WARM_UP = {
    "ramp": [_cli("evolve", "--n", 2, "--eta-omega-t", 5),
             _cli("evolve", "--model", "full", "--n", 2, "--eta-omega-t", 5),
             _cli("parity", "--shots", 10)],
    "sweep": [_cli("sweep", "--n", 4, "--eta-omega-t-list", 5),
              _cli("scan-noise", "--model", "full", "--n", 2, "--eta-omega-t", 5)],
    "certify": [{"kind": "certify", "n": n, "components": 3, "rng": 0} for n in (4, 6, 8)]
    + [{"kind": "experiment", "noise": 0.1, "shots": 1000, "seed": 0},
       _cli("parity", "--shots", 10), _cli("witness", "--n", 8)],
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The fixed operation list of one run, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(rounds_for(workload, seconds)):
        chosen = [dict(op) for slot in ROUNDS[workload] for op in rng.choice(slot)]
        for op in chosen:
            _randomize(op, rng)
        rng.shuffle(chosen)
        ops += chosen
    return ops


def _randomize(op: dict, rng: random.Random) -> None:
    if op["kind"] == "certify":
        op["rng"] = rng.getrandbits(63)
    elif op["kind"] == "experiment":
        op["noise"] = round(rng.uniform(0.0, 0.3), 4)
        op["shots"] = int(round(10 ** rng.uniform(3.0, 6.0)))
        op["seed"] = rng.getrandbits(63)


def op_list_sha256(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def cli_candidates() -> list[list[str]]:
    """Every CLI argv any seed can produce, warm-up excluded."""
    seen = {}
    for round_ in ROUNDS.values():
        for slot in round_:
            for op in itertools.chain.from_iterable(slot):
                if op["kind"] == "cli":
                    seen[" ".join(op["argv"])] = op["argv"]
    return list(seen.values())


def sweep_lengths(argv: list[str]) -> list[str]:
    return argv[argv.index("--eta-omega-t-list") + 1].split(",")


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations against an imported dickesim package."""

    def __init__(self):
        import numpy as np
        from dickesim import certification, cli, measurement, observables, repro, spin_algebra
        self.np = np
        self.cli = cli
        self.certification = certification
        self.measurement = measurement
        self.observables = observables
        self.spin_algebra = spin_algebra
        # a CLI process starts with empty trajectory caches; clear them per op
        self.cache_clears = (repro.strict_trajectory.cache_clear,
                             repro.fast_trajectory.cache_clear)
        self.reference = (json.loads(REFERENCE_PATH.read_text())
                          if REFERENCE_PATH.exists() else None)

    def clear_caches(self) -> None:
        for clear in self.cache_clears:
            clear()

    def run(self, op: dict):
        kind = op["kind"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(op["argv"]))
                except SystemExit as exc:  # usage errors leave through argparse
                    code = exc.code
            return code, out.getvalue()
        if kind == "certify":
            dim = 2 ** op["n"]
            if op["components"] == 1:
                state = self.certification.haar_random_pure(dim, op["rng"])
            else:
                state = self.certification.random_mixture(dim, op["components"], op["rng"])
            return state, self.certification.certify_from_state(state, "x")
        if kind == "experiment":
            target = self.spin_algebra.half_excited_x(4)
            rho = ((1 - op["noise"]) * self.np.outer(target, target.conj())
                   + op["noise"] * self.np.eye(5) / 5)
            config = self.measurement.ShotConfig(n_shots=op["shots"], seed=op["seed"])
            return rho, self.measurement.simulated_experiment(rho, config)
        raise ValueError(f"unknown operation kind {kind!r}")

    def check(self, op: dict, output) -> str | None:
        """None if the output is right, else what is wrong with it."""
        kind = op["kind"]
        if kind == "cli":
            code, stdout = output
            if code != 0:
                return f"exit code {code}"
            lines = [line for line in stdout.splitlines() if not line.startswith("#")]
            if op["argv"][0] == "sweep":
                rows = self.reference["sweep_rows"]
                expected = [rows["header"]] + [rows[t] for t in sweep_lengths(op["argv"])]
                return None if lines == expected else "sweep rows differ from reference"
            key = " ".join(op["argv"])
            expected = self.reference["digests"].get(key)
            if expected is None:
                return "no reference for this operation"
            return None if digest(lines) == expected else "output differs from reference"
        state, record = output
        if kind == "certify":
            target = self.certification.half_excited_full(op["n"], "x")
            margin_lo = margin_hi = PARAM_TOL
        else:
            target = self.spin_algebra.half_excited_x(4)
            margin_lo = SIGMA_MARGIN * record.sigma_lower + PARAM_TOL
            margin_hi = SIGMA_MARGIN * record.sigma_upper + PARAM_TOL
        fidelity = self.observables.direct_fidelity(state, target)
        if not record.f_lower - margin_lo <= fidelity <= record.f_upper + margin_hi:
            return (f"bounds [{record.f_lower}, {record.f_upper}] "
                    f"do not hold the fidelity {fidelity}")
        if abs(float(record.populations.sum()) - 1.0) > 1e-6:
            return f"populations sum to {record.populations.sum()}"
        return None


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()

