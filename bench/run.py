"""dickesim benchmark: one command, seeded workloads, checked outputs.

    python3 bench/run.py --workload ramp|sweep|certify --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
./src, so nothing is built or installed.  The run

1. times SETUP_RUNS fresh interpreters that import dickesim and run the
   workload's warm-up (``setup_s`` is their median);
2. starts one more fresh interpreter, the only client, which runs the seed's
   fixed operation list in a closed loop, one operation in flight, with one
   BLAS thread, checks every output (see workloads.py), and times a
   reference loop between ops (see worker.py);
3. prints every metric with its unit, then the result as one JSON line
   carrying the metrics named in BENCHMARK.json.  --trace 0 gives the
   end-to-end metrics, --trace 1 the per-layer ones: the list (sized for
   half of --seconds) runs untraced and traced, and the ratio of the two
   wall times is the tracing overhead.

The run environment, per-op times and any failures are also written to
.bench_out/result-<workload>-s<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, set-up included, ends well inside 180 s
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")
    return args


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it.  With fewer than 2 * TAIL_BEYOND samples
    that percentile is at or below the median, so the maximum is given."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(args, start_load) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": tree_sha256(ROOT / "src"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_threads": workloads.THREAD_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": start_load,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def tree_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*.py")):
        digest.update(str(file.relative_to(path)).encode() + b"\0" + file.read_bytes())
    return digest.hexdigest()


def spawn(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc


def measure(args, deadline: float) -> tuple[list[float], dict]:
    env = {**os.environ, **workloads.THREAD_ENV}
    setup = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        spawn(["setup", "--workload", args.workload], env, deadline - time.perf_counter())
        setup.append(time.perf_counter() - t0)
    proc = spawn(["run", "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)],
                 env, deadline - time.perf_counter())
    return setup, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setup: list[float], run: dict) -> tuple[dict, dict]:
    times = run["untraced"]["times"]
    value, percentile, beyond = tail(times)
    reference = statistics.fmean(run["reference_s"])
    wall, p50 = sum(times), statistics.median(times)
    values = {
        "wall_rel": (wall / reference, "1"),
        "op_p50_rel": (p50 / reference, "1"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (value, "s"),
        "reference_s": (reference, "s"),
    }
    notes = {"op_tail_s": f"p{percentile:.2f} of {len(times)} ops, {beyond} beyond it",
             "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
             "reference_s": f"mean of {len(run['reference_s'])} reference loops"}
    return values, notes


def per_layer(run: dict) -> tuple[dict, dict]:
    layers = dict(run["layers"])
    untraced = sum(run["untraced"]["times"])
    traced = sum(run["traced"]["times"])
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers.update({
        "trace.overhead_ratio": traced / untraced - 1,
        "trace.wall_s": traced,
        "trace.unattributed_s": traced - self_total,
        "trace.spans": run["spans"],
    })
    notes = {"trace.unattributed_s": "traced wall_s minus the sum of the layer self times"}
    return {name: (value, None) for name, value in layers.items()}, notes


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "dickesim" / "__init__.py").is_file():
        sys.stderr.write(f"no dickesim source under {ROOT / 'src'}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env_record = environment(args, os.getloadavg())

    setup, run = measure(args, start + DEADLINE_S)
    if args.trace:
        values, notes = per_layer(run)
        wanted = spec["per_layer"]
        passes = [run["untraced"], run["traced"]]
    else:
        values, notes = end_to_end(setup, run)
        wanted = spec["end_to_end"]
        passes = [run["untraced"]]
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env_record.update(op_list_sha256=run["op_list_sha256"], numpy=run["numpy"],
                      scipy=run["scipy"], ops=run["ops"])

    print(f"dickesim benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={run['ops']}")
    for key in ("git_sha", "src_sha256", "python", "numpy", "scipy", "blas_threads",
                "nproc", "loadavg_start", "op_list_sha256"):
        print(f"  env {key} = {env_record[key]}")
    metrics = {entry["name"]: {"value": values[entry["name"]][0], "unit": entry["unit"]}
               for entry in wanted}
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    shown.update((name, pair) for name, pair in values.items() if name not in shown)
    shown["error_rate"] = (len(failures) / attempted, "1")
    notes["error_rate"] = f"{len(failures)} failed / {attempted} attempted"
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    for failure in failures[:5]:
        print(f"  FAILED op {failure['op']}: {failure['problem']}  {failure['operation']}")

    OUT.mkdir(exist_ok=True)
    record = {"environment": env_record, "metrics": metrics, "setup_samples_s": setup,
              "printed": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
              "failures": failures,
              "op_times_s": {k: p["times"] for k, p in zip(("untraced", "traced"), passes)}}
    name = f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
