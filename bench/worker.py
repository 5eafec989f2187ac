"""One benchmark client in a fresh interpreter.

    python3 bench/worker.py setup --workload W
        import dickesim from ./src and run the workload's warm-up, then exit;
        the caller times the whole process as one set-up sample.

    python3 bench/worker.py run --workload W --seed S --seconds T --trace 0|1
        also run the seed's operation list in a closed loop (one operation in
        flight) and print one JSON line with the op times and check results.
        With --trace 1 each op runs both untraced and traced, and the line
        also carries the per-layer totals; the spans go to
        .bench_out/spans-<workload>-s<seed>.csv.gz.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import dickesim
    if Path(dickesim.__file__).resolve().parent != ROOT / "src" / "dickesim":
        raise SystemExit(f"dickesim imported from {dickesim.__file__}, not from ./src")
    return dickesim


def run_op(runner, index, op, tracer=None) -> tuple[float, str | None]:
    """(seconds, problem) for one op; the time covers the call only."""
    runner.clear_caches()
    if tracer is not None:
        tracer.op = index
        tracer.activate(True)
    t0 = time.perf_counter()
    try:
        output, problem = runner.run(op), None
    except Exception as exc:  # every failure counts in error_rate
        output, problem = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.activate(False)
    return elapsed, problem or runner.check(op, output)


#: seconds of ops between runs of the reference loop
REFERENCE_EVERY_S = 0.5


def reference_loop(np) -> float:
    """Seconds for a fixed computation that uses no dickesim code: a Python
    loop of small complex mat-vecs, like the integrator, and dense 128 x 128
    products, like certification.  Contention from other tenants of the host
    slows it as it slows the ops, so op time over its time stays steady."""
    h = (np.diag(np.arange(5.0)) + np.eye(5, k=1) + np.eye(5, k=-1)).astype(complex)
    a = np.exp(1j * np.arange(128 * 128).reshape(128, 128) / 997.0)
    psi = np.zeros(5, dtype=complex)
    psi[0] = 1.0
    t0 = time.perf_counter()
    for _ in range(2000):
        psi = psi - 1e-3j * (h @ (psi - 5e-4j * (h @ psi)))
    for _ in range(12):
        a @ a
    return time.perf_counter() - t0


def run_list(runner, ops, tracer=None) -> dict:
    """Run ops in order, with the reference loop between ops at least every
    REFERENCE_EVERY_S.  With a tracer each op runs both untraced and traced,
    alternating which goes first, so that both passes see the same warm
    process state."""
    import numpy as np
    passes = [("untraced", None)] if tracer is None else [("untraced", None), ("traced", tracer)]
    results = {name: {"times": [], "failures": []} for name, _ in passes}
    results["reference_s"] = [reference_loop(np)]
    last = time.perf_counter()
    for index, op in enumerate(ops):
        for name, op_tracer in passes[::-1] if index % 2 else passes:
            elapsed, problem = run_op(runner, index, op, op_tracer)
            results[name]["times"].append(elapsed)
            if problem is not None:
                results[name]["failures"].append(
                    {"op": index, "operation": op, "problem": problem})
        if time.perf_counter() - last >= REFERENCE_EVERY_S:
            results["reference_s"].append(reference_loop(np))
            last = time.perf_counter()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dickesim = import_package()
    import workloads
    runner = workloads.Runner()
    for op in workloads.WARM_UP[args.workload]:
        runner.run(op)
    if args.mode == "setup":
        return 0

    import numpy
    import scipy
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops = workloads.generate(args.workload, args.seed, seconds)
    result = {
        "ops": len(ops),
        "op_list_sha256": workloads.op_list_sha256(ops),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    # the op list and the harness's own objects are long-lived: keep them out
    # of the program's garbage collections, as in a fresh CLI process
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        from layer_trace import Tracer
        tracer = Tracer()
        tracer.install(dickesim)
    result.update(run_list(runner, ops, tracer))
    if tracer is not None:
        result["layers"] = {**tracer.layer_totals(), **tracer.counters}
        result["spans"] = len(tracer.span_start)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-s{args.seed}.csv.gz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Exception:
        traceback.print_exc()
        raise SystemExit(2)
