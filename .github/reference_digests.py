"""Check every benchmarked CLI output against bench/reference.json.

Run from the repository root, with the package and the bench modules on
the path; the bench package is imported, never written:

    PYTHONPATH=src:bench python .github/reference_digests.py
        each output twice: from empty operator caches, then from the caches
        the first pass filled, as the benchmark's ops find them after its
        warm-up
    PYTHONPATH=src:bench python .github/reference_digests.py --stored
        each output once, every cache cleared before each op; fails if
        scipy is imported

Run ``--stored`` in a new process after the first pass, which filled the
package's store (``spin_algebra._stored``: the two constant exponentials
and the compiled RK4 kernel): the process must read both from there, so
it prints the same digits without scipy, and without a ``cc`` on PATH.
"""

import sys

import workloads


def clear_every_cache():
    for name, module in list(sys.modules.items()):
        if name.startswith("dickesim."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def main(args):
    stored = args == ["--stored"]
    passes = ["stored"] if stored else ["cold", "warm"]
    runner = workloads.Runner()
    candidates = workloads.cli_candidates()
    failures = []
    for name in passes:
        for argv in candidates:
            op = {"kind": "cli", "argv": argv}
            if name == "warm":
                runner.clear_caches()
            else:
                clear_every_cache()
            problem = runner.check(op, runner.run(op))
            if problem is not None:
                failures.append(f"{name} {' '.join(argv)}: {problem}")
    for line in failures:
        print(line)
    total = len(passes) * len(candidates)
    print(f"{total - len(failures)} of {total} CLI outputs match, {' and '.join(passes)}")
    scipy_loaded = stored and "scipy" in sys.modules
    if stored:
        print(f"'scipy' {'in' if scipy_loaded else 'not in'} sys.modules")
    return 1 if failures or scipy_loaded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
