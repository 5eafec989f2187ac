"""Regenerate bench/reference.json: the CLI output of every operation any
seed can produce, as a SHA-256 of its non-provenance lines (sweeps: one
stored row per ramp length, since sweep rows are computed independently).

    python3 bench/make_reference.py

Run it only when a change is meant to alter the numbers the CLI prints, and
say so in the change.  It takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

from worker import ROOT, import_package
import workloads


def main() -> int:
    os.chdir(ROOT)  # the bounds op names its input relative to the checkout
    os.environ.update(workloads.THREAD_ENV)
    import_package()
    runner = workloads.Runner()
    digests, sweep_rows = {}, {}
    for argv in workloads.cli_candidates():
        if argv[0] == "sweep":
            sweep_rows.update({t: None for t in workloads.sweep_lengths(argv)})
            continue
        code, stdout = runner.run({"kind": "cli", "argv": argv})
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        lines = [line for line in stdout.splitlines() if not line.startswith("#")]
        digests[" ".join(argv)] = workloads.digest(lines)
        print(f"{digests[' '.join(argv)][:12]}  {' '.join(argv)}", flush=True)
    for length in sorted(sweep_rows, key=float):
        code, stdout = runner.run({"kind": "cli",
                                   "argv": ["sweep", "--n", "4", "--eta-omega-t-list", length]})
        if code != 0:
            raise SystemExit(f"sweep {length} exited with {code}")
        header, row = [line for line in stdout.splitlines() if not line.startswith("#")]
        sweep_rows["header"], sweep_rows[length] = header, row
        print(f"{row}  sweep row", flush=True)
    reference = {"digests": dict(sorted(digests.items())), "sweep_rows": sweep_rows}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
