"""Re-run the verify-reference reports and print the SHA-256 of each.

Run from the root of a checkout:

    python3 perfbench/report_hash.py

Each line is ``<sha256>  <potential>  exit=<code>``.  The reports are the
ones a verify-reference pass produces (same potentials, caps, order, arity
cap and suite seed ``spec.REPORT_SEED``); they are written to
``.perfbench_out/reports/<potential>.json``.  The hashes
are regenerated on every call and are not a pass/fail gate: a change that
claims to leave every report byte-identical shows the same lines on the
parent commit and on the change.
"""

from __future__ import annotations

import hashlib
import sys

import spec
from worker import ROOT, run_cli


def main() -> int:
    out_dir = ROOT / ".perfbench_out" / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, phi, weights, cap in spec.REFERENCE:
        done = run_cli(spec.verify_argv(phi, weights, cap))
        (out_dir / f"{name}.json").write_bytes(done.stdout)
        digest = hashlib.sha256(done.stdout).hexdigest()
        print(f"{digest}  {name}  exit={done.returncode}")
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
