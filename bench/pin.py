"""Rewrites bench/pinned.json: the fingerprints of the inputs that do not
depend on the workload seed (the mobile-phone files and the ladder rung
lines).  bench/run.py refuses to report when they change, so that a change
to the bundled data or to generate_random_product_line cannot silently
swap a workload.  Re-pin only in a change that redefines the benchmark.

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    pinned = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0, design["workloads"][name]["params"], HERE.parent,
                           Path(tmp))
            workload.setup()
            ids = workload.pinned_ids()
            if ids:
                pinned[name] = {i: workload.fingerprints[i] for i in ids}
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
