"""Compares two run records written by bench/run.py.

    python3 bench/compare.py bench/out/ladder-seed1-trace0.json other.json

Refuses (exit status 2) when the two runs did not see the same inputs,
that is when any input fingerprint differs or exists in one run only: a
change to the generator or to the bundled data must not pass for a change
in speed.  Otherwise prints every figure of both runs and the relative
change.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    if a["workload"] != b["workload"]:
        print(f"refusing: workloads {a['workload']} and {b['workload']} "
              "differ", file=sys.stderr)
        return 2
    fa, fb = a["fingerprints"], b["fingerprints"]
    differ = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
    if differ:
        print(f"refusing: {len(differ)} input fingerprint(s) differ, "
              f"e.g. {differ[:5]}", file=sys.stderr)
        return 2
    for name in sorted(a["figures"].keys() & b["figures"].keys()):
        x, y = a["figures"][name], b["figures"][name]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"{name:45s} {x:14.6g} {y:14.6g} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
