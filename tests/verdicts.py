"""Print every verdict of nine runs, one JSON line per run: the six theorem
sweeps at their defaults and the (s, t, k) = (2, 2, 2), (3, 3, 3) and
(3, 2, 2) runs with no class, all over the graphs with n <= n_max (default
8) and each checking P1-P8.

Per record the digest covers the graph, each property's (holds,
hypothesis_ok), the whole certificate outcome and the membership skip, so
two checkouts give equal lines exactly when no verdict moved, whatever
their report fields.  Run from a checkout's root, and compare two with
diff:

    PYTHONPATH=src python tests/verdicts.py [n_max] > verdicts.txt
"""

import hashlib
import json
import sys
from collections import Counter

from chibound.classes import THEOREM_CLASS
from chibound.harness import RunConfig, verify_run

PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8")


def runs(n_max):
    source = {"kind": "enumerate", "n_max": n_max}
    out = {thm: RunConfig(source=source, class_name=name, theorem=thm,
                          properties=PROPERTIES, chi_cap=16, chin_cap=12)
           for thm, name in THEOREM_CLASS.items()}
    for stk in ((2, 2, 2), (3, 3, 3), (3, 2, 2)):
        out[str(stk)] = RunConfig(source=source,
                                  theorem_params=dict(zip("stk", stk)),
                                  properties=PROPERTIES, chi_cap=16,
                                  chin_cap=12)
    return out


def main(n_max):
    for name, cfg in runs(n_max).items():
        report = verify_run(cfg)
        rows = [[rec["graph6"],
                 [[p["property"], p["holds"], p["hypothesis_ok"]]
                  for p in rec.get("properties", [])],
                 rec.get("certificate"), rec.get("skipped")]
                for rec in report["records"]]
        verdicts = Counter(f"{which}:{holds}:{hyp}" for row in rows
                           for which, holds, hyp in row[1])
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
        print(json.dumps({"run": name, "aggregates": report["aggregates"],
                          "verdicts": dict(sorted(verdicts.items())),
                          "digest": digest.hexdigest()[:16]}, sort_keys=True),
              flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
