"""Recompute the recorded output digests in bench/expected.json.

    python3 bench/record.py FIRST_SEED LAST_SEED

For each seed in [FIRST_SEED, LAST_SEED) this runs rep 0 of traffic-n100 and
mesh-ref and stores the digest of its visit counts and of its event trace.
run.py compares a run on a recorded seed against them. Re-record only for a
deliberate change of those outputs, and say so: both are meant to stay
byte-stable.
"""

import json
import os
import sys

import mesh
import run
import traffic
from common import Outcome


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    hm = run.import_package()
    if hm is None:
        print("record: src/homemesh not found; run from the repository root", file=sys.stderr)
        return 2
    doc = {}
    for name, module in (("traffic-n100", traffic), ("mesh-ref", mesh)):
        doc[name] = {}
        for seed in range(first, last):
            outcome = Outcome()
            result = module.measure(hm, run.ROOT, seed, 0, "full", outcome, None)
            if not outcome.correct:
                print(f"record: {name} seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            doc[name][str(seed)] = result.counts["digest"]
    with open(os.path.join(run.BENCH_DIR, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
