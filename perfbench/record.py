#!/usr/bin/env python3
"""Record the output digests that run.py compares every run against.

    python3 perfbench/record.py 0-19

Run it from the root of a checkout whose outputs are known to be right.
It rewrites the entries of the given seeds in perfbench/expected.json and
keeps the others.  A canon-6-3 entry also lists the pairs abandoned at the
action cap, which later runs compare as abandoned.
"""

import json
import sys

import run


def record(workload, seed):
    kind, n, p = run.WORKLOADS[workload]
    pkg, pairs = run.setup(kind, n, p, seed)
    r = run.Run(pkg, None, run.speed.SpeedMeter(active=False))
    if kind == "verify":
        _, _, entry = run.verify_op(r, n, p, seed, None, False)
    else:
        first = []
        run.canon_pass(r, run.ActionCap(pkg.canonical, run.ACT_RIGHT_CAP), pairs, first)
        entry = {
            "action_cap": run.ACT_RIGHT_CAP,
            "digests": run.canon_digest(r, first, None)["digests"],
            "censored": [i for i, line in enumerate(first) if line.endswith(" censored")],
        }
    if r.failed:
        raise SystemExit(f"{workload} seed {seed} failed its checks: {r.problems}")
    return entry


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__)
    if not run.use_src():
        return 2
    try:
        table = json.loads(run.RECORD.read_text())
    except FileNotFoundError:
        table = {}
    for seed in seeds(argv[0]):
        for workload in run.WORKLOADS:
            table.setdefault(workload, {})[str(seed)] = record(workload, seed)
            run.RECORD.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(workload, seed, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
