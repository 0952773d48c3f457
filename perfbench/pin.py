#!/usr/bin/env python3
"""Regenerate the pinned virtual-time references in perfbench/reference.json.

    python3 perfbench/pin.py [storm|bulk|fleet ...]

For each workload (default: all) at its pinned size, runs one untraced
iteration per seed in PIN_SEEDS plus the held-out seed and records its
virtual-time outputs. A seed whose run crashes is left unpinned and
reported. Re-pin only in a change that is meant to move the model's
virtual-time outputs, and say so in that change.
"""

import json
import os
import sys

import run

PIN_SEEDS = range(20)


def main():
    run.build()
    path = os.path.join(run.HERE, "reference.json")
    with open(path) as f:
        table = json.load(f)
    os.makedirs(run.RT_DIR, exist_ok=True)
    for workload in sys.argv[1:] or sorted(table["sizes"]):
        size = table["sizes"][workload]
        pins = {}
        for seed in list(PIN_SEEDS) + [table["held_out_seed"]]:
            rec, _ = run.run_once(workload, seed, size, traced=False, gc_events=False)
            if rec is None:
                print("%s seed %d crashed: not pinned" % (workload, seed), file=sys.stderr)
            else:
                pins[str(seed)] = rec["reference"]
        table["pinned"]["%s/%d" % (workload, size)] = pins
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
