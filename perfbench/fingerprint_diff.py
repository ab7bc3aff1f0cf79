#!/usr/bin/env python3
"""List every simulated count that differs between two fingerprints.

    python3 perfbench/fingerprint_diff.py BEFORE.json AFTER.json

A fingerprint is the full serialized result of one benchmark run plus
its executed-event count, which run.py writes to
.bench_build/fingerprints/<workload>.seed<seed>.json. A change that
only speeds up the simulator must leave every value identical; this
prints each one that moved and exits 1 if any did.
"""

import json
import sys


def flatten(node, prefix, out):
    """Leaves of a JSON tree keyed by their dotted path."""
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = {}, {}
    for path, out in zip(argv[1:], (before, after)):
        with open(path) as f:
            flatten(json.load(f), "", out)
    moved = [(k, before.get(k), after.get(k))
             for k in sorted(before.keys() | after.keys())
             if before.get(k) != after.get(k)]
    for key, a, b in moved:
        print(f"{key}: {a} -> {b}")
    print(f"{len(moved)} of {len(before.keys() | after.keys())} values moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
