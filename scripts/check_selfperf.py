#!/usr/bin/env python3
"""Gate simulator self-performance against the checked-in baseline.

Usage: check_selfperf.py CANDIDATE.json [BASELINE.json]
           [--tolerance=FACTOR]

CANDIDATE is a fresh ``bench_selfperf`` capture; BASELINE defaults to
the repo-root ``BENCH_selfperf.json``. Each experiment (matched by
name) must not be more than FACTOR times slower (nsPerSimCycle) than
the baseline entry for that experiment. The default tolerance of 1.5x
is deliberately loose: selfperf runs on shared CI machines and only a
gross regression — an accidental O(n) scan on the hot path, a
reintroduced per-event allocation — should fail the build.
Improvements never fail.

The baseline may be either a single capture (an object with an
``experiments`` array) or a trajectory (an object whose ``entries``
array holds dated captures). Captures are stamped with their
experiment shape (``cores``) and the machine shape (``hostThreads``):
within a trajectory the reference is the LAST entry whose shape
matches the candidate's, so a run on a wide host never gates against
a single-core box's wall clock. When no entry matches the candidate's
shape the last entry is used.

Trajectory entries captured on the retired partitioned engine carry a
nonzero ``sim*`` execution stamp (its intra-run thread count or epoch
window). They simulated a different machine, so they are never used
as a reference.

Exit status: 0 when every matched experiment is within tolerance,
1 on any regression or missing experiment, 2 on malformed input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_selfperf: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def shape_of(capture):
    """(cores, hostThreads) stamp of a capture.

    None components mean the capture predates that stamp and act as
    wildcards during matching.
    """
    return (capture.get("cores"), capture.get("hostThreads"))


def partitioned(capture):
    """True for a capture of the retired partitioned engine."""
    return any(k.startswith("sim") and v for k, v in capture.items())


def pick_entry(doc, path, want_shape=None):
    """Resolve a raw capture or a trajectory to one capture dict.

    Within a trajectory, prefer the last entry matching want_shape
    (ignoring None components), then the last entry outright.
    """
    if "entries" in doc:
        entries = [e for e in doc["entries"] if not partitioned(e)]
        if not entries:
            print(f"check_selfperf: {path} has no entries",
                  file=sys.stderr)
            sys.exit(2)
        doc = entries[-1]
        if want_shape is not None:
            def axis_ok(entry_v, want_v):
                # Unstamped values (old captures) act as wildcards on
                # either side.
                return (entry_v is None or want_v is None
                        or entry_v == want_v)

            for e in reversed(entries):
                if all(axis_ok(have, want) for have, want
                       in zip(shape_of(e), want_shape)):
                    doc = e
                    break
    if "experiments" not in doc:
        print(f"check_selfperf: {path} has no experiments",
              file=sys.stderr)
        sys.exit(2)
    return doc


def experiments_of(capture):
    return {e["name"]: e for e in capture["experiments"]}


def compare(base, cand, tolerance, base_desc):
    """Gate cand against base; returns True on any failure."""
    failed = False
    for name, b in sorted(base.items()):
        c = cand.get(name)
        if c is None:
            print(f"FAIL {name}: missing from candidate")
            failed = True
            continue
        b_v = b["nsPerSimCycle"]
        c_v = c["nsPerSimCycle"]
        limit = b_v * tolerance
        verdict = "FAIL" if c_v > limit else "ok"
        print(f"{verdict:4} {name}: {c_v} ns/cycle vs {base_desc} "
              f"{b_v} (limit {limit:.0f})")
        if c_v > limit:
            failed = True
    return failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("candidate")
    ap.add_argument("baseline", nargs="?",
                    default="BENCH_selfperf.json")
    ap.add_argument("--tolerance", type=float, default=1.5)
    args = ap.parse_args()

    cand_doc = pick_entry(load(args.candidate), args.candidate)
    base_doc = pick_entry(load(args.baseline), args.baseline,
                          want_shape=shape_of(cand_doc))
    failed = compare(experiments_of(base_doc),
                     experiments_of(cand_doc), args.tolerance,
                     "baseline")
    if failed:
        print("check_selfperf: simulator slowed down beyond the "
              f"{args.tolerance}x tolerance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
