#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload cg-hybrid --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The first run builds two copies of the
driver (perfbench.cc against the repository's library) under
.bench_build/: a plain one and a -pg one for the traced run.

--trace 0 runs the plain driver for --seconds and reports the
end-to-end metrics. --trace 1 splits --seconds between the plain
driver (span timers and simulated counts) and the -pg driver (host self
time per source module) and reports the per-layer metrics. Host times
are medians over a run's experiments, each calibrated by the host
probe the driver times around it (see calibrated()). Either way
every experiment's output is checked: its final memory image against
the other system mode's, and its simulated counts against the first
experiment's. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full serialized result of the run is kept as the simulated
fingerprint in .bench_build/fingerprints/; fingerprint_diff.py lists
every count that differs between two of them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import selftime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cg-hybrid", "pipeline-hybrid", "contend-cache")
# Share of a traced run's --seconds given to the -pg driver; gprof
# samples at 100 Hz, so the traced side gets most of the budget.
TRACED_SHARE = 0.75
# Seconds a driver may overrun its budget (its last experiment, the
# output check) before it is stopped.
DRIVER_GRACE_S = 60
# Time of one pass of the driver's host probe on the host the
# benchmark was tuned on (4-vCPU Xeon VM at 2.1 GHz). Host times are
# reported as they would read at that probe time.
PROBE_REF_S = 0.008

SPANS = ("workloads.build_s", "compiler.prepare_s", "system.construct_s",
         "runtime.sources_s", "system.run_s", "driver.collect_s",
         "driver.serialize_s")
SETUP_SPANS = SPANS[:4]
# Self-time layers reported by the traced run; "other" is the rest.
SHARE_LAYERS = ("sim", "cpu", "runtime", "mem", "mem.dir", "mem.l1",
                "mem.memctrl", "coherence", "coherence.fdir", "spm",
                "noc", "protocols", "system")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(variant, gprof):
    """Configure once and build the driver; the path of the binary."""
    bdir = os.path.join(BUILD, variant)
    with open(bdir + ".log", "w") as out:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", bdir,
                   "-DPERFBENCH_GPROF=" + ("ON" if gprof else "OFF")]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            steps.append(cfg)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                shutil.rmtree(bdir, ignore_errors=True)
                raise RuntimeError(f"build of the {variant} driver failed; "
                                   f"see {bdir}.log")
    return os.path.join(bdir, "perfbench")


class DriverRun:
    """The parsed output of one driver process."""

    def __init__(self, binary, args, seconds, cwd=None):
        try:
            p = subprocess.run([binary] + args, cwd=cwd,
                               capture_output=True, text=True,
                               timeout=seconds + DRIVER_GRACE_S)
            self.returncode, stdout = p.returncode, p.stdout
            if p.returncode:
                log(p.stderr.strip())
        except subprocess.TimeoutExpired as e:
            self.returncode, stdout = "timeout", e.stdout or ""
            if isinstance(stdout, bytes):
                stdout = stdout.decode(errors="replace")
        records = []
        for line in stdout.splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                pass
        self.experiments = [r for r in records if "iter" in r]
        self.fingerprint = next((r for r in records if "fingerprint" in r),
                                None)
        self.reference = next((r["reference_digest"] for r in records
                               if "reference_digest" in r), None)
        self.peak_rss_kb = next((r["peak_rss_kb"] for r in records
                                 if "peak_rss_kb" in r), None)

    def timed(self):
        """Checked experiments after the first (the warm-up)."""
        ok = [e for e in self.experiments if e["ok"]]
        return ok[1:] or ok


class Checker:
    """Counts experiments attempted and those that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def process(self, run, name):
        """Account for a driver process that exited abnormally."""
        if run.returncode != 0:
            self.attempted += 1
            self.fail(f"{name} driver exited with {run.returncode}")

    def experiments(self, run, reference, fingerprint_hash):
        """Check each experiment's image and simulated counts."""
        for e in run.experiments:
            self.attempted += 1
            if not e["ok"]:
                self.fail(f"experiment {e['iter']}: {e['error']}")
            elif e["digest"] != reference:
                self.fail(f"experiment {e['iter']}: memory image "
                          f"{e['digest']} != reference {reference}")
            elif e["fingerprint_hash"] != fingerprint_hash:
                self.fail(f"experiment {e['iter']}: simulated counts "
                          "differ from the first experiment's")


def calibrated(e, spans):
    """Host seconds of @p spans of experiment @p e, at the speed of a
    host where the probe takes PROBE_REF_S.

    Other tenants of the host slow it by up to 60%, in phases of
    seconds to minutes. The probe timed around the experiment slows
    with it, so the ratio of the two holds still.
    """
    return sum(e["spans"][s] for s in spans) * PROBE_REF_S / e["probe_s"]


def span_times(run):
    """Median over a run's timed experiments of each calibrated time."""
    exps = run.timed()

    def med(spans):
        return statistics.median(calibrated(e, spans) for e in exps)

    out = {s: med((s,)) for s in SPANS}
    out["run_s"] = med(SPANS)
    out["setup_s"] = med(SETUP_SPANS)
    return out


def host_speed(run):
    """The uncalibrated median run_s and the median probe time."""
    exps = run.timed()
    return (statistics.median(sum(e["spans"].values()) for e in exps),
            statistics.median(e["probe_s"] for e in exps))


def end_to_end(run):
    exps = run.timed()
    m = span_times(run)
    sim_s = m["system.run_s"]
    return {
        "run_s": (m["run_s"], "s"),
        "setup_s": (m["setup_s"], "s"),
        "ns_per_cycle": (sim_s / exps[0]["cycles"] * 1e9, "ns"),
        "sim_kips": (exps[0]["instructions"] / sim_s / 1e3, "k_instr/s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MB"),
    }


def counts(fp):
    """Per-layer simulated counts from the serialized result."""
    r = fp["fingerprint"]["results"][0]
    stats = r["stats"]

    def ctr(group, key):
        return stats.get(group, {}).get("counters", {}).get(key, 0)

    def mean(group, key):
        h = stats.get(group, {}).get("histograms", {}).get(key)
        return h["sum"] / h["samples"] if h and h["samples"] else 0.0

    lookups = r["filter"]["hits"] + r["filter"]["misses"]
    return {
        "system.sim_cycles": (r["cycles"], "cycles"),
        "sim.events": (fp["events"], "count"),
        "cpu.instructions": (ctr("core", "instructions"), "count"),
        "cpu.mem_ops": (ctr("core", "memOps"), "count"),
        "cpu.rob_stalls": (ctr("core", "robStalls"), "count"),
        "mem.l1d_accesses": (ctr("l1d", "accesses"), "count"),
        "mem.l1d_misses": (ctr("l1d", "misses"), "count"),
        "mem.l1d_mshr_occupancy_mean":
            (mean("l1d", "mshrOccupancy"), "entries"),
        "mem.dir_txns": (r["counters"]["dirTxns"], "count"),
        "mem.dir_queued_requests": (ctr("dir", "queuedRequests"), "count"),
        "mem.dir_txn_occupancy_mean":
            (mean("dir", "txnOccupancy"), "entries"),
        "mem.memctrl_reads": (ctr("memctrl", "reads"), "count"),
        "mem.memctrl_writes": (ctr("memctrl", "writes"), "count"),
        "coherence.guarded_probes": (ctr("coh", "guardedProbes"), "count"),
        "coherence.filter_hit_ratio":
            (r["filter"]["hits"] / lookups if lookups else 0.0, "ratio"),
        "coherence.fdir_broadcasts": (ctr("fdir", "broadcasts"), "count"),
        "coherence.fdir_queued_ops": (ctr("fdir", "queuedOps"), "count"),
        "coherence.remote_spm_served":
            (ctr("coh", "remoteSpmServed"), "count"),
        "coherence.resolve_latency_mean":
            (mean("coh", "resolveLatency"), "cycles"),
        "spm.dma_lines": (r["counters"]["dmaLines"], "count"),
        "spm.dma_line_latency_mean":
            (mean("dmac", "lineLatency"), "cycles"),
        "noc.packets": (r["traffic"]["totalPackets"], "count"),
        "noc.flit_hops": (r["traffic"]["flitHops"], "count"),
    }


def per_layer(plain, traced, shares):
    exps = plain.timed()
    m = span_times(plain)
    out = {s: (m[s], "s") for s in SPANS}
    out["sim.ns_per_event"] = (
        m["system.run_s"] / exps[0]["events"] * 1e9, "ns")
    # Uncalibrated: under -pg the probe itself runs slower.
    out["trace.overhead_s"] = (host_speed(traced)[0] - host_speed(plain)[0],
                               "s")
    for layer in SHARE_LAYERS:
        out[layer + ".self_share"] = (shares.get(layer, 0.0), "ratio")
    out["other.self_share"] = (
        1.0 - sum(v for k, v in shares.items()
                  if k in SHARE_LAYERS and "." not in k), "ratio")
    out.update(counts(plain.fingerprint))
    return out


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")


def save_fingerprint(workload, seed, fp):
    path = os.path.join(BUILD, "fingerprints", f"{workload}.seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "events": fp["events"],
                   "result": fp["fingerprint"]["results"][0]},
                  f, indent=1, sort_keys=True)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    os.makedirs(BUILD, exist_ok=True)
    try:
        plain_bin = build("plain", gprof=False)
        traced_bin = build("gprof", gprof=True)
    except RuntimeError as e:
        log(str(e))
        return 2

    common = [f"--workload={args.workload}", f"--seed={args.seed}"]
    check = Checker()
    ref = DriverRun(plain_bin, common + ["--reference"], 0)
    check.attempted += 1
    if ref.returncode != 0 or ref.reference is None:
        check.fail("reference run failed")

    plain_s = args.seconds * (1 - TRACED_SHARE if args.trace else 1)
    plain = DriverRun(plain_bin, common + [f"--seconds={plain_s}"],
                      plain_s)
    check.process(plain, "plain")
    if (plain.fingerprint is None or not plain.timed() or
            plain.peak_rss_kb is None):
        log("the plain driver did not finish")
        return 1
    fp_hash = plain.experiments[0]["fingerprint_hash"]
    check.experiments(plain, ref.reference, fp_hash)
    fp_path = save_fingerprint(args.workload, args.seed, plain.fingerprint)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(plain.experiments)} experiments of "
          f"{plain.fingerprint['fingerprint']['results'][0]['spec']['label']}"
          ", the first one a warm-up left out of the statistics")
    if args.trace:
        gdir = os.path.join(BUILD, "gprof-run")
        os.makedirs(gdir, exist_ok=True)
        gmon = os.path.join(gdir, "gmon.out")
        if os.path.exists(gmon):
            os.remove(gmon)
        traced_s = args.seconds * TRACED_SHARE
        traced = DriverRun(traced_bin, common + [f"--seconds={traced_s}"],
                           traced_s, cwd=gdir)
        check.process(traced, "traced")
        check.experiments(traced, ref.reference, fp_hash)
        if not traced.timed() or not os.path.exists(gmon):
            log("the traced driver produced no profile")
            return 1
        shares, calls, samples = selftime.attribute(traced_bin, gmon)
        shares, calls = selftime.rollup(shares), selftime.rollup(calls)
        metrics = per_layer(plain, traced, shares)
        print_table("per-layer metrics (spans and counts from the plain "
                    "driver, self shares from the -pg driver)", metrics)
        print(f"traced run: {len(traced.experiments)} experiments, "
              f"{samples} gprof samples; host self time and calls by "
              "module:")
        for mod, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {mod:32s} {share:16.4f} {calls.get(mod, 0):>14d} "
                  "calls")
    else:
        metrics = end_to_end(plain)
        print_table("end-to-end metrics (host times: medians over "
                    "experiments, calibrated by the host probe)", metrics)
    raw_run_s, probe_s = host_speed(plain)
    print(f"  {'uncalibrated run_s':32s} {raw_run_s:>16.6g} s")
    print(f"  {'host probe':32s} {probe_s:>16.6g} s "
          f"(reference {PROBE_REF_S:g} s)")
    fail_rate = check.failed / check.attempted
    print(f"  {'fail_rate':32s} {fail_rate:>16.6g} ratio "
          f"({check.failed} of {check.attempted} experiments)")
    for p in check.problems:
        print(f"  FAILED: {p}")
    print(f"simulated fingerprint: {os.path.relpath(fp_path, ROOT)}")

    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
