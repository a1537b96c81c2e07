#!/usr/bin/env python3
"""Host-time benchmark of the BreakHammer simulator.

Builds hostbench/ (a CMake package that compiles ../src into its own
library) and runs one workload:

    python3 hostbench/run.py --workload attack --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh processes), grid wall time, per-point host time, peak RSS and the
share of points that passed every output check. Grid and point times
are scaled by a contention probe run between points (see NOTES.md). --trace 1 reports the
per-layer metrics of a separate traced run and writes its spans as a
Chrome trace (open it in Perfetto) under hostbench/build/results/.
The last line of stdout is the JSON result.

Other entry points:
    python3 hostbench/run.py --write-golden   # re-bless seed-1 digests
    python3 hostbench/run.py --selftest       # instrument test
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ["attack", "benign-4ch", "sampled", "sweep-svc"]
GOLDEN_SEED = 1
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 160

END_TO_END = ["setup_s", "wall_s", "point_ms_p50", "point_ms_tail",
              "peak_rss_mb", "ok_frac"]
PER_LAYER = [
    "trace_overhead_frac",
    "sim.solo_s", "sim.construct_ms", "sim.run_ms", "sim.ns_per_inst",
    "sim.ns_per_kcycle", "sim.insts", "sim.cycles", "sim.demand_acts",
    "sim.preventive_actions", "sim.suspect_marks", "sim.quota_rejections",
    "sim.reject_stalls", "sim.capped_points",
    "snapshot.save_ms", "snapshot.restore_ms", "snapshot.bytes",
    "sim.fast_forward_ms",
    "mem.tick_ns", "mem.next_event_ns", "mem.reads_per_ms",
    "mem.useful_tick_ratio",
    "mitigation.commit_ns", "mitigation.probe_ns",
    "mitigation.probes_per_act", "mitigation.preventive_per_kact",
    "breakhammer.observe_ns", "breakhammer.roll_ns",
    "cache.access_ns", "cache.hit_ratio", "cache.quota_reject_ratio",
    "trace.benign_next_ns", "trace.attacker_next_ns",
    "stats.encode_us", "stats.decode_us", "stats.record_bytes",
    "svc.units_per_s", "svc.efficiency", "svc.frame_us", "svc.ingest_us",
    "svc.leases_expired",
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.h")):
        raise BenchError("simulator sources (src/) not found next to "
                         "hostbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target", target]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def run_child(cmd):
    """Run one hostbench process; returns (spawn time, stdout lines)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return t0, proc.stdout.splitlines()


def parse(lines):
    out = {"metrics": {}, "failures": [], "capped": [], "info": [],
           "stamp": None, "setup_end": None, "attempted": None,
           "failed": None}
    for line in lines:
        head, _, rest = line.partition(" ")
        if head == "metric":
            name, value, unit = rest.split(" ")
            out["metrics"][name] = {"value": float(value), "unit": unit}
        elif head == "failure":
            out["failures"].append(rest)
        elif head == "capped":
            out["capped"].append(rest)
        elif head == "info":
            out["info"].append(rest)
        elif head == "stamp":
            out["stamp"] = json.loads(rest)
        elif head == "setup_end":
            out["setup_end"] = float(rest)
        elif head in ("attempted", "failed"):
            out[head] = int(rest)
    return out


def setup_seconds(res, spawned):
    """Process spawn to the end of set-up, on the monotonic clock."""
    if res["setup_end"] is None:
        raise BenchError("hostbench printed no setup_end line")
    return res["setup_end"] - spawned


def source_stamp():
    """Git commit when available, and a digest of src/ either way."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def bench(args):
    exe = build("hostbench")
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(BUILD, "work", "%s-%d" % (tag, os.getpid()))
    base = [exe, "run", "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--dir", work,
            "--golden", os.path.join(HERE, "golden", args.workload + ".tsv")]
    trace_file = os.path.join(RESULTS, "trace-%s.json" % tag)
    try:
        if args.trace:
            _, lines = run_child(base + ["--trace-out", trace_file])
            res = parse(lines)
            wanted = PER_LAYER
        else:
            t0, lines = run_child(base)
            res = parse(lines)
            setups = [setup_seconds(res, t0)]
            for i in range(SETUP_PROBES):
                t0, probe = run_child(
                    [exe, "setup", "--workload", args.workload, "--seed",
                     str(args.seed), "--dir", work + "-setup%d" % i])
                setups.append(setup_seconds(parse(probe), t0))
            setups.sort()
            res["metrics"]["setup_s"] = {
                "value": setups[len(setups) // 2], "unit": "s"}
            res["info"].append("setup_s samples: " +
                               " ".join("%.4f" % s for s in setups))
            wanted = END_TO_END
    finally:
        for path in glob.glob(work + "*"):
            shutil.rmtree(path, ignore_errors=True)

    missing = [m for m in wanted if m not in res["metrics"]]
    if missing or res["attempted"] is None or res["failed"] is None:
        raise BenchError("incomplete output; missing %s" % missing)
    metrics = {m: res["metrics"][m] for m in wanted}

    stamp = dict(res["stamp"] or {})
    stamp.update(source_stamp())
    for line in res["info"]:
        print("# " + line)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for key in res["capped"]:
        print("# capped (expected): " + key)
    for failure in res["failures"]:
        print("# FAILED " + failure)
    for name, m in metrics.items():
        print("# %-28s %18.6f %s" % (name, m["value"], m["unit"]))

    result = {"correct": res["failed"] == 0 and not res["failures"],
              "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": metrics}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump({"result": result, "stamp": stamp, "info": res["info"],
                   "capped": res["capped"], "failures": res["failures"],
                   "trace_file": trace_file if args.trace else None},
                  f, indent=1, sort_keys=True)
    print(json.dumps(result))


def write_golden():
    exe = build("hostbench")
    for name in WORKLOADS:
        out = os.path.join(HERE, "golden", name + ".tsv")
        run_child([exe, "golden", "--workload", name, "--seed",
                   str(GOLDEN_SEED), "--dir",
                   os.path.join(BUILD, "work", "golden-" + name),
                   "--out", out])
        log("wrote " + out)


def selftest():
    exe = build("hostbench_test")
    proc = subprocess.run([exe], cwd=BUILD)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.write_golden:
            write_golden()
            return 0
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        bench(args)
        return 0
    except BenchError as e:
        log("hostbench: " + str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
