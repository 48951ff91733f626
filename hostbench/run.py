#!/usr/bin/env python3
"""Host-cost benchmark of the HUPC simulator (see hostbench/README.md).

    python3 hostbench/run.py --workload uts_wide|kv_read|kv_write \
        --seed N --seconds S --trace 0|1 [--expected FILE]
    python3 hostbench/run.py --self-test
    python3 hostbench/run.py --record --workload W --seed N

Builds hostbench_driver from the sources in this checkout (into
.bench_build/hostbench), then starts one driver process per run, back to
back, for at most --seconds (at least 3 runs), and verifies every run. Host
times are scaled to a reference host speed by the calibration kernel each
run times. With --trace 0 it reports the end-to-end metrics, with --trace 1
the per-layer metrics of traced runs. The last line of stdout is one JSON
object: correct, attempted and failed (verification checks made and failed)
and metrics. The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
DRIVER = os.path.join(BUILD, "hostbench_driver")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("uts_wide", "kv_read", "kv_write")
RUN_TIMEOUT_S = 150

# On a shared host a neighbour's load slows every instruction of a run (CPU
# time tracks wall time, so the run is not descheduled), by up to 2x, in
# phases from seconds to many minutes long. A phase can cover a whole
# invocation, so no choice of runs within one removes it. Instead every
# driver run times a fixed host-only calibration kernel right before and
# right after itself, and each host time is scaled by how much slower than
# REFERENCE_CALIBRATION_S that kernel ran: the result is the run's time on
# the host at reference speed. Host times are the median of these scaled
# run times; memory is the median run.

# Geometric mean of the calibration kernel's part times at reference speed:
# about the median over 285 runs on the 4-vCPU Xeon VM of the README
# baseline.
REFERENCE_CALIBRATION_S = 0.0115

# (name, unit): reported with --trace 0, over untraced runs.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "units/s"),
    ("peak_rss_mb", "MiB"),
]

# (name, unit): reported with --trace 1. Host times and memory come from
# traced runs; counts are exact and must repeat in every run of the
# invocation. A layer a workload does not use reports 0.
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.run_rss_mb", "MiB"),
    ("gas.runtime_setup_s", "s"),
    ("gas.heap_bytes", "B"),
    ("gas.resident_per_heap_byte", "ratio"),
    ("gas.accesses", "count"),
    ("gas.lock_acquires", "count"),
    ("net.msgs", "count"),
    ("net.bytes", "B"),
    ("net.msgs_per_op", "msgs/unit"),
    ("comm.cache_hits", "count"),
    ("comm.cache_misses", "count"),
    ("comm.cache_hit_ratio", "ratio"),
    ("async.rpc_sent", "count"),
    ("async.futures", "count"),
    ("kv.setup_s", "s"),
    ("kv.setup_rss_mb", "MiB"),
    ("kv.amo_ops", "count"),
    ("kv.rpc_ops", "count"),
    ("kv.probes_per_op", "probes/op"),
    ("kv.retry_ratio", "ratio"),
    ("sched.setup_s", "s"),
    ("sched.setup_rss_mb", "MiB"),
    ("sched.steal_attempts", "count"),
    ("sched.steal_success_ratio", "ratio"),
    ("uts.expand_s", "s"),
    ("uts.ns_per_expand", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.records", "count"),
]


def fail(msg):
    print(f"hostbench: error: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once and (re)build the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no HUPC sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "hostbench_driver",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_expected(path):
    with open(path) as f:
        return json.load(f)


def run_driver(workload, seed, run_id, traced, oracle=False):
    cmd = [DRIVER, f"--workload={workload}", f"--input-seed={seed}",
           f"--run-id={run_id}"]
    if traced:
        cmd.append("--trace")
    if oracle:
        cmd.append("--oracle")
    # Runs rotate over the CPUs this process may use. On a shared host some
    # vCPUs run slower than others at any moment, and an unpinned run stays
    # where it starts, so a whole invocation could land on a slow one.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[run_id % len(cpus)]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    rec["exit_code"] = proc.returncode
    return rec


def verify(rec, expected):
    """Checks of one run: the driver's structural checks, the UTS node
    count against the count the sequential oracle gave at --record time,
    then every recorded modeled output of this input. Returns (made, failed
    names)."""
    failed = [name for name, ok in rec["checks"].items() if not ok]
    made = len(rec["checks"])
    if rec["workload"] == "uts_wide":
        made += 1
        if rec["modeled"]["nodes"] != expected["uts_wide_tree_nodes"]:
            failed.append(f"uts.oracle_nodes: got {rec['modeled']['nodes']}, "
                          f"oracle {expected['uts_wide_tree_nodes']}")
    recorded = expected["outputs"].get(f"{rec['workload']}/{rec['input_seed']}")
    for key, want in (recorded or {}).items():
        made += 1
        got = rec["modeled"].get(key)
        if got != want:
            failed.append(f"modeled.{key}: got {got!r}, recorded {want!r}")
    # The driver exits 1 when one of its named checks failed, which is
    # already counted; only an exit code no named check explains is a
    # failure of its own.
    made += 1
    if rec["exit_code"] != 0 and all(rec["checks"].values()):
        failed.append(f"driver exit code {rec['exit_code']}")
    return made, failed


def ratio(num, den):
    return num / den if den else 0.0


def calibration_s(rec):
    """Geometric mean of the calibration part times measured before and
    after the run."""
    times = [t for side in ("before", "after")
             for t in rec["calibration"][side].values()]
    return math.exp(sum(math.log(t) for t in times) / len(times))


def slowdown(rec):
    """How much slower than reference speed the host ran this run."""
    return calibration_s(rec) / REFERENCE_CALIBRATION_S


def scaled(runs, key):
    """Median over runs of a host time at reference host speed."""
    return statistics.median(r["host"].get(key, 0.0) / slowdown(r)
                             for r in runs)


def typical(runs, key):
    return statistics.median(r["host"].get(key, 0.0) for r in runs)


def end_to_end(runs):
    return {
        "wall_s": scaled(runs, "wall_s"),
        "setup_s": scaled(runs, "setup_s"),
        "work_per_s": runs[0]["work_units"] / scaled(runs, "simulate_s"),
        "peak_rss_mb": typical(runs, "peak_rss_mb"),
    }


def per_layer(traced, untraced):
    c = traced[0]["counts"]
    units = traced[0]["work_units"]

    def count(key):
        return c.get(key, 0)

    sim_s = scaled(traced, "simulate_s")
    expand_s = scaled(traced, "uts.expand_s")
    expands = count("uts.nodes")
    return {
        "sim.events": count("sim.events"),
        "sim.ns_per_event": ratio((sim_s - expand_s) * 1e9, count("sim.events")),
        "sim.run_rss_mb": typical(traced, "sim.run_rss_mb"),
        "gas.runtime_setup_s": scaled(traced, "gas.runtime_setup_s"),
        "gas.heap_bytes": count("gas.heap_bytes"),
        "gas.resident_per_heap_byte": ratio(typical(traced, "gas.setup_rss_mb") * 2**20,
                                            count("gas.heap_bytes")),
        "gas.accesses": count("gas.accesses"),
        "gas.lock_acquires": count("gas.lock_acquires"),
        "net.msgs": count("net.msgs"),
        "net.bytes": count("net.bytes"),
        "net.msgs_per_op": ratio(count("net.msgs"), units),
        "comm.cache_hits": count("comm.cache_hits"),
        "comm.cache_misses": count("comm.cache_misses"),
        "comm.cache_hit_ratio": ratio(count("comm.cache_hits"),
                                      count("comm.cache_hits") +
                                      count("comm.cache_misses")),
        "async.rpc_sent": count("async.rpc_sent"),
        "async.futures": count("async.futures"),
        "kv.setup_s": scaled(traced, "kv.setup_s"),
        "kv.setup_rss_mb": typical(traced, "kv.setup_rss_mb"),
        "kv.amo_ops": count("kv.amo_ops"),
        "kv.rpc_ops": count("kv.rpc_ops"),
        "kv.probes_per_op": ratio(count("kv.probes"), count("kv.ops")),
        "kv.retry_ratio": ratio(count("kv.retries"), count("kv.ops")),
        "sched.setup_s": scaled(traced, "sched.setup_s"),
        "sched.setup_rss_mb": typical(traced, "sched.setup_rss_mb"),
        "sched.steal_attempts": count("sched.steal_attempts"),
        "sched.steal_success_ratio": ratio(count("sched.steal_successes"),
                                           count("sched.steal_attempts")),
        "uts.expand_s": expand_s,
        "uts.ns_per_expand": ratio(expand_s * 1e9, expands),
        "trace.overhead_ratio": ratio(sim_s, scaled(untraced, "simulate_s")),
        "trace.records": count("trace.records"),
    }


def check_counts_repeat(runs):
    """Every layer count must repeat exactly across the runs of one input
    (a count only the tracer gives is compared among traced runs). One
    check per count; returns (made, failed names)."""
    keys = sorted({k for r in runs for k in r["counts"]})
    failed = []
    for key in keys:
        values = {json.dumps(r["counts"][key]) for r in runs
                  if key in r["counts"]}
        if len(values) > 1:
            failed.append(f"counts.{key} differs across runs: "
                          f"{sorted(values)}")
    return len(keys), failed


def self_times(spans):
    """(name, depth, duration s, self s) of each span of one run."""
    timed = [s for s in spans if "start_ns" in s]
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) * 1e-9 for s in timed}
    for s in spans:
        if "total_ns" in s:
            dur[s["id"]] = s["total_ns"] * 1e-9
    child = {}
    depth = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]
        depth[s["id"]] = depth.get(s["parent"], -1) + 1
    return [(s["name"], depth[s["id"]], dur[s["id"]],
             dur[s["id"]] - child.get(s["id"], 0.0)) for s in spans]


def environment(rec):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        git = out.stdout.strip() or "none"
    digest = hashlib.sha1()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return (f"env: nproc={os.cpu_count()} cpu=\"{cpu}\" "
            f"build={rec['build_type']} hupc_trace={rec['trace_level']} "
            f"git={git} source_sha1={digest.hexdigest()[:16]}")


def measure(args):
    expected = load_expected(args.expected)
    recorded = f"{args.workload}/{args.seed}" in expected["outputs"]
    traced_mode = args.trace == 1
    runs, traced, untraced = [], [], []
    attempted, failures = 0, []
    start = time.monotonic()
    run_id = 0
    longest = 0.0
    # Trace mode alternates untraced and traced runs: the overhead ratio
    # needs both, and the determinism check needs two traced runs. After
    # the minimum, no run starts that would end after --seconds.
    while True:
        enough = (len(traced) >= 2 and len(untraced) >= 1) if traced_mode \
            else len(untraced) >= 3
        if enough and time.monotonic() - start + longest > args.seconds:
            break
        want_trace = traced_mode and len(traced) <= len(untraced)
        began = time.monotonic()
        rec = run_driver(args.workload, args.seed, run_id, want_trace)
        longest = max(longest, time.monotonic() - began)
        run_id += 1
        if rec is None:
            attempted += 1
            failures.append(f"run {run_id - 1}: driver printed no result")
            break
        made, failed = verify(rec, expected)
        attempted += made
        failures += [f"run {rec['run_id']}: {f}" for f in failed]
        runs.append(rec)
        (traced if rec["traced"] else untraced).append(rec)
    made, failed = check_counts_repeat(runs)
    attempted += made
    failures += failed
    ok = not failures and bool(runs)

    print(f"hostbench: workload={args.workload} seed={args.seed} "
          f"runs={len(untraced)} untraced + "
          f"{len(traced)} traced in {time.monotonic() - start:.1f} s "
          f"(recorded outputs: {'yes' if recorded else 'no, structural checks'})")
    if runs:
        print(environment(runs[0]))
        slow = [slowdown(r) for r in runs]
        print(f"host speed: calibration {statistics.median(slow):.3f}x "
              f"the reference (runs {min(slow):.3f}x to {max(slow):.3f}x); "
              f"unscaled median wall {typical(runs, 'wall_s'):.4f} s")
    metrics = {}
    if untraced and (traced or not traced_mode):
        if traced_mode:
            values, table = per_layer(traced, untraced), PER_LAYER
        else:
            values, table = end_to_end(untraced), END_TO_END
        for name, unit in table:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:28s} {values[name]:>16.6g} {unit}")
        if traced_mode:
            print("  spans of the first traced run (duration / self):")
            for name, depth, dur, self_s in self_times(traced[0]["spans"]):
                print(f"    {'  ' * depth}{name:24s} {dur:9.4f} s "
                      f"{self_s:9.4f} s")
        os.makedirs(BUILD, exist_ok=True)
        with open(os.path.join(BUILD, f"runs-{args.workload}.json"), "w") as f:
            json.dump(runs, f)
    for f in failures:
        print(f"  FAILED {f}")
    print(f"checks: {attempted} made, {len(failures)} failed "
          f"(fail_ratio {ratio(len(failures), attempted):.4g})")
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if ok else 1


def record(args):
    """Run one input untraced with the oracle check and store its modeled
    outputs as the recorded values for that input."""
    expected = load_expected(args.expected)
    key = f"{args.workload}/{args.seed}"
    rec = run_driver(args.workload, args.seed, 0, traced=False, oracle=True)
    if rec is None or rec["exit_code"] != 0:
        fail(f"{key}: run failed, nothing recorded")
    if args.workload == "uts_wide":
        expected["uts_wide_tree_nodes"] = rec["modeled"]["nodes"]
    expected["outputs"][key] = rec["modeled"]
    with open(args.expected, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {key}: {rec['modeled']}")
    return 0


def self_test(args):
    """The gate must fail on a drifted recorded output and on a wrong
    stored oracle count, and pass on structural checks when nothing is
    recorded."""
    expected = load_expected(args.expected)
    if "kv_read/1" not in expected["outputs"]:
        fail("self-test needs recorded outputs for kv_read/1")
    drifted = json.loads(json.dumps(expected))
    drifted["outputs"]["kv_read/1"]["retries"] += 1
    wrong_oracle = dict(expected, outputs={},
                        uts_wide_tree_nodes=expected["uts_wide_tree_nodes"] + 1)
    unrecorded = dict(expected, outputs={})
    cases = [("planted drift", drifted, "kv_read", False),
             ("wrong stored oracle count", wrong_oracle, "uts_wide", False),
             ("no recorded outputs", unrecorded, "kv_read", True)]
    ok = True
    for i, (name, exp, workload, want_pass) in enumerate(cases):
        path = os.path.join(BUILD, f"selftest-{i}.json")
        with open(path, "w") as f:
            json.dump(exp, f)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--expected", path], stdout=subprocess.PIPE, text=True,
                timeout=170)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError):
            print(f"self-test {name}: no result line -> WRONG")
            ok = False
            continue
        fail_ratio = ratio(result["failed"], result["attempted"])
        passed = proc.returncode == 0 and fail_ratio == 0
        good = passed == want_pass
        ok = ok and good
        print(f"self-test {name}: exit {proc.returncode}, fail_ratio "
              f"{fail_ratio:.4g} -> {'ok' if good else 'WRONG'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", default=EXPECTED,
                   help="recorded outputs (default: hostbench/expected.json)")
    p.add_argument("--record", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    build()
    if args.self_test:
        return self_test(args)
    if args.record:
        return record(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
