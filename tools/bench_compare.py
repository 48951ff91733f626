#!/usr/bin/env python3
"""Perf-regression gate: diff a results file against a committed baseline.

Usage:
  bench_compare.py CURRENT.json BASELINE.json [options]
  bench_compare.py --self-test

Options:
  --max-regress=F   relative regression that hard-fails a modeled metric
                    (default 0.30, i.e. 30%)
  --noise-mult=F    widen the allowance to F sigma of measurement noise,
                    where sigma = 1.4826 * max(baseline MAD, current MAD)
                    (default 3.0)
  --report-only     print everything but always exit 0
  --exact           require every modeled median and every counter to equal
                    the baseline bit for bit (a refactor that must not move
                    the model); measured metrics stay report-only, and a
                    benchmark, modeled metric or counter missing from the
                    current run fails

Policy (DESIGN.md §11):
  * modeled metrics (deterministic simulation output) hard-fail when they
    regress, in their declared direction, by more than
    max(--max-regress, --noise-mult * sigma / |baseline median|);
  * measured metrics (host wall-clock) are annotated, never gating —
    they depend on the machine running the suite;
  * trace counters are behavioral fingerprints: a change of more than
    --max-regress in either direction hard-fails (behavior drifted),
    smaller drifts are annotated; counters missing from the current run
    only warn;
  * benchmarks present in the baseline but absent from the current run
    warn — a silently vanished benchmark must not pass the gate quietly;
  * --exact replaces the modeled and counter tolerances with equality.

Exit codes: 0 ok / annotations only, 1 hard regression, 2 usage or schema
error.
"""

import json
import sys

MAD_TO_SIGMA = 1.4826


def fail_usage(msg):
    print(f"bench_compare: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"{path}: {e}")
    if doc.get("schema_version") != 1:
        fail_usage(f"{path}: unsupported schema_version {doc.get('schema_version')}")
    return doc


def regression(direction, base, cur):
    """Relative regression in the metric's bad direction (positive = worse)."""
    if direction == "lower_is_better":
        return (cur - base) / abs(base)
    return (base - cur) / abs(base)


def compare(current, baseline, max_regress=0.30, noise_mult=3.0, exact=False):
    """Return (failures, warnings, notes) — lists of report lines."""
    failures, warnings, notes = [], [], []
    missing = failures if exact else warnings

    fp_cur = current.get("fingerprint", {})
    fp_base = baseline.get("fingerprint", {})
    for key in ("build_type", "cxx_flags", "trace_level"):
        if key in fp_base and fp_cur.get(key) != fp_base.get(key):
            warnings.append(
                f"fingerprint mismatch: {key} {fp_base.get(key)!r} -> "
                f"{fp_cur.get(key)!r} (numbers may not be comparable)"
            )

    by_id = {b["id"]: b for b in current.get("benchmarks", [])}
    for base_bench in baseline.get("benchmarks", []):
        bid = base_bench["id"]
        cur_bench = by_id.get(bid)
        if cur_bench is None:
            missing.append(f"{bid}: in baseline but missing from current run")
            continue

        for name, base_m in base_bench.get("metrics", {}).items():
            kind = base_m.get("kind", "modeled")
            cur_m = cur_bench.get("metrics", {}).get(name)
            if cur_m is None:
                (missing if kind == "modeled" else warnings).append(
                    f"{bid} {name}: metric missing from current run")
                continue
            base_med, cur_med = base_m["median"], cur_m["median"]
            if exact and kind == "modeled":
                if cur_med != base_med:
                    failures.append(
                        f"{bid} {name}: {base_med!r} -> {cur_med!r} "
                        "(modeled, --exact)")
                continue
            if base_med == 0:
                if cur_med != 0:
                    warnings.append(
                        f"{bid} {name}: baseline median is 0, current {cur_med:g}"
                    )
                continue
            direction = base_m.get("direction", "higher_is_better")
            rel = regression(direction, base_med, cur_med)
            sigma = MAD_TO_SIGMA * max(base_m.get("mad", 0.0), cur_m.get("mad", 0.0))
            allowed = max(max_regress, noise_mult * sigma / abs(base_med))
            line = (
                f"{bid} {name}: {base_med:.6g} -> {cur_med:.6g} "
                f"({rel:+.1%} vs allowed {allowed:.1%}, {kind})"
            )
            if rel > allowed:
                if kind == "modeled":
                    failures.append(line)
                else:
                    warnings.append(line + " — measured, report-only")
            elif rel < -allowed:
                notes.append(line + " — improvement; consider refreshing the baseline")

        for name, base_v in base_bench.get("counters", {}).items():
            cur_counters = cur_bench.get("counters", {})
            if name not in cur_counters:
                missing.append(f"{bid} counter {name}: missing from current run")
                continue
            cur_v = cur_counters[name]
            if exact:
                if cur_v != base_v:
                    failures.append(
                        f"{bid} counter {name}: {base_v} -> {cur_v} (--exact)")
                continue
            if base_v == 0:
                if cur_v != 0:
                    warnings.append(f"{bid} counter {name}: 0 -> {cur_v}")
                continue
            drift = (cur_v - base_v) / base_v
            if abs(drift) > max_regress:
                failures.append(
                    f"{bid} counter {name}: {base_v} -> {cur_v} "
                    f"({drift:+.1%}) — behavior changed beyond {max_regress:.0%}"
                )
            elif cur_v != base_v:
                notes.append(f"{bid} counter {name}: {base_v} -> {cur_v} ({drift:+.1%})")

    base_ids = {b["id"] for b in baseline.get("benchmarks", [])}
    for bid in by_id:
        if bid not in base_ids:
            notes.append(f"{bid}: new benchmark (not in baseline)")

    return failures, warnings, notes


def run_compare(argv):
    paths, max_regress, noise_mult, report_only = [], 0.30, 3.0, False
    exact = False
    for arg in argv:
        if arg == "--exact":
            exact = True
        elif arg.startswith("--max-regress="):
            max_regress = float(arg.split("=", 1)[1])
        elif arg.startswith("--noise-mult="):
            noise_mult = float(arg.split("=", 1)[1])
        elif arg == "--report-only":
            report_only = True
        elif arg.startswith("--"):
            fail_usage(f"unknown flag {arg}")
        else:
            paths.append(arg)
    if len(paths) != 2:
        fail_usage("expected CURRENT.json BASELINE.json")

    current, baseline = load(paths[0]), load(paths[1])
    failures, warnings, notes = compare(current, baseline, max_regress,
                                        noise_mult, exact)

    for line in failures:
        print(f"[FAIL] {line}")
    for line in warnings:
        print(f"[warn] {line}")
    for line in notes:
        print(f"[note] {line}")
    n_base = len(baseline.get("benchmarks", []))
    print(
        f"bench_compare: {n_base} baseline benchmarks checked, "
        f"{len(failures)} hard regressions, {len(warnings)} warnings"
    )
    if failures and not report_only:
        return 1
    return 0


# --- self-test -------------------------------------------------------------


def _bench(bid, metrics=None, counters=None):
    entry = {"id": bid, "repetitions": 2, "warmup": 0, "config": {}, "metrics": {}}
    for name, (median, mad, direction, kind) in (metrics or {}).items():
        entry["metrics"][name] = {
            "unit": "x",
            "direction": direction,
            "kind": kind,
            "median": median,
            "mad": mad,
            "min": median,
            "max": median,
            "mean": median,
            "ci95_lo": median,
            "ci95_hi": median,
            "samples": [median, median],
        }
    entry["counters"] = dict(counters or {})
    return entry


def _doc(benches):
    return {
        "schema_version": 1,
        "tier": "smoke",
        "fingerprint": {"build_type": "Release", "cxx_flags": "", "trace_level": 1},
        "benchmarks": benches,
    }


def self_test():
    hi, lo = "higher_is_better", "lower_is_better"
    checks = []

    def check(name, current, baseline, want_fail, **kw):
        failures, _, _ = compare(current, baseline, **kw)
        ok = bool(failures) == want_fail
        checks.append((name, ok, failures))
        print(f"{'PASS' if ok else 'FAIL'}: {name}")

    base = _doc([_bench("b.gups", {"gups": (0.30, 0.0, hi, "modeled")}, {"net.msg": 1000})])

    # 1. identical re-run (the deterministic-simulation case) passes
    check("identical re-run passes", base, base, want_fail=False)

    # 2. synthetically injected 2x slowdown on a modeled metric fails
    slow = _doc([_bench("b.gups", {"gups": (0.15, 0.0, hi, "modeled")}, {"net.msg": 1000})])
    check("2x modeled slowdown fails", slow, base, want_fail=True)

    # 3. small (10%) modeled drift under the 30% threshold passes
    drift = _doc([_bench("b.gups", {"gups": (0.27, 0.0, hi, "modeled")}, {"net.msg": 1000})])
    check("10% modeled drift tolerated", drift, base, want_fail=False)

    # 4. measured (wall-clock) metrics never hard-fail
    mbase = _doc([_bench("b.micro", {"ns": (100.0, 0.0, lo, "measured")})])
    mslow = _doc([_bench("b.micro", {"ns": (250.0, 0.0, lo, "measured")})])
    check("measured 2.5x slowdown is report-only", mslow, mbase, want_fail=False)

    # 5. noisy metric: 40% drop inside 3-sigma of MAD noise passes
    nbase = _doc([_bench("b.noisy", {"t": (100.0, 20.0, lo, "modeled")})])
    nslow = _doc([_bench("b.noisy", {"t": (140.0, 20.0, lo, "modeled")})])
    check("regression within noise band tolerated", nslow, nbase, want_fail=False)

    # 6. same 40% drop with no noise fails (lower_is_better direction)
    qbase = _doc([_bench("b.quiet", {"t": (100.0, 0.0, lo, "modeled")})])
    qslow = _doc([_bench("b.quiet", {"t": (140.0, 0.0, lo, "modeled")})])
    check("lower_is_better regression fails", qslow, qbase, want_fail=True)

    # 7. behavioral counter drift beyond threshold fails
    chatty = _doc([_bench("b.gups", {"gups": (0.30, 0.0, hi, "modeled")}, {"net.msg": 1600})])
    check("counter +60% fails", chatty, base, want_fail=True)

    # 8. counter missing from current only warns
    untraced = _doc([_bench("b.gups", {"gups": (0.30, 0.0, hi, "modeled")})])
    check("missing counter warns, not fails", untraced, base, want_fail=False)

    # 9. improvement does not fail (direction-aware)
    fast = _doc([_bench("b.gups", {"gups": (0.90, 0.0, hi, "modeled")}, {"net.msg": 1000})])
    check("3x improvement passes", fast, base, want_fail=False)

    # --exact: equality instead of tolerances
    check("exact: identical re-run passes", base, base, want_fail=False,
          exact=True)
    ulp = _doc([_bench("b.gups", {"gups": (0.30000000000000004, 0.0, hi, "modeled")},
                       {"net.msg": 1000})])
    check("exact: one-ulp modeled drift fails", ulp, base, want_fail=True,
          exact=True)
    check("one-ulp modeled drift passes without --exact", ulp, base,
          want_fail=False)
    one_more = _doc([_bench("b.gups", {"gups": (0.30, 0.0, hi, "modeled")},
                            {"net.msg": 1001})])
    check("exact: counter off by one fails", one_more, base, want_fail=True,
          exact=True)
    check("exact: measured drift stays report-only", mslow, mbase,
          want_fail=False, exact=True)
    check("exact: missing counter fails", untraced, base, want_fail=True,
          exact=True)
    gone = _doc([])
    check("exact: missing benchmark fails", gone, base, want_fail=True,
          exact=True)
    check("missing benchmark only warns without --exact", gone, base,
          want_fail=False)

    bad = [name for name, ok, _ in checks if not ok]
    if bad:
        print(f"bench_compare self-test: {len(bad)} FAILED: {bad}", file=sys.stderr)
        return 1
    print(f"bench_compare self-test: all {len(checks)} checks passed")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    return run_compare(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
