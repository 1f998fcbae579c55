#!/usr/bin/env python3
"""drsim benchmark: the fig7 sweep full-detail, the same sweep sampled,
and a served request stream, with a separate per-layer traced run.

    python3 perfbench/run.py --workload sweep_full --seed 1 --seconds 30 --trace 0

Run from the root of a drsim checkout.  The first run builds the drsim
libraries, drsim_serve and the `drbench` round runner from source into
$CARGO_TARGET_DIR (default .bench_build).  Each round is one fresh
`drbench` process; rounds repeat until --seconds have passed and are
reduced to medians.  Human-readable lines go first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer with --trace 1).
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_full", "sweep_sampled", "serve_stream")
# Fewest rounds per run: the served stream needs four (4 x 55 requests)
# so at least ten requests lie beyond its p95.
MIN_ROUNDS = {"sweep_full": 3, "sweep_sampled": 3, "serve_stream": 4}
ROUND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "sweep_s": "s", "sim_mips": "MIPS",
    "request_p50_ms": "ms", "request_p95_ms": "ms",
    "requests_per_s": "1/s", "peak_rss_mb": "MiB",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path)


def build():
    """Configure once, then build (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no drsim sources next to perfbench/ (run from a checkout)")
    out = build_dir()
    log = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j4"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("build failed; see " + log)
    return out


def child_env():
    # Every DRSIM_* knob is pinned by the benchmark itself.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("DRSIM_")}


def run_round(binary, serve, workload, seed, work, trace, verify):
    cmd = [binary, workload, "--seed", str(seed), "--work", work,
           "--serve", serve]
    if trace:
        cmd.append("--trace")
    if verify:
        cmd.append("--verify")
    # Own process group, so a round that times out takes its daemon
    # with it.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=child_env(), cwd=ROOT,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(p.pid, signal.SIGKILL)  # anything left behind
    except ProcessLookupError:
        pass
    if out is None:
        p.communicate()
        fail(workload + " round timed out")
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(workload + " round failed (exit %d): %s"
             % (p.returncode, err.strip()[-2000:]))
    return json.loads(lines[-1])


def quantile(values, q):
    """Linear-interpolated quantile (same rule as drbench)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(workload, rounds):
    """Reduce untraced rounds to the end-to-end metrics."""
    med = statistics.median
    setups = []
    for r in rounds:
        setups += r.get("setup_samples", [r["setup_s"]])
    if workload == "serve_stream":
        # A request is one send->done exchange on the daemon.
        lat = [x for r in rounds for x in r["lat_ms"]]
        reqs = sum(len(r["lat_ms"]) for r in rounds)
        busy = sum(r["sweep_s"] for r in rounds)
    else:
        # A request is one whole sweep: set-up plus the grid.
        lat = [1e3 * (r["setup_s"] + r["sweep_s"]) for r in rounds]
        reqs = len(rounds)
        busy = sum(r["setup_s"] + r["sweep_s"] for r in rounds)
    return {
        "setup_s": med(setups),
        "sweep_s": med(r["sweep_s"] for r in rounds),
        "sim_mips": med(r["insts"] / r["sweep_s"] / 1e6 for r in rounds),
        "request_p50_ms": quantile(lat, 0.50),
        "request_p95_ms": quantile(lat, 0.95),
        "requests_per_s": reqs / busy,
        "peak_rss_mb": med(r["rss_mb"] for r in rounds),
    }, len(lat)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    out = build()
    binary = os.path.join(out, "drbench")
    serve = os.path.join(out, "drsim_serve")
    work = os.path.join(out, "work-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        report(args, binary, serve, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, binary, serve, work):
    wl = args.workload
    deadline = time.monotonic() + args.seconds
    plain, traced = [], []
    while True:
        first = not plain
        plain.append(run_round(binary, serve, wl, args.seed, work,
                               trace=False, verify=first and not args.trace))
        if args.trace:
            traced.append(run_round(binary, serve, wl, args.seed, work,
                                    trace=True, verify=False))
        enough = len(plain) >= (1 if args.trace else MIN_ROUNDS[wl])
        if enough and time.monotonic() >= deadline:
            break

    attempted = sum(int(r["attempted"]) for r in plain + traced)
    failed = sum(int(r["failed"]) for r in plain + traced)
    digests = {r["digest"] for r in plain + traced}
    selftest = plain[0].get("seed_selftest", True)
    correct = failed == 0 and len(digests) == 1 and selftest is True

    print("workload %s  seed %d  rounds %d untraced, %d traced"
          % (wl, args.seed, len(plain), len(traced)))
    print("stats digest %s%s" % (",".join(sorted(digests)),
          "" if len(digests) == 1 else "  (DIFFERS between rounds)"))
    print("failed_frac %.6g  (%d of %d)" % (failed / attempted, failed,
                                            attempted))
    for r in plain + traced:
        if r.get("why"):
            print("  failure: " + r["why"])
    if not args.trace:
        print("seed self-test %s %s" % ("ok" if selftest else "FAILED",
                                        plain[0].get("seed_selftest_why", "")))
    if "ipc_err_pct" in plain[0]:
        print("ipc_err_pct %.6g %%" % plain[0]["ipc_err_pct"])
        print("ci_miss_frac %.6g" % plain[0]["ci_miss_frac"])
    if wl == "serve_stream":
        r = plain[0]
        print("tiers per round: %d memory, %d disk, %d computed, "
              "%d coalesced points" % (r["memory_hits"], r["disk_hits"],
                                       r["computed"], r["coalesced"]))

    if args.trace:
        keys = [k for k in traced[0] if "." in k]
        metrics = {k: statistics.median(r[k] for r in traced) for k in keys}
        plain_wall = statistics.median(r["round_s"] for r in plain)
        traced_wall = statistics.median(r["round_s"] for r in traced)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        metrics["trace.span_cover"] = statistics.median(
            r["span_cover"] for r in traced)
        print("tracing overhead %.2f%% (%.3f s traced vs %.3f s untraced "
              "round); spans cover %.1f%% of the traced round"
              % (100 * metrics["trace.overhead_frac"], traced_wall,
                 plain_wall, 100 * metrics["trace.span_cover"]))
        units = {}
    else:
        metrics, samples = end_to_end(wl, plain)
        units = END_TO_END
        print("latency samples %d (p95 has %d beyond it)"
              % (samples, int(samples * 0.05)))
    for k in sorted(metrics):
        print("%-34s %.6g %s" % (k, metrics[k], units.get(k, unit_of(k))))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))}
                    for k, v in metrics.items()},
    }))


def unit_of(name):
    """Unit of a per-layer metric, from its name's suffix."""
    if ".ns_per_" in name:
        return "ns"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_ns", "ns"),
                         ("_s", "s"), ("_mips", "MIPS"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_frac", "_rate", "_util", "_cover")):
        return "fraction"
    return "count"


if __name__ == "__main__":
    main()
