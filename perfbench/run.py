#!/usr/bin/env python3
"""ECoST benchmark: builds the harness from source, runs one workload, checks
its outputs, and prints the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository: the harness is built
from ../src into .bench_build/perfbench. A workload run prints a human
report (the end-to-end metrics named in perfbench/README.md with unit,
median, quartiles and sample count; with --trace 1 every per-layer metric)
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. --all runs every workload both ways and prints every
report. --selftest runs the harness's unit tests (C++ digest and quantile
math, Python quartile math).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ecost_perfbench")

WORKLOADS = ("sweep", "policies_r1024", "serve_16", "serve_r1024")
DEFAULT_SEED = 2026
POOL_THREADS = 1      # pool participants of the measured process
ALT_POOL_THREADS = 2  # the determinism probe's pool size
RUN_TIMEOUT_S = 150   # the measured process; the probe gets the rest of 180 s
PROBE_TIMEOUT_S = 25
SIM_REL_TOL = 1e-9
PAPER_STP_APE_PCT = 4.38  # Table 1, REPTree


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them; a single
    sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------------
# build and run


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise BenchError("no ECoST sources (CMakeLists.txt, src/) in " + ROOT)
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            raise BenchError(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ecost_perfbench",
           "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_harness(args, timeout):
    """Runs the harness; returns its JSON report. subprocess.run kills and
    reaps the child on timeout."""
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("harness timed out: " + " ".join(args))
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness exited %d with no report" % p.returncode)
    report = json.loads(lines[-1])
    if p.returncode != 0 or "error" in report:
        raise BenchError("harness failed (exit %d): %s"
                         % (p.returncode, report.get("error", "")))
    return report


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# correctness


def invariant_problems(workload, exact):
    """Checks that hold on every seed."""
    p = []
    if workload.startswith("serve_"):
        n = exact["serve.jobs"]
        if not (exact["serve.decisions"] == n == exact["serve.finished"]):
            p.append("serve: decisions/finished != jobs")
        mix = sum(exact["serve." + k] for k in
                  ("pair", "solo", "backfill", "degraded", "deadline"))
        if mix != exact["serve.decisions"]:
            p.append("serve: decision mix does not sum to decisions")
        if exact["p99_placement_wait_n"] != exact["serve.decisions"]:
            p.append("serve: p99 sample count != decisions")
    elif workload == "policies_r1024":
        names = ("SM", "MNM1", "MNM2", "SNM", "CBM", "PTM", "ECoST", "UB")
        if sum(exact["policies.%s.events" % n] for n in names) != \
                exact["policies.events"]:
            p.append("policies: per-policy events do not sum")
        if exact["policies.jobs"] != 256:
            p.append("policies: expected 256 jobs on r1024")
        if not exact["edp_ecost_vs_ub"] > 0:
            p.append("policies: no finite ECoST/UB EDP")
    elif workload == "sweep":
        c = exact["sweep.combos"]
        if exact["sweep.colao_pairs"] != c * (c + 1) // 2:
            p.append("sweep: COLAO did not cover every combo pair")
        if not exact["sweep.rows"] > 0 or not exact["stp_ape_pct"] > 0:
            p.append("sweep: empty training set or no STP error")
    return p


def expected_problems(workload, exact, expected):
    """Checks that hold on the default seed."""
    p = []
    want = expected["workloads"][workload]
    for k, v in want["counts"].items():
        if exact.get(k) != v:
            p.append("default seed: %s = %s, expected %s"
                     % (k, exact.get(k), v))
    for k, v in want["simulated"].items():
        got = exact.get(k)
        if got is None or abs(got - v) > SIM_REL_TOL * max(abs(v), 1e-300):
            p.append("default seed: %s = %r, expected %r" % (k, got, v))
    return p


def check(workload, seed, main, probe, expected):
    """Every call in both processes must give one digest and one set of
    exact outputs; returns the list of problems found."""
    problems = []
    calls = [(main, c) for c in main["calls"]] + \
        [(probe, c) for c in probe["calls"]]
    ref = calls[0][1]
    for proc, c in calls[1:]:
        if c["digest"] != ref["digest"] or c["exact"] != ref["exact"]:
            problems.append(
                "trajectory differs: %s %s call at pool %d (digest %s vs %s)"
                % (c["role"], "traced" if c["traced"] else "untraced",
                   proc["provenance"]["pool"], c["digest"], ref["digest"]))
            break
    try:
        problems += invariant_problems(workload, ref["exact"])
        if seed == DEFAULT_SEED:
            problems += expected_problems(workload, ref["exact"], expected)
    except KeyError as e:
        problems.append("missing output " + str(e))
    return problems


# --------------------------------------------------------------------------
# metrics and report


def untraced_walls(main):
    return [c["wall_s"] for c in main["calls"]
            if c["role"] == "timed" and not c["traced"]]


def traced_calls(main):
    return [c for c in main["calls"] if c["role"] == "timed" and c["traced"]]


def end_to_end(main):
    return {"setup_s": median(main["setup_s"]),
            "run_s": median(untraced_walls(main)),
            "peak_rss_mb": main["peak_rss_mb"]}


def per_layer(main, names):
    traced = traced_calls(main)
    out = {}
    for name in names:  # a layer that did not run reports 0
        out[name] = median([c["layers"].get(name, 0.0) for c in traced])
    walls_t = [c["wall_s"] for c in traced]
    walls_u = untraced_walls(main)
    out["obs.trace_overhead_frac"] = median(walls_t) / median(walls_u) - 1.0
    return out


def fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def report_lines(workload, seed, main, probe, attempted, failed, problems):
    exact = main["calls"][0]["exact"]
    prov = main["provenance"]
    walls = untraced_walls(main)
    lines = ["== %s  seed %d  digest %s" % (workload, seed,
                                            main["calls"][0]["digest"]),
             "host: nproc %d, hardware_concurrency %d, simd %s (width %d), "
             "build %s, pool %d + %d feeder; probe pool %d"
             % (prov["nproc"], prov["hardware_concurrency"], prov["simd_isa"],
                prov["simd_width"], prov["build_type"], prov["pool"],
                prov["feeder_threads"], probe["provenance"]["pool"])]
    rows = []  # (name, unit, summary or value, note)

    def host(name, unit, values, note=""):
        rows.append((name, unit, summary(values), note))

    def sim(name, unit, value, note="simulated, exact"):
        rows.append((name, unit, value, note))

    host("setup_s", "s", main["setup_s"], "set-ups in this process")
    if workload == "sweep":
        host("pipeline_s", "s", walls, "cold EvalCache each call")
    elif workload == "policies_r1024":
        host("events_per_s", "1/s",
             [exact["policies.events"] / w for w in walls],
             "%d events per call" % exact["policies.events"])
    else:
        host("decisions_per_s", "1/s",
             [exact["serve.decisions"] / w for w in walls],
             "%d decisions per call" % exact["serve.decisions"])
    host("run_s", "s", walls, "wall of one timed call")
    rows.append(("peak_rss_mb", "MB", main["peak_rss_mb"], "measured process"))
    rows.append(("failed_frac", "ratio", failed / attempted,
                 "base %d operations" % attempted))
    if workload.startswith("serve_"):
        sim("energy_dyn_mj", "MJ", exact["energy_dyn_mj"])
        sim("p99_placement_wait_s", "s", exact["p99_placement_wait_s"],
            "simulated, exact, n=%d" % exact["p99_placement_wait_n"])
        sim("deadline_miss_frac", "ratio", exact["deadline_miss_frac"],
            "simulated, base %d decisions" % exact["serve.decisions"])
    elif workload == "policies_r1024":
        sim("edp_ecost_vs_ub", "ratio", exact["edp_ecost_vs_ub"])
    else:
        sim("stp_ape_pct", "%", exact["stp_ape_pct"],
            "model, paper REPTree %.2f%%" % PAPER_STP_APE_PCT)
    for name, unit, v, note in rows:
        if isinstance(v, dict):
            lines.append("  %-22s %-6s median %-12s q1 %-12s q3 %-12s n=%d  %s"
                         % (name, unit, fmt(v["median"]), fmt(v["q1"]),
                            fmt(v["q3"]), v["n"], note))
        else:
            lines.append("  %-22s %-6s %-12s %s" % (name, unit, fmt(v), note))
    lines.append("  exact: " + ", ".join("%s %s" % (k, fmt(v))
                                         for k, v in exact.items()))
    lines.append("  checks: " + ("ok" if not problems else
                                 "FAILED: " + "; ".join(problems)))
    return lines


def layer_lines(workload, layers, n_traced, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    lines = ["  per-layer, medians over %d traced calls (timing decorators "
             "on; counts exact):" % n_traced]
    for name, value in layers.items():
        lines.append("    %-40s %-16s %s" % (name, units.get(name, ""),
                                            fmt(value)))
    if workload.startswith("serve_"):
        run = layers["core.engine.run_s"]
        parts = [("plan", layers["serve.plan.busy_s"]),
                 ("retune", layers["serve.retune.busy_s"]),
                 ("next_arrival", layers["serve.next_arrival.busy_s"]),
                 ("engine self", layers["core.engine.self_s"])]
        shares = ", ".join("%s %.1f%%" % (n, 100 * v / run) for n, v in parts)
        lines.append("  ClusterEngine::run wall %.4f s = %s (+ decorator "
                     "clock reads %.1f%%)"
                     % (run, shares,
                        100 * (run - sum(v for _, v in parts)) / run))
    return lines


# --------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, spec, expected):
    """Returns (report lines, per-layer lines, result dict). The harness
    itself refuses pool + feeder threads above nproc."""
    common = ["--workload", workload, "--seed", str(seed)]
    main = run_harness(common + ["--seconds", str(seconds),
                                 "--trace", str(trace),
                                 "--threads", str(POOL_THREADS)],
                       RUN_TIMEOUT_S)
    probe = run_harness(common + ["--seconds", "1", "--trace", "0",
                                  "--threads", str(ALT_POOL_THREADS),
                                  "--once"], PROBE_TIMEOUT_S)
    problems = check(workload, seed, main, probe, expected)
    attempted = sum(c["ops"] for c in main["calls"] + probe["calls"])
    failed = attempted if problems else 0
    lines = report_lines(workload, seed, main, probe, attempted, failed,
                         problems)
    layers = []
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(main, names)
        layers = layer_lines(workload, metrics, len(traced_calls(main)),
                             spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(main)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return lines, layers, result


def selftest():
    build()
    rc = subprocess.run([BINARY, "--selftest"]).returncode
    import unittest
    sys.path.insert(0, HERE)
    suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.selftest:
            return selftest()
        spec = load_spec()
        expected = load_expected()
        seconds = args.seconds or spec["run_seconds"]
        build()
        if args.all:
            ok = True
            for w in WORKLOADS:
                lines, _, untraced = run_workload(w, args.seed, seconds, 0,
                                                  spec, expected)
                _, layers, traced = run_workload(w, args.seed, seconds, 1,
                                                 spec, expected)
                print("\n".join(lines + layers), flush=True)
                ok = ok and untraced["correct"] and traced["correct"]
            return 0 if ok else 1
        if args.workload is None or args.seconds is None:
            ap.error("--workload and --seconds are required")
        lines, layers, result = run_workload(args.workload, args.seed,
                                             args.seconds, args.trace, spec,
                                             expected)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2
    print("\n".join(lines + layers))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
