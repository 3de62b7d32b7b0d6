#!/usr/bin/env python3
"""End-to-end benchmark runner for TailGuard (standard library only).

Builds bench/e2e (e2e_bench) against this checkout's src/, runs each workload
in its own process with every TAILGUARD_* environment variable cleared,
checks correctness and prints every metric as `workload metric value unit`.

  python3 bench/e2e/run.py [--seed N] [--seconds S] [--trace] [--out DIR]
      Runs all workloads (the timed pass; with --trace also the traced pass),
      writes DIR/BENCH_e2e.json and exits non-zero on any failed check.

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      Runs one workload. The last line of output is one JSON object with the
      keys correct, attempted, failed and metrics; metrics holds the
      end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
      metrics (--trace 1).
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(REPO, "BENCHMARK.json")
REFERENCE_PATH = os.path.join(HERE, "reference", "seed.json")
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def default_build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(target), "e2e")


def build(build_dir):
    """Configures (once) and builds e2e_bench; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "e2e_bench")


def run_binary(binary, workload, seed, seconds, trace, out_dir, expect_digest):
    """Runs one workload in its own process; returns its JSON report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAILGUARD_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    if expect_digest:
        cmd += ["--expect-digest", expect_digest]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=60 + 3 * seconds, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(proc.stderr[-4000:])
        raise SystemExit(f"{workload}: e2e_bench printed nothing "
                         f"(exit {proc.returncode})")
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        report["correct"] = False
        report["errors"].append(f"e2e_bench exited {proc.returncode}")
    return report


def check_metrics(report, names):
    """Marks the report incorrect when a required metric is missing or not a
    positive finite number."""
    for name in names:
        entry = report["metrics"].get(name)
        value = None if entry is None else entry["value"]
        if value is None or not math.isfinite(value) or value <= 0:
            report["correct"] = False
            report["errors"].append(f"metric {name} missing or not positive")


def expected_digest(workload, override):
    if override:
        return override
    if not workload.startswith("sim_"):
        return ""
    return load_json(REFERENCE_PATH)["digests"][workload]


def print_lines(workload, report):
    for name, entry in report["metrics"].items():
        print(f"{workload} {name} {entry['value']!r} {entry['unit']}")
    for error in report["errors"]:
        print(f"{workload} CHECK FAILED: {error}")


def run_one(args, spec, binary):
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    report = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, args.out,
                        expected_digest(args.workload, args.expect_digest))
    check_metrics(report, names)
    print_lines(args.workload, report)
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: report["metrics"][n] for n in names
                    if n in report["metrics"]},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, spec, binary):
    workloads = [w["name"] for w in spec["workloads"]]
    passes = [False, True] if args.trace else [False]
    started = time.time()
    rows, checks, reports = [], [], {}
    for traced in passes:
        names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
        tag = "traced" if traced else "timed"
        for workload in workloads:
            report = run_binary(binary, workload, args.seed, args.seconds,
                                traced, args.out,
                                expected_digest(workload, args.expect_digest))
            check_metrics(report, names)
            print_lines(workload, report)
            reports[(workload, tag)] = report
            checks.append({"workload": workload, "pass": tag,
                           "correct": report["correct"],
                           "attempted": report["attempted"],
                           "failed": report["failed"],
                           "digest": report["digest"],
                           "errors": report["errors"]})
            for name, entry in report["metrics"].items():
                rows.append({"workload": workload, "pass": tag, "metric": name,
                             "value": entry["value"], "unit": entry["unit"]})

    def p50(workload, tag):
        entry = reports.get((workload, tag), {}).get("metrics", {}).get(
            "path.latency_p50_us")
        return None if entry is None else entry["value"]

    derived = []
    rt, net = p50("rt_open", "timed"), p50("net_open", "timed")
    if rt is not None and net is not None:
        derived.append(("net_open", "net.dispatch_overhead_us", net - rt, "us"))
    for workload, layer in (("rt_open", "runtime"), ("net_open", "net")):
        timed, traced = p50(workload, "timed"), p50(workload, "traced")
        if timed and traced is not None:
            derived.append((workload, f"{layer}.trace_overhead_pct",
                            100.0 * (traced - timed) / timed, "%"))
    for workload, name, value, unit in derived:
        print(f"{workload} {name} {value!r} {unit}")
        rows.append({"workload": workload, "pass": "derived", "metric": name,
                     "value": value, "unit": unit})

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "BENCH_e2e.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"bench": "e2e", "wall_ms": 1e3 * (time.time() - started),
                   "started_unix": started, "seed": args.seed,
                   "seconds": args.seconds, "nproc": os.cpu_count(),
                   "machine": platform.machine(), "rows": rows,
                   "checks": checks}, f, indent=1)
        f.write("\n")
    ok = all(c["correct"] for c in checks)
    print(f"wrote {out_path}; correctness {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured window per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="traced pass (per-layer metrics)")
    parser.add_argument("--out", default=None,
                        help="directory for BENCH_e2e.json and trace files")
    parser.add_argument("--build-dir", default=None)
    parser.add_argument("--expect-digest", default="",
                        help="override the reference sim digest (testing)")
    args = parser.parse_args()

    spec = load_json(SPEC_PATH)
    build_dir = os.path.abspath(args.build_dir or default_build_dir())
    args.out = os.path.abspath(args.out or os.path.join(build_dir, "out"))
    binary = build(build_dir)
    if args.workload is not None:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            parser.error(f"unknown workload {args.workload}")
        return run_one(args, spec, binary)
    return run_all(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())
