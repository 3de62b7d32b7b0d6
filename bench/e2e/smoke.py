#!/usr/bin/env python3
"""Smoke test of the e2e benchmark runner at a tiny scale (about 10 s).

Runs every workload's traced pass for half a second and checks that its
correctness checks pass, that the result line holds exactly the per_layer
metrics of BENCHMARK.json and that every end_to_end metric is printed. Then
runs sim_paper against a deliberately wrong digest and checks that the run
fails. No threshold is applied to any measured value.

  python3 bench/e2e/smoke.py [--build-dir DIR]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def run(build_dir, workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    if build_dir:
        cmd += ["--build-dir", build_dir]
    proc = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                          cwd=REPO, timeout=120, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{proc.stderr[-2000:]}")
    printed = {line.split()[1] for line in lines[:-1]
               if line.startswith(workload + " ")}
    return proc.returncode, json.loads(lines[-1]), printed, proc.stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default=None)
    args = parser.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    for workload in [w["name"] for w in spec["workloads"]]:
        before = len(failures)
        code, result, printed, out = run(args.build_dir, workload, 1)
        if code != 0 or not result["correct"]:
            failures.append(f"{workload}: traced run failed\n{out[-2000:]}")
        if set(result["metrics"]) != per_layer:
            failures.append(f"{workload}: result-line metrics "
                            f"{sorted(set(result['metrics']) ^ per_layer)} "
                            "differ from per_layer")
        if not end_to_end <= printed:
            failures.append(f"{workload}: end_to_end metrics not printed: "
                            f"{sorted(end_to_end - printed)}")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'}",
              flush=True)

    code, result, _, _ = run(args.build_dir, "sim_paper", 0,
                             ["--expect-digest", "0123456789abcdef"])
    if code == 0 or result["correct"]:
        failures.append("a wrong sim digest did not fail the run")
    if set(result["metrics"]) != end_to_end:
        failures.append("untraced result-line metrics differ from end_to_end")

    for failure in failures:
        print(failure)
    print("smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
