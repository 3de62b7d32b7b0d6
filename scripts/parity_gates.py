#!/usr/bin/env python3
"""Bit-parity gates of the determinism contract (standard library only).

  python3 scripts/parity_gates.py BENCH_DIR

BENCH_DIR holds the built bench binaries. Every run uses
TAILGUARD_BENCH_SCALE=0.05 and writes into a temporary directory:

  * every deterministic bench at the default thread count, compared with
    its committed results/parity/BENCH_*.json: the paper's figures and
    tables, the ablations, the ext_* studies (the N=1000 scale run
    included), the online-estimation sweeps under shards and every
    placement policy;
  * fig4_single_class_maxload and fig5_two_class_maxload again at
    TAILGUARD_THREADS=1, compared with the default-thread run.

Left out: parallel_speedup (its JSON carries timings), runtime_testbed and
net_testbed (they run on the wall clock) and the micro benches.

The comparison is bench_parity.py's (everything but wall_ms). A bench that
exits non-zero fails the gate under its own name. Exits 1 when any run
fails or any pair differs. A change meant to move one of these outputs
regenerates its reference in results/parity/ and says why. Like the e2e
digests, the references rely on libm giving the same log/exp results.
Registered in ctest as `parity_gates` with the label `parity`.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_parity  # noqa: E402

REFERENCE_BENCHES = (
    "ablation_admission_modes", "ablation_budget_split",
    "ablation_online_update", "ablation_request_budget",
    "ext_analytic_capacity", "ext_fanout_sensitivity", "ext_network_delay",
    "ext_scale_and_classes", "ext_service_dist_sensitivity",
    "ext_stragglers", "fig3_workload_cdfs", "fig4_single_class_maxload",
    "fig5_two_class_maxload", "fig6_service_class_sweep",
    "fig7_admission_control", "fig9_sas_testbed", "placement_policies",
    "shard_staleness", "table2_unloaded_stats", "table3_latency_breakdown")
THREAD_BENCHES = ("fig4_single_class_maxload", "fig5_two_class_maxload")


def run(bench_dir, name, out_dir, threads=None):
    """Runs one bench; returns its JSON path, or None when it failed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAILGUARD_")}
    env["TAILGUARD_BENCH_SCALE"] = "0.05"
    if threads is not None:
        env["TAILGUARD_THREADS"] = str(threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(bench_dir / name), f"--out={out_dir}"],
                          env=env, check=False, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"FAILED: {name} exited with status {proc.returncode}")
        return None
    return str(out_dir / f"BENCH_{name}.json")


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} BENCH_DIR")
    bench_dir = pathlib.Path(argv[1]).resolve()
    parity_dir = pathlib.Path(__file__).resolve().parent.parent / "results/parity"
    failed = 0
    with tempfile.TemporaryDirectory(prefix="tg_parity_") as tmp:
        tmp = pathlib.Path(tmp)
        fresh = {}
        for name in REFERENCE_BENCHES:
            fresh[name] = run(bench_dir, name, tmp / "default")
            if fresh[name] is None:
                failed += 1
                continue
            reference = str(parity_dir / f"BENCH_{name}.json")
            failed += bench_parity.main([argv[0], reference, fresh[name]])
        for name in THREAD_BENCHES:
            serial = run(bench_dir, name, tmp / "serial", threads=1)
            if serial is None:
                failed += 1
            elif fresh[name] is not None:
                failed += bench_parity.main([argv[0], serial, fresh[name]])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
