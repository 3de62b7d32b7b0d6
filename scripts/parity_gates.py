#!/usr/bin/env python3
"""Bit-parity gates of the determinism contract (standard library only).

  python3 scripts/parity_gates.py BENCH_DIR

BENCH_DIR holds the built bench binaries. Every run uses
TAILGUARD_BENCH_SCALE=0.05 and writes into a temporary directory:

  * shard_staleness, placement_policies and ext_network_delay, compared
    with the committed results/parity/BENCH_*.json (streaming models under
    shards, sync staleness, every placement policy, and the network model's
    dispatch and result events);
  * fig4_single_class_maxload and fig5_two_class_maxload at the default
    thread count, compared with their committed references, and at
    TAILGUARD_THREADS=1, compared with the default-thread run.

The comparison is bench_parity.py's (everything but wall_ms). Exits 1 when
any pair differs. A change meant to move one of these outputs regenerates
its reference in results/parity/ and says why. Like the e2e digests, the
references rely on libm giving the same log/exp results. Registered in
ctest as `parity_gates` with the label `parity`.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_parity  # noqa: E402

REFERENCE_BENCHES = ("shard_staleness", "placement_policies",
                     "ext_network_delay")
THREAD_BENCHES = ("fig4_single_class_maxload", "fig5_two_class_maxload")


def run(bench_dir, name, out_dir, threads=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAILGUARD_")}
    env["TAILGUARD_BENCH_SCALE"] = "0.05"
    if threads is not None:
        env["TAILGUARD_THREADS"] = str(threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run([str(bench_dir / name), f"--out={out_dir}"], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return str(out_dir / f"BENCH_{name}.json")


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} BENCH_DIR")
    bench_dir = pathlib.Path(argv[1]).resolve()
    parity_dir = pathlib.Path(__file__).resolve().parent.parent / "results/parity"
    failed = 0
    with tempfile.TemporaryDirectory(prefix="tg_parity_") as tmp:
        tmp = pathlib.Path(tmp)
        for name in REFERENCE_BENCHES:
            reference = str(parity_dir / f"BENCH_{name}.json")
            fresh = run(bench_dir, name, tmp / "reference")
            failed += bench_parity.main([argv[0], reference, fresh])
        for name in THREAD_BENCHES:
            reference = str(parity_dir / f"BENCH_{name}.json")
            serial = run(bench_dir, name, tmp / "serial", threads=1)
            default = run(bench_dir, name, tmp / "default")
            failed += bench_parity.main([argv[0], reference, default])
            failed += bench_parity.main([argv[0], serial, default])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
