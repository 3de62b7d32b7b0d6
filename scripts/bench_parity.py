#!/usr/bin/env python3
"""Bit-parity check of two bench JSON reports (standard library only).

  python3 scripts/bench_parity.py A.json B.json

Drops the `wall_ms` timing field from each BENCH_<name>.json, compares the
rest as canonical JSON (sorted keys), prints each file's md5 and exits 1
when they differ.
"""

import hashlib
import json
import sys


def canonical(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    data.pop("wall_ms", None)
    return json.dumps(data, sort_keys=True).encode()


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} A.json B.json")
    blobs = [canonical(path) for path in argv[1:]]
    for path, blob in zip(argv[1:], blobs):
        print(f"{hashlib.md5(blob).hexdigest()}  {path}")
    if blobs[0] != blobs[1]:
        print(f"MISMATCH: {argv[1]} and {argv[2]} differ beyond wall_ms")
        return 1
    print("identical (wall_ms excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
