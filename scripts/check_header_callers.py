#!/usr/bin/env python3
"""Fail when a src/ header has no caller outside its own .cc and tests/.

A header that only its own source file and the tests include is dead code
kept alive by its tests. Includers anywhere in src/, tools/, bench/ or
examples/ count as callers; tests/ does not.

    python3 scripts/check_header_callers.py [REPO_ROOT]

Prints each such header (relative to src/) and exits 1 if there is any.
"""
import pathlib
import re
import sys

CALLER_DIRS = ("src", "tools", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    headers = {h.relative_to(src).as_posix(): h for h in src.rglob("*.h")}

    callers = {name: set() for name in headers}
    for d in CALLER_DIRS:
        for f in (root / d).rglob("*"):
            if f.suffix not in SOURCE_SUFFIXES or not f.is_file():
                continue
            for name in INCLUDE.findall(f.read_text(errors="replace")):
                if name in callers:
                    callers[name].add(f)

    orphans = sorted(
        name for name, header in headers.items()
        if not callers[name] - {header.with_suffix(".cc")})
    for name in orphans:
        print(f"src/{name}: no includer outside its own .cc and tests/")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
