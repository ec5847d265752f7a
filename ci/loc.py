#!/usr/bin/env python3
"""Prints the non-test line count of every crate under crates/*/src.

A file's non-test lines are the lines before its first `#[cfg(test)]`
(test modules sit at the end of a file by convention); files under a
crate's `tests/`, `benches/` or `examples/` are not counted, nor are the
offline dependency stand-ins under crates/compat.

Usage: python3 ci/loc.py [REPO_ROOT]
"""

import pathlib
import sys


def non_test_lines(path: pathlib.Path) -> int:
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        count += 1
    return count


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    total = 0
    for crate in sorted((root / "crates").iterdir()):
        src = crate / "src"
        if crate.name == "compat" or not src.is_dir():
            continue
        lines = sum(non_test_lines(f) for f in src.rglob("*.rs"))
        total += lines
        print(f"{crate.name:<10} {lines:>6}")
    print(f"{'total':<10} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
