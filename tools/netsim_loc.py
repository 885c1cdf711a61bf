#!/usr/bin/env python3
"""Line count of the simulator crate's sources (ROADMAP item 5).

Prints two numbers for the `.rs` files under `crates/netsim/src`: the
total line count, and the count outside `#[cfg(test)] mod` blocks.
A block runs from its `#[cfg(test)]` attribute line through the closing
brace at the `mod` line's indentation (rustfmt layout), both inclusive.
A `#[cfg(test)]` on anything but a `mod` (a test-only helper method) is
counted like any other line.

Usage: python3 tools/netsim_loc.py
"""

import os


def count(path, lines):
    """Returns (total, outside `#[cfg(test)] mod` blocks) for one file."""
    skipped = 0
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        j = i + 1
        while j < len(lines) and lines[j].lstrip().startswith("#["):
            j += 1
        head = lines[j] if j < len(lines) else ""
        body = head.lstrip()
        if not (body.startswith("mod ") or body.startswith("pub mod ")) or not body.rstrip().endswith("{"):
            i += 1
            continue
        close = head[: len(head) - len(body)] + "}"
        k = j + 1
        while k < len(lines) and lines[k].rstrip() != close:
            k += 1
        if k == len(lines):
            raise SystemExit(f"{path}:{i + 1}: unterminated #[cfg(test)] mod")
        skipped += k - i + 1
        i = k + 1
    return len(lines), len(lines) - skipped


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "crates", "netsim", "src")
    total = outside = 0
    for dirpath, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".rs"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    t, o = count(path, f.read().splitlines())
                total += t
                outside += o
    print(f"crates/netsim/src: {total} lines, {outside} outside #[cfg(test)] mod blocks")


if __name__ == "__main__":
    main()
