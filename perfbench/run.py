#!/usr/bin/env python3
"""Builds and runs the ActiveDP benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload census-step --seed 7 --seconds 15 --trace 0

The benchmark binary (perfbench/src) is built with cargo into
$CARGO_TARGET_DIR (default .bench_build). Its scratch directory
(.bench_scratch, for spill files and write-ahead logs) is mounted as a
private tmpfs when the process may create a mount namespace, so journal
fsyncs and spills cost what they cost in RAM rather than whatever the disk
under the checkout does that minute; otherwise it stays on disk. Either
way every run prints the scratch filesystem type. The binary's output is
passed through: its last line is the JSON result. See perfbench/README.md.
"""

import ctypes
import os
import subprocess
import sys

CLONE_NEWNS = 0x00020000
MS_REC = 0x4000
MS_PRIVATE = 0x40000
RUN_TIMEOUT_S = 170


def build(target_dir):
    """Builds the release binary; returns its path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(target_dir, "release", "adp-perfbench")


def mount_private_tmpfs(path):
    """Mounts a tmpfs at `path` in a mount namespace private to this process
    and its children; it disappears when they exit. Returns success."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.unshare(CLONE_NEWNS) != 0:
        return False
    # Keep the new mount from propagating back to the parent namespace.
    if libc.mount(b"none", b"/", None, MS_REC | MS_PRIVATE, None) != 0:
        return False
    return libc.mount(b"tmpfs", path.encode(), b"tmpfs", 0, b"size=1g,mode=0700") == 0


def main():
    if not os.path.isfile(os.path.join("perfbench", "Cargo.toml")):
        print("run from the repository root", file=sys.stderr)
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target_dir)
    if binary is None:
        return 2
    scratch = os.path.abspath(".bench_scratch")
    os.makedirs(scratch, exist_ok=True)
    if not mount_private_tmpfs(scratch):
        print("# scratch stays on disk: no private tmpfs", file=sys.stderr)
    cmd = [binary, *sys.argv[1:], "--scratch", scratch]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
