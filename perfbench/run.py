#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-static --seed 1 --seconds 10 --trace 0

The library and the benchmark binary are compiled (Release) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when it is unset; a
later run reuses that build. The binary's last stdout line is the result
JSON; build output and progress go to stderr. Exits non-zero when the build
fails, the binary fails, or any answer fails a correctness check.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-static", "serve-net", "churn-dynamic")
RUN_TIMEOUT_S = 175
BUILD_TYPE = "Release"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the library and benchmark sources, plus the git commit
    when the tree is a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            files += [os.path.join(dirpath, f) for f in filenames]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    digest = "src-sha256:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
            digest = f"git:{sha} {digest}"
        except (OSError, subprocess.SubprocessError):
            pass
    return digest


def build(build_dir):
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("library sources (CMakeLists.txt, src/) not found next to perfbench/")
        return None
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every data size (smoke tests use < 1)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--trace-dir", trace_dir,
           "--source", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the binary and waits for it before raising.
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    # On a failed check the binary still prints its result (correct: false)
    # and exits 1; the exit code is passed on.
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
