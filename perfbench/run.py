#!/usr/bin/env python3
"""Build QOCO and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--clients N] [--flip N]

Run from the root of a checkout. Builds `qoco-serve` (the repository's
workspace) and `qoco-perfbench` (this directory's own package) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark binary. Its last stdout line is the result JSON. Exits non-zero,
printing no result, if either build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Files whose content decides what gets built and measured.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench")


def source_id():
    """The git commit if there is one, else a hash of the source files."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, names in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in names
        )
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "qoco-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            print("perfbench: %s is missing" % cmd[cmd.index("--manifest-path") + 1],
                  file=sys.stderr)
            return 1
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    sys.stdout.flush()
    # Sequential evaluation in the benchmark and the server it starts: the
    # engine's parallel path spawns threads per call, and on a host with few
    # cores those threads measure the scheduler more than the program.
    env["RAYON_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [os.path.join(release, "qoco-perfbench"), *args,
         "--server-bin", os.path.join(release, "qoco-serve"),
         "--work-dir", os.path.join(target, "perfbench-work-%d" % os.getpid()),
         "--commit", source_id()],
        cwd=ROOT, env=env,
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
