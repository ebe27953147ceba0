#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload dd-kill|storm-kill|inject-explore \
        --seed N --seconds S --trace 0|1 [--scale full|smoke] [--jsonl FILE]

Builds perfbench/perfbench.exe from source with dune (inside this
checkout's _build, dune cache off), then runs it with the given
arguments plus a code identity: the git commit when the checkout is a
repository, and always a digest of the library, binary and benchmark
sources.  The benchmark prints human-readable lines and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import hashlib
import os
import subprocess
import sys

TARGET = "perfbench/perfbench.exe"
EXE = os.path.join("_build", "default", TARGET)
SOURCE_DIRS = ("lib", "bin", "perfbench")
SOURCE_FILES = ("dune-project", "dune")


def source_digest():
    """SHA-1 over the paths and bytes of every OCaml source and dune file."""
    h = hashlib.sha1()
    paths = [p for p in SOURCE_FILES if os.path.isfile(p)]
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".py")) or name == "dune":
                    paths.append(os.path.join(root, name))
    for path in paths:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:12]


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def build(env):
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return False
    if proc.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed (dune exit %d)" % proc.returncode, file=sys.stderr)
        return False
    return True


def main(argv):
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not build(env):
        return 2
    ident = "tree-" + source_digest()
    commit = git_commit()
    if commit:
        ident = commit + "/" + ident
    sys.stdout.flush()
    try:
        proc = subprocess.run([EXE] + argv + ["--commit", ident], env=env, timeout=900)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
