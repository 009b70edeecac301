#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (into _build at the repository
root), then runs it with the same arguments plus the source revision.
Build output goes to standard error; standard output is the
benchmark's report, whose last line is the result object.  Exits
non-zero, without a result, when the build fails (for example outside
a full checkout).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stencil", "alltoall", "campaign")


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def revision():
    """The git revision (marked -dirty when the tree has changes), or a
    digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if os.path.basename(d) != "out"
            for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, help="campaign workers (default nproc)")
    args = ap.parse_args()

    build = dune()
    if build is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    made = subprocess.run(
        build + ["build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if made.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return made.returncode or 1

    cmd = [
        os.path.join(ROOT, "_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", revision(),
        "--out", os.path.join(ROOT, "perfbench", "out"),
    ]
    if args.workers is not None:
        cmd += ["--workers", str(args.workers)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
