#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark program (Release) under .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the program's result JSON. With --trace 1 the spans
are written to .bench_build/traces/<workload>-seed<n>.jsonl.

Exit status is the program's (0 all outputs correct, 1 some op failed,
2 usage or set-up error), or non-zero without a result line when the build
fails, e.g. when the library sources are not present.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
MAX_JOBS = 4


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources (git is not asked otherwise: it would search the parent
    directories for some other repository)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    """Configure once, then build the program; returns its path."""
    jobs = str(min(MAX_JOBS, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace]
    if args.trace == "1":
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
