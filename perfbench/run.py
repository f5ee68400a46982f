#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) with path
dependencies on the crates under crates/.  It builds into $CARGO_TARGET_DIR,
or .bench_build when that is unset.  The last line of standard output is the
JSON result of the run; `--workload all` instead prints every
`<workload>/<metric> value unit` line of the four workloads.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig5_regions", "fig6_analyzed", "spmd4", "deep_analysis"]


def build():
    """Build the release binary; cargo's output goes to standard error."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def main(argv):
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [exe, "--digests", os.path.join(HERE, "digests")]
    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] == ["all"]:
        at = argv.index("--workload")
        rest = argv[:at] + argv[at + 2 :]
        status = 0
        for workload in WORKLOADS:
            done = subprocess.run(
                command + ["--workload", workload] + rest,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            for line in done.stderr.splitlines():
                if line.startswith(workload + "/"):
                    print(line)
                else:
                    print(line, file=sys.stderr)
            status = status or done.returncode
        return status
    return subprocess.run(command + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
