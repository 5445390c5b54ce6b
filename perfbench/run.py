#!/usr/bin/env python3
"""Build and run the MLDS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The benchmark is its
own cargo package (perfbench/Cargo.toml) that builds against the
repository's crates by path; it is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the checkout) and then run
with the same arguments. The last line of standard output is the
benchmark's one-line JSON result. Exits nonzero, without a result line,
when the checkout lacks the sources, the build fails, or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "mlds-core"), os.path.join("crates", "mbds")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    # Each workload picks its own transport; never inherit one.
    env.pop("MBDS_TRANSPORT", None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    # The backend processes of batch_tcp are the mbds-backend binary
    # built beside the benchmark.
    env["MBDS_BACKEND_BIN"] = os.path.join(target, "release", "mbds-backend")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
