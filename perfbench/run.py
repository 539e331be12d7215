#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <ingest|draw|tenants|sketch> \
        --seed <n> --seconds <s> --trace <0|1>

The build uses `cargo build --release --offline` on perfbench/Cargo.toml,
into $CARGO_TARGET_DIR (default `.bench_build` at the repository root).
The run's stderr carries its progress, accounting and layer table; its
last stdout line is the JSON result. A run that fails a correctness check
exits non-zero and names the check; a run that hangs is killed and
reported as failed (exit 3).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run that has not ended by now has hung (the binary's own watchdog
# fires at 170 s).
RUN_TIMEOUT_S = 178


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return os.path.join(target, "release", "perfbench")


def main():
    binary = build()
    try:
        done = subprocess.run(
            [binary, *sys.argv[1:]], cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run hung past {RUN_TIMEOUT_S} s; reported as failed", file=sys.stderr)
        sys.exit(3)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
