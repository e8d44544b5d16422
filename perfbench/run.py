#!/usr/bin/env python3
"""Build the greenla benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the checkout root), then
run with the same arguments. Its last line of standard output is the result
JSON. Cargo's output goes to standard error. A failed build, a crash or a
timeout exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run must end within 180 s; leave room to stop the process tree.
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout=None, stdout=None):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if run(build, env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "greenla-perfbench")
    sys.stdout.flush()
    code = run([binary] + sys.argv[1:], env, timeout=RUN_TIMEOUT_S)
    if code != 0:
        print(f"perfbench: benchmark exited with {code}", file=sys.stderr)
        return code if code > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
