#!/usr/bin/env python3
"""Builds the end-to-end benchmark against the checked-out library and runs it.

Run from the repository root; every argument goes to adsala_e2e
(bench/e2e/README.md), for example:

    python3 bench/e2e/run.py --workload paper_mix --seed 1 --trace 0

The build directory is $CARGO_TARGET_DIR/e2e when that variable is set and
.bench_build/e2e otherwise; the run directory (artefacts, sockets, telemetry
logs, trace files) is its run/ subdirectory. Build output goes to standard
error, so the benchmark's JSON result stays the last line of standard output.
"""
import os
import subprocess
import sys


def step(cmd):
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main() -> int:
    source = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(os.path.abspath(target), "e2e")
    configure = ["cmake", "-S", source, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
                "--target", "adsala_e2e"]
    # Reconfigure only when there is no build tree, or building in it fails.
    built = os.path.exists(os.path.join(build, "CMakeCache.txt")) and \
        step(compile_)
    if not built and not (step(configure) and step(compile_)):
        print("run.py: building adsala_e2e failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build, "adsala_e2e")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
