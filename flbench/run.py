#!/usr/bin/env python3
"""Build and run the federated-round benchmark.

    python3 flbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds flbench (the cppflare
libraries from ./src plus the benchmark program, Release flags) into
.bench_build/ (or $CARGO_TARGET_DIR when set), then runs it with the given
arguments. Build output goes to stderr; the benchmark's stdout passes through
unchanged, and its last line is the result JSON. Exits non-zero without a
result when the sources or the build are missing.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"flbench: no cppflare sources at {root / 'src'}", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "flbench"

    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        done = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return done.returncode
    done = subprocess.run(["cmake", "--build", str(build_dir), "--target", "flbench",
                           "--parallel", "4"], stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return done.returncode

    with subprocess.Popen([str(build_dir / "flbench")] + sys.argv[1:], cwd=root) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("flbench: run exceeded its time limit", file=sys.stderr)
            return 124


if __name__ == "__main__":
    sys.exit(main())
