#!/usr/bin/env python3
"""Build the wind-tunnel benchmark from source and run one workload.

    python3 perfbench/run.py --workload fig1_mc --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds a Release
tree in .bench_build (or $CARGO_TARGET_DIR when set); later runs rebuild only
what changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
fails or the library sources are absent.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
# Besides the measured --seconds, a run sets up, warms the server's cache,
# checks its outputs and answers at least three batch rounds.
RUN_MARGIN_S = 140


def build(build_dir: Path) -> Path:
    if not (REPO_ROOT / "CMakeLists.txt").is_file() or not (REPO_ROOT / "src" / "wt").is_dir():
        sys.exit("run.py: no windtunnel sources beside perfbench/; nothing to build")
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "wtbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "wtbench"


def run_timeout_s(argv) -> float:
    seconds = 10.0
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                seconds = float(value)
            except ValueError:
                pass  # wtbench rejects it
    return seconds + RUN_MARGIN_S


def main() -> int:
    build_dir = REPO_ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    timeout = run_timeout_s(sys.argv[1:])
    try:
        return subprocess.run([str(binary)] + sys.argv[1:], cwd=REPO_ROOT,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {timeout:.0f} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
