#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (and the eimm library from src/) in .bench_build/perfbench with
CMake in Release mode; later runs only rebuild what changed. The driver's
output is passed through; its last line is the JSON result. Build output
goes to standard error. Exits 2 without a result on bad arguments or when
the library sources are missing.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("imm-ic-dense", "imm-lt-sparse", "serve-mixed")
# The whole run must end within 180 s; leave room to stop the driver.
DRIVER_TIMEOUT_S = 170
# Longest measurement that still fits: set-up, checks and reference runs
# add up to about 10 s on top of --seconds (kMaxSeconds in the driver).
MAX_SECONDS = 120


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    def seed(text):
        if not text.isdigit() or int(text) >= 2**64:
            raise argparse.ArgumentTypeError(f"not a 64-bit unsigned integer: {text!r}")
        return int(text)

    def seconds(text):
        if not text.isdigit() or not 1 <= int(text) <= MAX_SECONDS:
            raise argparse.ArgumentTypeError(
                f"not an integer in [1, {MAX_SECONDS}]: {text!r}")
        return int(text)

    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed)
    parser.add_argument("--seconds", required=True, type=seconds)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def source_id(root: Path) -> str:
    """Git commit when the tree is a repository, else a hash of the sources."""
    if (root / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return "git-" + result.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> Path:
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench_driver"


def main(argv) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "core" / "imm.hpp").is_file() or \
            not (root / "CMakeLists.txt").is_file():
        fail(f"the eimm library sources are missing under {root}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    bench_dir = root / ".bench_build"
    try:
        driver = build(root, bench_dir / "perfbench")
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}", 1)
    work_dir = bench_dir / "run"
    work_dir.mkdir(parents=True, exist_ok=True)

    command = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(work_dir.relative_to(root)),
               "--source-id", source_id(root)]
    with subprocess.Popen(command, cwd=root) as process:
        try:
            return process.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s", 1)
        except BaseException:
            process.kill()
            process.wait()
            raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
