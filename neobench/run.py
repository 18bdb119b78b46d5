#!/usr/bin/env python3
"""Builds neobench from the checkout's sources and runs one workload.

    python3 neobench/run.py --workload <resnet50-f32|resnet50-int8|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds the library
and the benchmark under $CARGO_TARGET_DIR (default .bench_build) in the checkout;
later calls only check the build is current. Build output goes to stderr; the
benchmark's own output (a `record` line and, last, the result JSON object) goes to
stdout. Traced runs write their spans to .bench_build/neobench/traces/.

Exits non-zero, printing no result, when the checkout holds no NeoCPU sources or the
build or the run fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"neobench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library sources and build file: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*")) + [root / "CMakeLists.txt"]
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(root / "neobench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    make = ["cmake", "--build", str(build_dir), "--target", "neobench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return build_dir / "neobench"


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "neocpu.h").is_file() or not (root / "CMakeLists.txt").is_file():
        fail(f"no NeoCPU sources in {root}")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    build_dir = target_dir / "neobench"
    build_dir.mkdir(parents=True, exist_ok=True)
    binary = build(root, build_dir)

    args = sys.argv[1:]
    extra = ["--commit", commit_id(root), "--source-digest", source_digest(root)]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        name = "-".join(args[args.index(flag) + 1] for flag in ("--workload", "--seed")
                        if flag in args and args.index(flag) + 1 < len(args))
        extra += ["--trace-out", str(traces / f"{name or 'run'}.jsonl")]
    try:
        run = subprocess.run([str(binary)] + args + extra, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"neobench exited with code {run.returncode}")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
