#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload single_tenant --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the separate traced pass. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
Build output and progress go to stderr. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("cold_start", "single_tenant", "serve", "serve_faults")
# Fresh processes that only set up, run before and after the measured run and
# pooled with its own setup time: warm setup takes ~15 ms, and about one
# process in four reads 25-37 ms on a shared host, so one sample per run
# would be mostly noise.
WARM_SETUP_SAMPLES_EACH_SIDE = 10
# Every run must end within 180 s; leave margin for the setup samples.
RUN_TIMEOUT_S = 170


def log(*args):
    print("[perfbench]", *args, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("error:", message)
    sys.exit(code)


def threads_default():
    return max(1, min(4, os.cpu_count() or 1))


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(threads):
    """Configures (once) and builds perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    cmd = ["cmake", "--build", str(out), "-j", str(threads)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return out / "perfbench"


def run_binary(binary, args, cache_dir, deadline):
    env = dict(os.environ, LITERECONFIG_CACHE_DIR=str(cache_dir))
    env.pop("LITERECONFIG_THREADS", None)
    try:
        proc = subprocess.run([str(binary)] + args, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {args[0]} timed out", 1)
    if proc.returncode != 0:
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def model_files(directory):
    return sorted(glob.glob(str(directory / "models_*.bin")))


def prepare_cache(binary, workload, threads, deadline):
    """A fresh cache dir for this run; warm workloads get the trained bundle."""
    caches = build_root() / "perfbench-cache"
    run_dir = caches / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if workload != "cold_start":
        # Untimed: loads the shared bundle, or trains it on a checkout's first run.
        seed_dir = caches / "trained"
        fill = ["setup", "--workload", "single_tenant", "--threads", str(threads)]
        seed_dir.mkdir(parents=True, exist_ok=True)
        run_binary(binary, fill, seed_dir, deadline + 600)
        if len(model_files(seed_dir)) > 1:
            # A bundle from an older model format is still there: start over.
            shutil.rmtree(seed_dir)
            seed_dir.mkdir(parents=True)
            run_binary(binary, fill, seed_dir, deadline + 600)
        for path in model_files(seed_dir):
            shutil.copy(path, run_dir)
    return run_dir


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def pinned_jobs(pins, seed, workload):
    """The pinned digests of a seed's inputs, or [] if the seed is not pinned."""
    jobs = pins.get("jobs", {}).get(str(seed), {})
    return jobs.get("single_tenant" if workload == "cold_start" else workload, [])


def pin_failures(result, workload, seed, pins):
    """Jobs whose digest differs from the pinned digest of their input.

    Every run also runs the first inputs of perfbench's pinned seed and
    reports their digests as pinned_digests, so the pins are checked at any
    --seed.
    """
    failed = int(result["pinned_failed"])
    pinned_seed = result["pinned_seed"]
    expected = pinned_jobs(pins, pinned_seed, workload)
    for i, digest in enumerate(result["pinned_digests"]):
        if i >= len(expected) or digest != expected[i]:
            log(f"pinned input {i} of seed {pinned_seed}: digest {digest} != "
                f"{expected[i] if i < len(expected) else 'none'}")
            failed += 1
    expected = pinned_jobs(pins, seed, workload)
    for i, digest in enumerate(result["digests"] if expected else []):
        attempts = result["index_attempts"][i]
        if attempts and digest != expected[i]:
            failed += attempts - result["index_failures"][i]
    return failed


def model_digest(cache_dir):
    files = model_files(cache_dir)
    if len(files) != 1:
        return None
    return hashlib.md5(Path(files[0]).read_bytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=threads_default(),
                        help="worker threads (default: min(4, nproc))")
    parser.add_argument("--smoke", action="store_true",
                        help="short run for self-tests: 8 timed jobs, no setup samples")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's job digests and model md5 as the pins")
    args = parser.parse_args()
    if args.seed < 0 or args.threads < 1 or args.seconds < 0:
        fail("--seed, --seconds must be >= 0 and --threads >= 1")
    if args.write_pins and (args.trace or args.smoke):
        fail("--write-pins needs a full --trace 0 run (every input index must run)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    started = time.monotonic()
    binary = build(args.threads)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cache_dir = prepare_cache(binary, args.workload, args.threads, deadline)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(args.threads)]
    setups = []
    sample_setup = not args.trace and args.workload != "cold_start" and not args.smoke

    def setup_samples():
        for _ in range(WARM_SETUP_SAMPLES_EACH_SIDE if sample_setup else 0):
            setups.append(run_binary(binary, ["setup"] + common, cache_dir, deadline))

    setup_samples()
    if args.trace:
        result = run_binary(binary, ["trace"] + common, cache_dir, deadline)
    else:
        extra = ["--seconds", str(args.seconds)]
        if args.smoke:
            extra = ["--seconds", "0", "--min-jobs", "8"]
        result = run_binary(binary, ["run"] + common + extra, cache_dir, deadline)
    setups.append(result)
    setup_samples()

    pins = load_pins()
    md5 = model_digest(cache_dir)
    if args.write_pins:
        pins["model_md5"] = md5
        pins.setdefault("jobs", {}).setdefault(str(args.seed), {})[
            "single_tenant" if args.workload == "cold_start" else args.workload] = result["digests"]
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    attempted = int(result["attempted"]) + len(result["pinned_digests"])
    failed = int(result["failed"]) + pin_failures(result, args.workload, args.seed, pins)
    if md5 is None or md5 != pins.get("model_md5"):
        log(f"model bundle md5 {md5} != pinned {pins.get('model_md5')}")
        failed = attempted

    values = dict(result)
    if not args.trace:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"perfbench reported no value for {metric['name']}", 1)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    timed = ""
    if "timed_jobs" in result:
        timed = (f" ({result['timed_jobs']} timed; unscaled wall p50 "
                 f"{result['wall_ms_p50']:.2f} ms, calibration p50 "
                 f"{result['calibration_ms_p50']:.3f} ms)")
    log(f"{args.workload} seed {args.seed}: {attempted} jobs{timed}, {failed} failed, "
        f"{time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
