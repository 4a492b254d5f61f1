#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py           # everything, about 2 min on 4 vCPUs
    python3 perfbench/selftest.py --quick   # skips the two cold-start runs

Checks that BENCHMARK.json is well formed, that the digest pins hold at
threads 1 and 4 in smoke mode, that the traced pass's self-time shares sum to
100 +- 1 %, agree with shares recomputed from its spans.jsonl and leave at most
MAX_UNTRACED_PCT of the replay untraced, and that the workloads separate the
layers the way perfbench/README.md says they do.
"""

import argparse
import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import build_root

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HEAVY = ("HoC", "HOG", "ResNet50", "CPoP", "MobileNetV2")
KINDS = ("Light",) + HEAVY
# The replay's own glue (trace parsing, loop bookkeeping) may take at most this
# share; the rest must sit in spans of the module calls.
MAX_UNTRACED_PCT = 25.0

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        check(False, f"{workload} {' '.join(extra)} exited with {proc.returncode}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{workload} {' '.join(extra)}: correct, {result['attempted']} jobs, "
          f"{result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_spans(workload, metrics):
    """Recomputes the shares from the spans the traced pass wrote."""
    path = build_root() / "perfbench-cache" / workload / "spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    roots = [i for i, span in enumerate(spans) if span["parent"] < 0]
    check(len(roots) == 1 and spans[roots[0]]["name"] == "replay",
          f"{workload}: spans.jsonl has one root, the replay")
    child_us = [0.0] * len(spans)
    nested = True
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            nested &= parent["start_us"] <= span["start_us"] <= span["end_us"] <= parent["end_us"]
            child_us[span["parent"]] += span["end_us"] - span["start_us"]
    check(nested, f"{workload}: every span lies inside its parent")
    self_us = defaultdict(float)
    for i, span in enumerate(spans):
        layer = "untraced" if i == roots[0] else span["name"].split(".")[0]
        self_us[layer] += span["end_us"] - span["start_us"] - child_us[i]
    root = spans[roots[0]]
    shared_us = root["end_us"] - root["start_us"] - self_us.pop("probe", 0.0)
    worst = max(abs(100.0 * us / shared_us - metrics.get(f"share.{layer}", 0.0))
                for layer, us in self_us.items())
    check(worst <= 0.5, f"{workload}: reported shares match spans.jsonl "
          f"(worst {worst:.3f} points) and name every layer")
    untraced = metrics["share.untraced"]
    check(0.0 < untraced <= MAX_UNTRACED_PCT,
          f"{workload}: share.untraced = {untraced:.2f} % (<= {MAX_UNTRACED_PCT} %)")


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(spec) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                           "workloads"], "BENCHMARK.json has exactly the contract's keys")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "metric and workload names match [A-Za-z0-9_.-]+ and are unique")
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(UNIT.match(u) for u in units), "units are well formed")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
          "every workload says why in one line")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()) and
          bounds.get("setup_s") == max(bounds.values()),
          "bounds are in (0, 0.25] and setup_s has the largest")
    return spec


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="skip the cold-start runs")
    args = parser.parse_args()

    spec = check_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    warm = [w for w in workloads if w != "cold_start"]

    # Digest pins with 1 and 4 worker threads (seed 1 is pinned for every
    # workload); each run also repeats one input at the other thread count.
    for workload in warm:
        for threads in ("1", "4"):
            bench(workload, "--smoke", "--threads", threads)
    if not args.quick:
        bench("cold_start", "--smoke")  # also pins the trained bundle's md5

    traced = {}
    for workload in workloads:
        if workload == "cold_start" and args.quick:
            continue
        metrics = bench(workload, "--trace", "1")
        if metrics is None:
            continue
        traced[workload] = metrics
        total = sum(v for k, v in metrics.items() if k.startswith("share."))
        check(abs(total - 100.0) <= 1.0, f"{workload}: self-time shares sum to {total:.2f} %")
        check_spans(workload, metrics)

    def value(workload, name):
        return traced.get(workload, {}).get(name, 0.0)

    if "single_tenant" in traced:
        check(any(value("single_tenant", f"features.heavy_frac.{k}") > 0 for k in HEAVY),
              "single_tenant extracts heavy features")
    for workload in traced:
        coast = value(workload, "mbek.coast_us_per_frame")
        train = max(value(workload, f"nn.train_s.{k}") for k in KINDS)
        check((coast > 0) == (workload == "serve_faults"),
              f"{workload}: mbek.coast_us_per_frame = {coast:.3g} (non-zero only on serve_faults)")
        check((train > 0) == (workload == "cold_start"),
              f"{workload}: max nn.train_s = {train:.3g} (non-zero only on cold_start)")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
