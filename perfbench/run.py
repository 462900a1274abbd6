#!/usr/bin/env python3
"""Builds and runs the end-to-end co-search benchmark (see README.md).

    python3 perfbench/run.py --workload codesign_rl --seed 1 --seconds 40
    python3 perfbench/run.py --self-check

The benchmark binary is compiled from this checkout's sources into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench) on first use; later
runs only pay an up-to-date check.  Its last stdout line is the JSON result.
--self-check runs every workload at tiny size, traced and untraced, and
checks the output schema against BENCHMARK.json and the span file.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, tiny=False, capture=False):
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    suffix = "-tiny" if tiny else ""
    trace_file = os.path.join(
        trace_dir, f"{workload}-seed{seed}-trace{trace}{suffix}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tiny", "1" if tiny else "0", "--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc, trace_file


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, expected_metrics, problems, where):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        problems.append(f"{where}: last line is not JSON ({e})")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return None
    if result["correct"] is not True or result["failed"] != 0 \
            or not isinstance(result["attempted"], int) \
            or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    names = {m["name"]: m["unit"] for m in expected_metrics}
    got = result["metrics"]
    if set(got) != set(names):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(names) - set(got))}, "
                        f"extra {sorted(set(got) - set(names))}")
    for name, entry in got.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        if name in names and entry.get("unit") != names[name]:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}")
    return result


def check_spans(trace_file, traced, problems, where):
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    child = {}
    for e in events:
        a = e["args"]
        if a["parent"] >= 0:
            key = (a["job"], a["parent"])
            child[key] = child.get(key, 0) + a["total_ns"]
    for e in events:
        a = e["args"]
        if not 0 <= a["self_ns"] <= a["total_ns"]:
            problems.append(f"{where}: span {e['name']} self {a['self_ns']} "
                            f"outside [0, total {a['total_ns']}]")
        if a["self_ns"] != a["total_ns"] - child.get((a["job"], a["id"]), 0):
            problems.append(f"{where}: span {e['name']} self time does not "
                            "match its children")
    if traced and not any(e["args"]["traced"] for e in events):
        problems.append(f"{where}: no traced job in {trace_file}")


def self_check(binary):
    bench = load_benchmark()
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            where = f"{workload} trace={trace}"
            proc, trace_file = run(binary, workload, 1, 1, trace, tiny=True,
                                   capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            for prefix in ("host: ", "simulator: "):
                if not any(line.startswith(prefix) for line in lines):
                    problems.append(f"{where}: no '{prefix.strip()}' line")
            result = check_result(lines[-1], metrics, problems, where)
            check_spans(trace_file, trace == 1, problems, where)
            if trace == 1 and result is not None and \
                    "bench.unattributed_pct" not in result["metrics"]:
                problems.append(f"{where}: bench.unattributed_pct missing")
            print(f"self-check {where}: {len(problems)} problem(s) so far")
    for p in problems:
        print("  " + p)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None
                                or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    binary = build()
    if args.self_check:
        return self_check(binary)
    proc, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
