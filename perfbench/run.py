#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload analyst|dashboard|monitor|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (the
driver) together with the repository's own library targets and vulnds_cli
into .bench_build/perfbench, then runs the driver, which starts
`vulnds_cli serve unix=PATH` as a child and drives it over Unix sockets.

Standard output: one line per metric (name, value, unit, sample count),
the host facts, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
--workload all runs every workload in turn and ends with one combined line
whose metric names are prefixed with the workload.

Exit status: 0 when every answer was right; 1 on a wrong answer, a failed
build or a failed run (no result line then); 2 on usage errors.
See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("analyst", "dashboard", "monitor")
# A run measures for --seconds; set-up, answer checks and the traced run
# come on top. The whole run must end well inside 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver and vulnds_cli."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_driver", "vulnds_cli"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_driver(workload, seed, seconds, trace):
    """Runs one workload; returns the driver's RESULT object and exit code."""
    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--cli", os.path.join(BUILD, "vulnds", "vulnds_cli"),
           "--work", WORK]
    os.makedirs(WORK, exist_ok=True)
    # Own process group, so a timeout takes the driver's servers down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None, 1
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return result, proc.returncode


def print_metrics(result):
    for m in result["metrics"]:
        print("%-6s %-34s %16.6g %-6s n=%-8d (%s)" % (
            m["kind"], m["name"], m["value"], m["unit"], m["n"], m["basis"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    if not build():
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result, code = run_driver(workload, args.seed, args.seconds, args.trace)
        if result is None:
            log("perfbench: %s produced no result" % workload)
            return 1
        print_metrics(result)
        measured = {m["name"]: m for m in result["metrics"]}
        missing = [w["name"] for w in wanted
                   if w["name"] not in measured or measured[w["name"]]["unit"] != w["unit"]]
        if missing or result["errors"]:
            log("perfbench: %s did not measure %s" % (
                workload, ", ".join(missing) or "every metric (see ERROR lines)"))
            return 1
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
        line["correct"] = line["correct"] and code == 0 and result["failed"] == 0
        prefix = workload + "/" if args.workload == "all" else ""
        for w in wanted:
            m = measured[w["name"]]
            line["metrics"][prefix + w["name"]] = {"value": m["value"], "unit": w["unit"]}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
