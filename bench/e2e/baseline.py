#!/usr/bin/env python3
"""Records the benchmark's repeatability: two sets of untraced runs.

Run from the repository root on an otherwise idle host:

    python3 bench/e2e/baseline.py [--runs 10] [--seconds 20]

The two sets run back to back. Each runs every workload --runs times, with
seeds 1 to --runs, round-robin over the workloads, through run.py. For each
set and metric the record gives the quartiles and the spread (interquartile
range / median); for set B it gives how far its median moved from set A's,
and whether that move and both spreads stay within the metric's bound in
BENCHMARK.json. It goes to bench/e2e/baseline_<N>cpu.json with the host's
provenance.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["paper_mix", "small_stream", "hot_repeat", "serve_daemon"]
HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds):
    """One untraced run: its JSON result, host line and model hash."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    fields = {}
    for line in out[:-1]:
        key, _, value = line.strip().partition(" ")
        fields[key] = value
    return json.loads(out[-1]), fields["host"], fields["model_sha256"]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}

    load_start = os.getloadavg()[0]
    sets, hosts, shas = [], set(), set()
    for _ in range(2):
        values = {w: {} for w in WORKLOADS}
        for seed in range(1, args.runs + 1):
            for w in WORKLOADS:
                result, host, sha = run(w, seed, args.seconds)
                if not result["correct"]:
                    print(f"baseline.py: {w} failed", file=sys.stderr)
                    return 1
                hosts.add(host)
                shas.add(sha)
                for name, metric in result["metrics"].items():
                    values[w].setdefault(name, []).append(metric["value"])
        sets.append(values)

    record = {w: {} for w in WORKLOADS}
    for w in WORKLOADS:
        for name, a in sets[0][w].items():
            qa = quartiles(a)
            qb = quartiles(sets[1][w][name])
            m = metrics[name]
            shift = (qb["median"] - qa["median"]) / qa["median"]
            worse = shift if m["better"] == "lower" else -shift
            record[w][name] = {
                "unit": m["unit"],
                "bound": m["bound"],
                "set_a": qa,
                "set_b": qb,
                "shift_b_vs_a": shift,
                "shift_within_bound": worse <= m["bound"],
                "spreads_within_bound": max(qa["spread"], qb["spread"])
                <= m["bound"],
            }
    git = subprocess.run(["git", "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    doc = {
        "provenance": {
            "host": sorted(hosts),
            "cpus": os.cpu_count(),
            "build_type": "release",
            "load_avg_start": load_start,
            "load_avg_end": os.getloadavg()[0],
            "git_sha": git.stdout.strip() if git.returncode == 0 else None,
            "date": time.strftime("%Y-%m-%d"),
            "seeds": f"1-{args.runs}",
            "seconds": args.seconds,
            "model_sha256": sorted(shas),
        },
        "workloads": record,
    }
    path = os.path.join(HERE, f"baseline_{os.cpu_count()}cpu.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
