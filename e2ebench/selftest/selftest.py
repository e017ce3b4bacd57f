#!/usr/bin/env python3
"""Tiny-size self-test of the end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2ebench/selftest/selftest.py

Runs every workload of e2ebench/run.py at `--size tiny`, untraced and
traced, and checks that each result line names exactly the metrics and
units BENCHMARK.json lists, with every check passing. Then it injects
two faults the benchmark must catch — a corrupted batch log and a serve
line the server answers with `err` — and checks that each lowers
`ok_frac` and marks the run incorrect. Exits 0 when all of this holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")


def run(workload, trace, inject="none"):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "0.3",
           "--trace", str(trace), "--size", "tiny", "--inject", inject]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    if res.returncode != 0:
        sys.stderr.write(res.stderr.decode()[-3000:])
        raise SystemExit(f"FAIL: {' '.join(cmd[1:])} exited {res.returncode}")
    return json.loads(res.stdout.decode().strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            res = run(workload, trace)
            tag = f"{workload} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: {res['failed']} of {res['attempted']} checks failed")
            nulls = [k for k, v in res["metrics"].items() if v["value"] is None]
            if nulls:
                problems.append(f"{tag}: unmeasured {nulls}")
            print(f"ok   {tag}: {res['attempted']} checks", flush=True)
    for inject in ("corrupt-log", "serve-err"):
        res = run("serve_churn", 0, inject)
        ok_frac = res["metrics"]["ok_frac"]["value"]
        caught = ok_frac < 1.0 and not res["correct"] and res["failed"] > 0
        print(f"{'ok  ' if caught else 'FAIL'} inject {inject}: ok_frac={ok_frac:.4f} "
              f"failed={res['failed']}", flush=True)
        if not caught:
            problems.append(f"inject {inject} did not lower ok_frac")
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
