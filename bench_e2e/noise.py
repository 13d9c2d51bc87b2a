#!/usr/bin/env python3
"""Noise study: run every workload the way the driver does, once per seed,
and print per-metric medians, quartiles and spreads (the tables in NOISE.md).

    python bench_e2e/noise.py --seeds 1-10 --out set1.jsonl
    python bench_e2e/noise.py --compare set1.jsonl set2.jsonl

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median — the quantity the acceptance gate compares to the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from run import WORKLOADS  # same directory; imports nothing heavy

HERE = os.path.dirname(os.path.abspath(__file__))


def collect(args) -> None:
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(args.out, "a") as out:
        for seed in seeds:
            for workload in args.workloads:
                start = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", args.out + ".report"],
                    stdout=subprocess.PIPE, text=True, check=True,
                )
                result = json.loads(done.stdout.strip().splitlines()[-1])
                with open(args.out + ".report") as handle:
                    diag = json.load(handle)["reports"][workload]["diag"]
                os.remove(args.out + ".report")
                # Diagnostics the final line does not carry: the same timing
                # metrics over all passes, system CPU and page faults.
                for name, value in diag.items():
                    if name.startswith("all_passes_"):
                        result["metrics"][f"({name})"] = {"value": value, "unit": ""}
                record = {
                    "workload": workload, "seed": seed,
                    "wall_s": time.perf_counter() - start, **result,
                }
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed={seed} {record['wall_s']:.1f}s "
                      f"correct={result['correct']}", flush=True)


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    table: Dict[str, Dict[str, List[float]]] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            cells = table.setdefault(record["workload"], {})
            cells.setdefault("wall_s", []).append(record["wall_s"])
            for name, entry in record["metrics"].items():
                cells.setdefault(name, []).append(entry["value"])
    return table


def summary(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("nan")


def compare(paths: List[str]) -> None:
    tables = [load(path) for path in paths]
    for workload in tables[0]:
        print(f"\n### {workload}\n")
        header = "| metric |" + "".join(
            f" set {i + 1} median (q1 .. q3) | spread |" for i in range(len(tables))
        )
        print(header + (" median shift |" if len(tables) == 2 else ""))
        print("|" + " --- |" * (header.count("|") - 1 + (len(tables) == 2)))
        for metric in tables[0][workload]:
            row = f"| `{metric}` |"
            medians = []
            for table in tables:
                median, q1, q3, spread = summary(table[workload][metric])
                medians.append(median)
                row += f" {median:.5g} ({q1:.5g} .. {q3:.5g}) | {spread:.2%} |"
            if len(tables) == 2:
                row += f" {(medians[1] - medians[0]) / abs(medians[0]):+.2%} |"
            print(row)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs="+", metavar="FILE")
    args = parser.parse_args()
    if args.compare:
        compare(args.compare)
    elif args.out:
        collect(args)
    else:
        parser.error("give --out FILE to collect or --compare FILES to summarise")
    return 0


if __name__ == "__main__":
    sys.exit(main())
