#!/usr/bin/env python3
"""Reduced-size self-check of the benchmark.

Runs every workload listed in BENCHMARK.json through the benchmark's own
command with --smoke, plain and traced, and asserts that each run passes
its output checks and prints exactly the end_to_end (plain) or per_layer
(traced) metrics BENCHMARK.json lists, each with its unit. Exits 1 on
the first mismatch. Run from anywhere inside the repository:

    python3 hostbench/smoke.py
"""
import json
import pathlib
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())
for workload in spec["workloads"]:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        args = ["--smoke", "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", trace]
        run = subprocess.run(spec["command"] + args, cwd=root, check=True,
                             stdout=subprocess.PIPE, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        problems = [f"{n} missing or not in '{u}'" for n, u in want.items()
                    if got.get(n) != u]
        problems += [f"{n} is not in BENCHMARK.json {section}"
                     for n in got if n not in want]
        if not result["correct"]:
            problems.append(f"{result['failed']} of {result['attempted']} "
                            "operations failed")
        label = f"{workload['name']} --trace {trace}"
        if problems:
            print(f"smoke FAIL {label}: " + "; ".join(problems))
            sys.exit(1)
        print(f"smoke ok   {label}: {len(got)} {section} metrics with units")
