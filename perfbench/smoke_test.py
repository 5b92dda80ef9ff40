#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the repository root (takes about a minute). For every workload it
makes one short untraced run and one short traced run, and checks:

  * every end-to-end metric of BENCHMARK.json is printed with its unit, the
    run is correct, and its error rate is 0;
  * every per-layer metric is printed with its unit, the traced replay
    reached the same reports as CheckerEngine::Scan, and the span file is
    valid JSON;
  * the same seed gives the same input digest and another seed a different
    one;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    benchmark fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, seconds, trace, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    records = {}
    for line in lines[:-1]:
        records.update(json.loads(line))
    return done.returncode, records, lines[-1] if lines else ""


def check_metrics(result, wanted, where):
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{where}: {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{where}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {metric['name']} not a number"
    assert set(result["metrics"]) == {m["name"] for m in wanted}, f"{where}: extra metrics"


def main():
    failures = 0
    digests = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            try:
                code, records, last = run(workload, 11, 2 if trace else 1, trace)
                assert code == 0, f"{where}: exit {code}"
                result = json.loads(last)
                assert result["correct"] and result["failed"] == 0, f"{where}: {last}"
                assert result["attempted"] >= 1, f"{where}: no ops"
                assert records["summary"]["error_rate"] == 0, f"{where}: error rate"
                check_metrics(result, SPEC["per_layer" if trace else "end_to_end"], where)
                if trace:
                    assert records["summary"]["reference_checks"] >= 1, f"{where}: replay unchecked"
                    with open(os.path.join(ROOT, records["trace"]["file"])) as f:
                        assert json.load(f)["traceEvents"], f"{where}: empty trace"
                digests.setdefault(workload, set()).add(records["inputs"]["digest"])
                print(f"ok   {where}")
            except (AssertionError, KeyError, ValueError) as err:
                failures += 1
                print(f"FAIL {where}: {err}")

    for workload, seen in digests.items():
        if len(seen) != 1:
            failures += 1
            print(f"FAIL {workload}: seed 11 gave digests {sorted(seen)}")
    _, records, _ = run("ipa-families", 12, 0.2, 0)
    if records.get("inputs", {}).get("digest") in digests.get("ipa-families", set()):
        failures += 1
        print("FAIL ipa-families: seeds 11 and 12 gave the same digest")
    else:
        print("ok   seeds change the input digest")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _, last = run("ipa-families", 1, 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or last.startswith('{"correct"'):
        failures += 1
        print("FAIL benchmark ran without the refscan sources")
    else:
        print("ok   refuses to run without the refscan sources")

    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
