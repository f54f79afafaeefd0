#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes. For every workload of
BENCHMARK.json it makes tiny-size runs, untraced and traced, and checks
that each prints a result with exactly the contract's keys, reports every
listed metric with its unit, and passes its correctness checks. Then it
feeds each workload one wrong answer and checks that the run is reported
incorrect; feeds run.py's combination step a differing digest, a wrong
unit and a missing metric and checks that each fails; checks that
perfbench/layers.json maps every per-layer metric; and checks that a
directory holding only BENCHMARK.json and the benchmark fails without
printing a result.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            what = f"{workload} --trace {trace}"
            try:
                r = result(run(ROOT, workload, trace, "--size", "tiny"))
            except (AssertionError, ValueError, IndexError) as e:
                expect(False, f"{what}: {e}")
                continue
            expect(set(r) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(r)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            expect(got == want, f"{what}: every {key} metric with its unit")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{what}: correct, {r['failed']} of {r['attempted']} failed")
        try:
            r = result(run(ROOT, workload, 0, "--size", "tiny", "--inject-fault"))
            expect(not r["correct"] and r["failed"] >= 1,
                   f"{workload}: a wrong answer fails the checks ({r['failed']} failed)")
        except (AssertionError, ValueError, IndexError) as e:
            expect(False, f"{workload} --inject-fault: {e}")

    # run.py's combination of its processes' outputs, fed by hand.
    loader = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    bench = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(bench)
    listed = [{"name": "setup_s", "unit": "s", "better": "lower"}]

    def process(digest="aa", metrics=None):
        return {"problems": [], "attempted": 1, "failed": 0, "digests": {"corpus": digest},
                "metrics": {"setup_s": [1.0, "s"]} if metrics is None else metrics}

    for what, outs, ok in [
        ("identical processes pass", [process(), process()], True),
        ("a later process's differing digest fails",
         [process(), process(digest="bb")], False),
        ("a metric in the wrong unit fails",
         [process(), process(metrics={"setup_s": [1.0, "ms"]})], False),
        ("a metric one process did not report fails", [process(), process(metrics={})], False),
    ]:
        _, _, failed, problems = bench.combine("w", 0, listed, outs)
        expect((failed == 0 and not problems) == ok, f"combine: {what}")

    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = [m for layer in layers for m in layer["metrics"]]
    listed = [m["name"] for m in spec["per_layer"]]
    expect(sorted(mapped) == sorted(listed), "layers.json maps every per-layer metric once")

    bare = ROOT / ".bench_cache" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("target"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result,
           "a directory with only the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
