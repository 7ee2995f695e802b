#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit
for a train and an eval workload, traced and untraced; that a corrupted
reference and a missing reference are handled as documented; and that
the benchmark refuses to run where the qlam sources are absent.
"""

import json
import shutil
import subprocess
import sys
import time

import run  # pins the BLAS threads before numpy loads


def check(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    workloads = run.bootstrap()
    spec_file = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    check(sorted(w["name"] for w in spec_file["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the defined workloads", failures)
    end_to_end = {m["name"]: m["unit"] for m in spec_file["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec_file["per_layer"]}
    check(end_to_end == run.END_TO_END_UNITS, "end-to-end names and units match", failures)
    check(per_layer == workloads.PER_LAYER_UNITS, "per-layer names and units match", failures)

    tiny = (
        workloads.Workload("tiny-train", "train", 2, 8, 4, n_train=4, n_test=2),
        workloads.Workload("tiny-eval", "eval", 2, 8, 4, n_train=0, n_test=4, shots=64),
    )
    out = run.OUT / "selftest"
    for spec in tiny:
        def setup_s(spec=spec):
            t0 = time.perf_counter()
            workloads.Session(spec, 0, out / spec.name / "probe")
            return time.perf_counter() - t0

        outcome, _ = workloads.Session(spec, 0, out / spec.name).call()
        recorded = {k: outcome[k] for k in workloads.REFERENCE_KEYS[spec.kind]}
        refs = {"workloads": {spec.name: {"0": recorded}}}

        for trace, expected in ((False, end_to_end), (True, per_layer)):
            report = run.run_workload(spec, 0, 0.5, trace, refs, out / spec.name, setup_s)
            result = report["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{spec.name} trace={int(trace)} prints every metric with its unit",
                  failures)
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{spec.name} trace={int(trace)} values are numbers", failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                  f"{spec.name} trace={int(trace)} passes its checks", failures)

        bad = {k: v * 1.01 if k.endswith("loss") else v for k, v in recorded.items()}
        report = run.run_workload(spec, 0, 0.5, False, {"workloads": {spec.name: {"0": bad}}},
                                  out / spec.name, setup_s)
        check(not report["result"]["correct"] and report["result"]["failed"] >= 1,
              f"{spec.name} reports a corrupted reference as a failed call", failures)

        report = run.run_workload(spec, 1, 0.5, False, refs, out / spec.name, setup_s)
        check(report["result"]["correct"] and "reference (seed 0)" in report["checks"],
              f"{spec.name} checks an unrecorded seed against a recorded one", failures)

    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", next(iter(workloads.WORKLOADS)),
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "exits non-zero without a result where src/qlam is absent", failures)
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
