#!/usr/bin/env python3
"""qlam benchmark: closed-loop workloads over the public Python API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-n4-T64 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is a separate run: half of it untraced, half with every
layer's functions wrapped (see tracing.py), and it reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Files are written only under ``.perfbench_out/`` in the checkout.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # one BLAS thread; must precede the numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 5
CLOCK_STEPS = 200  # about 0.05 s at n=4 and 0.45 s at n=12 on a 2.1 GHz Xeon vCPU
ORACLE_TOL = 1e-9  # relative; the oracle and the package differ only by rounding

END_TO_END_UNITS = {
    "setup_s": "s",
    "epoch_ref": "ref",
    "eval_samples_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}


def bootstrap():
    """Put the checkout's sources first on the path; None when they are absent."""
    if not (ROOT / "src" / "qlam" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {"workloads": {}}


def probe_setup(spec, seed: int) -> float:
    """Wall time of a fresh interpreter that only does the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", spec.name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def closed_loop(session, clock, seconds: float, tracer=None, label: str = "",
                pause=None, pauses: int = 0) -> list:
    """Call until the next call would likely end after ``seconds``.

    The reference clock is read before the first call and after every
    call (and a train call reads it between its two parts).  Each timed
    part is paired with the mean of the readings on either side of it.
    ``pause()`` runs between calls at ``pauses`` evenly spaced points.
    Returns (outcome or None if it raised, seconds by metric) per call.
    """
    calls, walls = [], []
    readings = [clock.read()]
    paused = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = f"{label}/{len(calls)}"
        t0 = time.perf_counter()
        try:
            outcome, timings = session.call(tracer, clock)
        except Exception:  # a failing call is counted, and the loop goes on
            if all(c[0] is not None for c in calls):
                traceback.print_exc()
            wall = time.perf_counter() - t0
            outcome, timings = None, {"epoch_s": wall, "eval_s": wall}
        readings.append(clock.read())
        before, after = readings[-2], readings[-1]
        mid = timings.pop("mid_ref_s", None)
        timings["epoch_ref_s"] = 0.5 * (before + (after if mid is None else mid))
        timings["eval_ref_s"] = 0.5 * (after + (before if mid is None else mid))
        walls.append(time.perf_counter() - t0)
        calls.append((outcome, timings))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return calls
        due = min(pauses, int((pauses + 1) * (time.perf_counter() - start) / seconds))
        while paused < due:
            pause()
            paused += 1
            readings[-1] = clock.read()  # the next call pairs with a fresh reading


def run_workload(spec, seed, seconds, trace, references, out_dir, probe):
    """Measure one workload; ``probe()`` times one set-up.  Returns the
    printed report as a dict."""
    import oracle
    import tracing
    import workloads

    session = workloads.Session(spec, seed, out_dir)
    clock = oracle.ReferenceClock(spec.n_qubits, CLOCK_STEPS)
    kron = workloads.kronecker_problems(seed, ORACLE_TOL)
    tracer = None
    if trace:
        plain = closed_loop(session, clock, seconds / 2)
        tracer = tracing.Tracer()
        traced = closed_loop(session, clock, seconds / 2, tracer, f"{spec.name}/{seed}")
        tracer.run_id = f"{spec.name}/{seed}/round-trip"
        with tracer:
            session.round_trip(session.params)
        calls = plain + traced
    else:
        # The set-up probes are spread over the run, so that they see the
        # host in the same mix of fast and slow states as the timed calls.
        setup_times = [probe()]
        plain = calls = closed_loop(session, clock, seconds, pause=lambda: setup_times.append(probe()),
                                    pauses=SETUP_PROBES - 2)
        setup_times.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks.  The first call is compared with the oracle and with the
    # recorded reference; every other call must reproduce it bit for bit.
    # The Kronecker check and, for a seed with no recorded reference, a call
    # on a recorded seed are check calls of their own.
    first = calls[0][0]
    recorded = references["workloads"].get(spec.name, {})
    call_checks, check_calls = {}, {"kronecker": kron}
    if first is None:
        call_checks["first call"] = ["raised"]
    else:
        call_checks["oracle"] = session.oracle_problems(first, ORACLE_TOL)
        if str(seed) in recorded:
            call_checks["reference"] = workloads.reference_problems(
                spec, first, recorded[str(seed)])
        elif recorded:
            ref_seed = min(recorded, key=int)
            try:
                outcome, _ = workloads.Session(spec, int(ref_seed), out_dir / "reference").call()
                found = workloads.reference_problems(spec, outcome, recorded[ref_seed])
            except Exception:  # counted as a failed check call
                traceback.print_exc()
                found = ["raised"]
            check_calls[f"reference (seed {ref_seed})"] = found
    first_ok = first is not None and not any(call_checks.values())
    failed = sum(1 for outcome, _ in calls if not first_ok or outcome != first)
    failed += sum(1 for found in check_calls.values() if found)
    attempted = len(calls) + len(check_calls)

    def epoch_ref(calls):
        return statistics.median(t["epoch_s"] / t["epoch_ref_s"] for _, t in calls)

    # raw seconds are printed; the gated timings are in reference-clock units
    raw = {
        "epoch_s": statistics.median(t["epoch_s"] for _, t in plain),
        "eval_samples_per_s": statistics.median(spec.n_test / t["eval_s"] for _, t in plain),
    }
    if trace:
        overhead = epoch_ref(traced) / epoch_ref(plain)
        metrics = workloads.layer_metrics(tracer, session, len(traced), overhead)
        units = workloads.PER_LAYER_UNITS
        tracer.write_spans(out_dir / "spans.jsonl.gz")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "epoch_ref": epoch_ref(plain),
            "eval_samples_per_ref": statistics.median(
                spec.n_test * t["eval_ref_s"] / t["eval_s"] for _, t in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    return {
        "workload": spec.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "calls": [t for _, t in calls],
        "raw": raw,
        "reference_clock_s": statistics.median(t["epoch_ref_s"] for _, t in calls),
        "checks": {**call_checks, **check_calls},
        "failed_frac": failed / attempted,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def print_report(report: dict, environment: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"{len(report['calls'])} timed calls")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in report["raw"].items():
        print(f"  {name:40s} {value:.6g} {'s' if name == 'epoch_s' else '1/s'} (raw, not gated)")
    print(f"  {'reference clock':40s} {report['reference_clock_s']:.6g} s (median reading)")
    for name, found in report["checks"].items():
        print(f"  check {name}: {'ok' if not found else '; '.join(found)}")
    print(f"  failed_frac {report['failed_frac']:.6g} ({result['failed']} of {result['attempted']})")
    print(json.dumps({"environment": environment}))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qlam benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = bootstrap()
    if workloads is None:
        print(f"perfbench: no qlam sources at {ROOT / 'src' / 'qlam'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    out_dir = OUT / spec.name
    if args.setup_probe:
        workloads.Session(spec, args.seed, out_dir / "probe")
        return 0

    import machine

    report = run_workload(spec, args.seed, args.seconds, args.trace == 1,
                          load_references(), out_dir, lambda: probe_setup(spec, args.seed))
    environment = machine.record(ROOT, THREAD_VARS)
    (out_dir / f"result_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps({**report, "environment": environment}, indent=1))
    print_report(report, environment)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
