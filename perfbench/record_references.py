#!/usr/bin/env python3
"""Record the reference outcomes that run.py checks every later commit against.

    python3 perfbench/record_references.py --seeds 100

For each workload and each seed 0..N-1 this makes one call and stores
its losses and accuracies in perfbench/references.json, merging with
what the file already holds.  Run it only on a commit whose outputs are
trusted; the file records that commit's source digest.
"""

import argparse
import json
import sys

import run  # pins the BLAS threads before numpy loads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    workloads = run.bootstrap()
    if workloads is None:
        print("record_references: no qlam sources", file=sys.stderr)
        return 2
    import machine

    refs = run.load_references()
    refs["tolerance"] = workloads.REFERENCE_TOLERANCE
    env = machine.record(run.ROOT, run.THREAD_VARS)
    refs["recorded_with"] = {k: env[k] for k in ("git_revision", "source_sha256")}
    for name, spec in workloads.WORKLOADS.items():
        table = refs["workloads"].setdefault(name, {})
        for seed in range(args.seeds):
            session = workloads.Session(spec, seed, run.OUT / "record" / name)
            outcome, _ = session.call()
            table[str(seed)] = {k: outcome[k] for k in workloads.REFERENCE_KEYS[spec.kind]}
            print(name, seed, table[str(seed)], flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
