"""Record reference output fingerprints for the benchmark's full-size inputs.

Usage (from the repository root):

    python3 perfbench/record_reference.py [--seeds 0-24] [--workload NAME]

Runs each workload once per seed in a fresh child, requires every command to
succeed and every output to pass the structural checks, and writes
``perfbench/reference/<workload>.json``.  run.py compares the outputs of
seeds found there against these fingerprints (tolerance checks.RTOL).  Re-record only
when a change to the model is intended to change its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-24")
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    run.REFERENCE.mkdir(exist_ok=True)
    for name in names:
        seeds = {}
        for seed in parse_seeds(args.seeds):
            runner = run.Runner(name, seed, "full", False, time.monotonic() + 600)
            runner.reference = {}
            rep = runner.child(runner.wl["commands"], False, "reference")
            failures = runner.judge(rep)
            if failures:
                print(f"{name} seed {seed}: " + " | ".join(failures), file=sys.stderr)
                return 1
            seeds[str(seed)] = {out: o["fingerprint"] for out, o in rep["outputs"].items()}
            print(f"{name} seed {seed}: {rep['run_s']:.2f} s", flush=True)
        doc = {"src_lines": run.context()["src_lines"], "seeds": seeds}
        path = run.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
