"""Smoke test of the benchmark at a tiny input size.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload (gated or not) at ``--size tiny`` untraced and traced,
and checks the output contract against BENCHMARK.json: exit code 0, a last
line with exactly
``correct``/``attempted``/``failed``/``metrics``, no failed operation, and
exactly the declared metrics with their units.  Then checks that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark's own files.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=600)


def check_result(proc, declared: dict, workload: str, trace: int) -> list:
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"{where}: {res['failed']} of {res['attempted']} failed")
    want = declared["per_layer" if trace else "end_to_end"]
    if sorted(res["metrics"]) != sorted(m["name"] for m in want):
        problems.append(f"{where}: metrics {sorted(res['metrics'])}")
    for m in want:
        got = res["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} = {got}")
    return problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny")
            problems += check_result(proc, declared, name, trace)

    bare = HERE / "_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "--workload", "sweep", "--seed", "0", "--seconds", "1")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
