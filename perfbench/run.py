"""Benchmark of the surfmimo command line on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py [--workload sweep|aggregate|desk|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--size full|tiny]

Load model: closed loop, one client.  Each repetition is a fresh child
interpreter (child.py), started only after the previous one ended, with
BLAS/OpenMP threads pinned to 1, so every repetition pays cold module caches
as a command-line user does.  Repetitions run until the next one would end
after ``--seconds``.  Before them an untimed warm-up child fills the file
cache, and a few set-up-only children add samples to ``setup_s``.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (fresh
interpreter until surfmimo is imported and the shipped presets are parsed),
``run_s`` (the workload's commands), ``peak_rss_mb`` (child peak resident
memory), each the median over children; ``error_rate`` is printed and feeds
``failed``.  With ``--trace 1`` untraced and traced repetitions alternate, and
the per-layer metrics of spans.py are reported with the tracing overhead.

Every output CSV is checked (checks.py); a failed check or command counts as
a failed operation, and the process exits 1 when any operation failed.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with the machine
context, the generated inputs and every repetition is written under
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PROBES = 6     # extra set-up-only children per run
MIN_REPS = 2         # untraced repetitions; a traced run needs one pair
RUN_LIMIT_S = 170.0  # a run must finish within this, whatever --seconds says


def context() -> dict:
    """Machine and environment; context only, never a gated metric."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "PyYAML"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "versions": versions,
        "thread_pinning": PINNED,
        "src_lines": src_lines,
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    """Runs the repetitions of one workload and checks their outputs."""

    def __init__(self, name: str, seed: int, size: str, trace: bool, deadline: float):
        self.name, self.seed, self.size, self.trace = name, seed, size, trace
        self.deadline = deadline
        self.wl = workloads.make(name, seed, size)
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{size}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for fname, text in self.wl["files"].items():
            (self.dir / fname).write_text(text, encoding="utf-8")
        self.first_sha: dict = {}
        self.reference = self._load_reference()
        self.env = {**os.environ, "PYTHONPATH": str(SRC), **PINNED}

    def _load_reference(self) -> dict:
        path = REFERENCE / f"{self.name}.json"
        if self.size != "full" or not path.is_file():
            return {}
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["seeds"].get(str(self.seed), {})

    def child(self, commands: list, traced: bool, tag: str) -> dict:
        """Start one child, wait for it, and return its timings and result."""
        for out in self.wl["expect"]:
            (self.dir / out).unlink(missing_ok=True)
        result_path = self.dir / f"{tag}.result.json"
        spec = {
            "workdir": str(self.dir),
            "commands": commands,
            "expect": self.wl["expect"] if commands else {},
            "trace": traced,
            "result_path": str(result_path),
            "spans_path": str(self.dir / f"{tag}.spans.npz"),
        }
        spec_path = self.dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                env=self.env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout)
            rc, stderr = proc.returncode, proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            rc, stderr = None, f"child timed out after {timeout:.0f} s"
        wall = time.monotonic() - t_spawn
        rep = {"tag": tag, "traced": traced, "wall_s": wall, "child_rc": rc}
        if rc == 0 and result_path.is_file():
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
            rep.update(res, setup_s=res["t_ready"] - t_spawn,
                       run_s=res["t_done"] - res["t_ready"])
        else:
            rep["child_error"] = stderr[-2000:]
        return rep

    def judge(self, rep: dict) -> list:
        """Mark each command of a repetition ok or failed; return the failures."""
        failures = []
        if "commands" not in rep:
            return [f"{rep['tag']}: child failed (rc {rep['child_rc']}): "
                    f"{rep.get('child_error', '').strip()[-500:]}"] * len(self.wl["commands"])
        for cmd in rep["commands"]:
            argv = cmd["argv"]
            out = argv[argv.index("--out") + 1]
            problems = []
            if cmd["error"] or cmd["rc"] != 0:
                problems.append(f"exit {cmd['rc']} {cmd['error'] or ''}".strip())
            o = rep["outputs"].get(out, {"problems": ["not checked"]})
            problems += o["problems"]
            if "sha256" in o:
                first = self.first_sha.setdefault(out, (rep["tag"], o["sha256"]))
                if first[1] != o["sha256"]:
                    problems.append(f"bytes differ from {first[0]}")
            ref = self.reference.get(out)
            if ref is not None and o.get("fingerprint") is not None:
                problems += checks.reference_problems(o["fingerprint"], ref)
            cmd["problems"] = problems
            if problems:
                failures.append(f"{rep['tag']} {out}: " + "; ".join(problems))
        return failures

    def run(self, seconds: float) -> dict:
        t0 = time.monotonic()
        self.child([], False, "warmup")
        probes = [self.child([], False, f"setup{i}") for i in range(SETUP_PROBES)]
        reps, failures = [], []
        k = 0
        while time.monotonic() < self.deadline:
            traced = self.trace and k % 2 == 1
            rep = self.child(self.wl["commands"], traced, f"rep{k}")
            failures += self.judge(rep)
            reps.append(rep)
            k += 1
            if self.trace and k % 2 == 1:
                continue  # finish the (untraced, traced) pair
            per_side = k // 2 if self.trace else k
            est = statistics.median(r["wall_s"] for r in reps) * (2 if self.trace else 1)
            enough = per_side >= (1 if self.trace else MIN_REPS)
            if enough and time.monotonic() - t0 + est > seconds:
                break
            if "commands" not in rep:
                break  # a child that cannot start will not start next time
        return {"probes": probes, "reps": reps, "failures": failures,
                "commands_per_rep": len(self.wl["commands"]),
                "measure_s": time.monotonic() - t0}


def summarize(name: str, out: dict, trace: bool) -> tuple:
    """(metrics, attempted, failed, human-readable lines) of one workload run."""
    reps = out["reps"]
    ok_reps = [r for r in reps if "run_s" in r]
    attempted = max(1, len(reps) * out["commands_per_rep"])
    failed = len(out["failures"])
    lines = []
    metrics = {}
    untraced = [r for r in ok_reps if not r["traced"]]
    traced = [r for r in ok_reps if r["traced"]]
    if not trace and untraced:
        setups = [r["setup_s"] for r in out["probes"] + untraced if "setup_s" in r]
        series = {
            "setup_s": setups,
            "run_s": [r["run_s"] for r in untraced],
            "peak_rss_mb": [r["rss_mb"] for r in untraced],
        }
        for metric, values in series.items():
            q1, med, q3 = quartiles(values)
            metrics[metric] = {"value": med, "unit": END_TO_END[metric]}
            lines.append(f"  {metric:<12} {med:10.4f} {END_TO_END[metric]:<3} "
                         f"median (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    if trace and traced:
        per = [r["layer_metrics"] for r in traced]
        for metric in per[0]:
            metrics[metric] = statistics.median(p[metric] for p in per)
        t_run = statistics.median(r["run_s"] for r in traced)
        u_run = statistics.median(r["run_s"] for r in untraced) if untraced else t_run
        metrics["trace.run_s"] = t_run
        metrics["trace.untraced_run_s"] = u_run
        metrics["trace.overhead_s"] = t_run - u_run
        metrics = {m: {"value": metrics[m], "unit": spans.PER_LAYER[m][0]}
                   for m in spans.PER_LAYER}
        for m, v in metrics.items():
            lines.append(f"  {m:<34} {v['value']:>14.6g} {v['unit']}")
    rate = failed / attempted
    lines.append(f"  {'error_rate':<12} {rate:10.4f} -   ({failed} of {attempted} "
                 f"operations failed)")
    for f in out["failures"][:10]:
        lines.append(f"    FAILED {f}")
    return metrics, attempted, failed, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    args = ap.parse_args(argv)

    if not (SRC / "surfmimo" / "cli.py").is_file():
        print(f"error: no surfmimo sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ctx = context()
    print(f"context: {json.dumps(ctx, sort_keys=True)}")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        runner = Runner(name, args.seed, args.size, bool(args.trace), deadline)
        out = runner.run(args.seconds)
        metrics, attempted, failed, lines = summarize(name, out, bool(args.trace))
        n_reps = len(out["reps"])
        print(f"workload {name} seed {args.seed} size {args.size} trace {args.trace}: "
              f"{n_reps} repetitions in {out['measure_s']:.1f} s")
        print(f"  inputs: {json.dumps(runner.wl['inputs'])}")
        for line in lines:
            print(line)
        record = {"workload": name, "seed": args.seed, "size": args.size,
                  "trace": args.trace, "context": ctx, "inputs": runner.wl["inputs"],
                  "commands": runner.wl["commands"], "metrics": metrics,
                  "attempted": attempted, "failed": failed, **out}
        record_path = WORK / f"{name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
        record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + m: v for m, v in metrics.items()})
        total["attempted"] += attempted
        total["failed"] += failed
        total["correct"] = total["correct"] and failed == 0 and bool(metrics)
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
