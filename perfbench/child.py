"""One benchmark repetition, run in a fresh interpreter by run.py.

Usage: python3 child.py SPEC_JSON

The spec names the working directory (holding the generated inputs), the
commands, the output expectations, whether to trace, and where to write the
result JSON.  The child imports ``surfmimo`` and parses the shipped presets
(that is set-up), stamps ``time.monotonic()``, runs every command through
``surfmimo.cli.main`` in order, stamps again, reads its own peak RSS and then
checks the outputs outside the timed region.  Both stamps use the
system-wide monotonic clock, so the parent can subtract its spawn time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
import warnings


def _run_commands(cli, commands, tracer) -> list:
    out = []
    for i, argv in enumerate(commands):
        if tracer is not None:
            tracer.cmd = i
        rec = {"argv": argv, "rc": None, "error": None}
        t0 = time.perf_counter()
        try:
            rec["rc"] = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # every failure is a failed operation
            rec["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        rec["s"] = time.perf_counter() - t0
        out.append(rec)
    return out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()

    import surfmimo.cli as cli
    from surfmimo import presets

    if tracer is not None:
        spans.install(tracer)
    presets.load_materials()
    presets.load_coupling()
    presets.load_mcs_table()
    t_ready = time.monotonic()

    os.chdir(spec["workdir"])
    if tracer is None:
        commands = _run_commands(cli, spec["commands"], None)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            commands = _run_commands(cli, spec["commands"], tracer)
        tracer.on = False
    t_done = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    outputs = {}
    for name, expect in spec["expect"].items():
        if os.path.exists(name):
            outputs[name] = checks.check_file(name, expect)
        else:
            outputs[name] = {"problems": ["not written"], "fingerprint": None}
    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "rss_mb": rss_mb,
        "commands": commands,
        "outputs": outputs,
    }
    if tracer is not None:
        arrays = tracer.arrays()
        metrics = spans.layer_metrics(tracer.names, arrays)
        metrics["channel.clamp_warnings"] = sum(
            1 for w in caught
            if issubclass(w.category, RuntimeWarning) and "clamp" in str(w.message))
        metrics["io.rows_written"] = sum(o.get("rows", 0) for o in outputs.values())
        metrics["io.bytes_written"] = sum(o.get("bytes", 0) for o in outputs.values())
        tracer.save(spec["spans_path"], arrays)
        result["layer_metrics"] = metrics
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
