"""Tracing from outside the program: wrap every public function of every
``surfmimo`` layer module, record one span per call, and derive the
per-layer metrics from the spans.

A span is (id, name, start, end, parent id, command index, ok).  ``name`` is
the function's home module and qualified name, e.g. ``mimo.zf_stream_snrs``;
``ok`` is 0 when the call raised.  A function imported into other modules
(``experiments.zf_stream_snrs``, ``channel.image_sources``, ...) is replaced
at every module that binds it, so calls through any binding are recorded.
Spans stay in memory until ``Tracer.save`` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "io", "presets", "experiments", "mimo", "channel", "geometry",
          "propagation")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.rows: list = []
        self.stack: list = [-1]
        self.next_id = 0
        self.cmd = -1  # -1 while setting up, then the command index
        self.on = True

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        rows, stack, clock, tracer = self.rows, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            ok = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1
                return result
            finally:
                t1 = clock()
                stack.pop()
                rows.append((sid, nid, t0, t1, parent, tracer.cmd, ok))

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        import numpy as np

        rows = sorted(self.rows)
        cols = list(zip(*rows)) if rows else [()] * 7
        return {
            "name": np.asarray(cols[1], dtype=np.int32),
            "start": np.asarray(cols[2], dtype=float),
            "end": np.asarray(cols[3], dtype=float),
            "parent": np.asarray(cols[4], dtype=np.int64),
            "cmd": np.asarray(cols[5], dtype=np.int32),
            "ok": np.asarray(cols[6], dtype=np.int8),
        }

    def save(self, path, arrays) -> None:
        import numpy as np

        np.savez_compressed(path, names=np.asarray(self.names), **arrays)


def install(tracer: Tracer) -> None:
    """Wrap every public function and public method defined in the layer
    modules, at every module (and the package) that binds it."""
    pkg = importlib.import_module("surfmimo")
    mods = [importlib.import_module(f"surfmimo.{layer}") for layer in LAYERS]
    wrapped = {}
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for m_name, m_obj in list(vars(obj).items()):
                    if not m_name.startswith("_") and inspect.isfunction(m_obj):
                        layer = mod.__name__.split(".", 1)[1]
                        setattr(obj, m_name,
                                tracer.wrap(f"{layer}.{obj.__name__}.{m_name}", m_obj))
            elif (inspect.isfunction(obj) and obj.__module__.startswith("surfmimo.")
                    and id(obj) not in wrapped):
                layer = obj.__module__.split(".", 1)[1]
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{obj.__name__}", obj))
    for mod in [pkg, *mods]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# --- per-layer metrics ---------------------------------------------------------

# Each parse function reads exactly one preset file.
_PRESET_PARSES = ("presets.load_materials", "presets.load_coupling",
                  "presets.load_mcs_table", "presets.preset_version")
_RESULT_SETS = tuple(f"io.{k}_result_set" for k in (
    "channel", "analyze", "sweep", "separation", "aggregate", "radiation",
    "share", "pulse"))

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "channel.h_ss_calls": ("count", "lower"),
    "channel.h_ss_s": ("s", "lower"),
    "channel.matrices": ("count", "lower"),
    "channel.csi_self_s": ("s", "lower"),
    "channel.build_mimo_self_s": ("s", "lower"),
    "channel.h_cross_calls": ("count", "lower"),
    "channel.h_cross_s": ("s", "lower"),
    "channel.h_aa_calls": ("count", "lower"),
    "channel.h_aa_s": ("s", "lower"),
    "channel.impulse_response_calls": ("count", "lower"),
    "channel.impulse_response_s": ("s", "lower"),
    "channel.clamp_warnings": ("count", "lower"),
    "propagation.interp_calls": ("count", "lower"),
    "propagation.interp_s": ("s", "lower"),
    "propagation.phase_velocity_calls": ("count", "lower"),
    "geometry.image_sources_calls": ("count", "lower"),
    "geometry.image_sources_s": ("s", "lower"),
    "geometry.segment_cross_calls": ("count", "lower"),
    "geometry.segment_cross_s": ("s", "lower"),
    "mimo.capacity_s": ("s", "lower"),
    "mimo.condition_number_s": ("s", "lower"),
    "mimo.zf_calls": ("count", "lower"),
    "mimo.zf_s": ("s", "lower"),
    "mimo.zf_separable_ratio": ("ratio", "higher"),
    "mimo.esm_s": ("s", "lower"),
    "mimo.map_rate_s": ("s", "lower"),
    "experiments.run_link_calls": ("count", "lower"),
    "experiments.run_link_self_s": ("s", "lower"),
    "experiments.pulse_profile_self_s": ("s", "lower"),
    "presets.load_calls": ("count", "lower"),
    "presets.load_s": ("s", "lower"),
    "io.load_config_s": ("s", "lower"),
    "io.result_set_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.rows_written": ("count", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(names: list, a: dict) -> dict:
    """Per-layer metrics from span arrays.  Calls counted are those made
    while the workload commands ran (set-up preset parses included);
    ``io.rows_written``, ``io.bytes_written``, ``channel.clamp_warnings``,
    ``trace.run_s``, ``trace.untraced_run_s`` and ``trace.overhead_s`` are
    measured outside and added by the caller."""
    import numpy as np

    dur = a["end"] - a["start"]
    parent = a["parent"]
    n = len(dur)
    ids = {name: i for i, name in enumerate(names)}
    # spans are sorted by id and ids are dense, so a parent id is an index
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    parent_name = np.full(n, -1, dtype=np.int64)
    parent_name[has_parent] = a["name"][parent[has_parent]]

    def mask(*fns):
        want = [ids[f] for f in fns if f in ids]
        return np.isin(a["name"], want)

    def calls(*fns):
        return int(np.sum(mask(*fns)))

    def total(*fns):
        return float(np.sum(dur[mask(*fns)]))

    def outer(*fns):
        """Time in the named functions, not counting one called from another."""
        want = [ids[f] for f in fns if f in ids]
        m = np.isin(a["name"], want) & ~np.isin(parent_name, want)
        return float(np.sum(dur[m]))

    def self_of(*fns):
        return float(np.sum(self_time[mask(*fns)]))

    zf = mask("mimo.zf_stream_snrs")
    presets_fns = [f for f in names if f.startswith("presets.")]
    return {
        "channel.h_ss_calls": calls("channel.h_ss"),
        "channel.h_ss_s": total("channel.h_ss"),
        "channel.matrices": calls("channel.build_mimo"),
        "channel.csi_self_s": self_of("channel.csi"),
        "channel.build_mimo_self_s": self_of("channel.build_mimo"),
        "channel.h_cross_calls": calls("channel.h_sa", "channel.h_as"),
        "channel.h_cross_s": total("channel.h_sa", "channel.h_as"),
        "channel.h_aa_calls": calls("channel.h_aa"),
        "channel.h_aa_s": total("channel.h_aa"),
        "channel.impulse_response_calls": calls("channel.impulse_response"),
        "channel.impulse_response_s": total("channel.impulse_response"),
        "propagation.interp_calls": calls("propagation.MaterialParams.alpha_at",
                                          "propagation.MaterialParams.beta_at"),
        "propagation.interp_s": total("propagation.MaterialParams.alpha_at",
                                      "propagation.MaterialParams.beta_at"),
        "propagation.phase_velocity_calls": calls("propagation.phase_velocity"),
        "geometry.image_sources_calls": calls("geometry.image_sources"),
        "geometry.image_sources_s": total("geometry.image_sources"),
        "geometry.segment_cross_calls": calls("geometry.segment_crosses_rect"),
        "geometry.segment_cross_s": total("geometry.segment_crosses_rect"),
        "mimo.capacity_s": total("mimo.capacity"),
        "mimo.condition_number_s": total("mimo.condition_number"),
        "mimo.zf_calls": int(np.sum(zf)),
        "mimo.zf_s": float(np.sum(dur[zf])),
        "mimo.zf_separable_ratio": float(np.mean(a["ok"][zf])) if zf.any() else 0.0,
        "mimo.esm_s": total("mimo.effective_snr"),
        "mimo.map_rate_s": total("mimo.map_rate"),
        "experiments.run_link_calls": calls("experiments.run_link"),
        "experiments.run_link_self_s": self_of("experiments.run_link"),
        "experiments.pulse_profile_self_s": self_of("experiments.pulse_profile"),
        "presets.load_calls": calls(*_PRESET_PARSES),
        "presets.load_s": outer(*presets_fns),
        "io.load_config_s": outer("io.load_config", "io.parse_config"),
        "io.result_set_s": total(*_RESULT_SETS),
        "io.write_s": total("io.write_results", "io.write_plot_script"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_of("cli.main"),
        "trace.spans": n,
    }
