"""Output checks behind ``error_rate``.

Three checks, applied to every CSV a workload command writes:

* structure: the file parses with ``surfmimo.io.read_results``, holds the
  expected columns (extra columns are allowed) and row count, and every
  number in it is finite (empty cells only in columns that allow them);
* determinism: a file's bytes are identical across the repetitions of one
  seed (compared by the caller through ``sha256``);
* reference: for seeds with a recorded reference, the file's fingerprint
  matches the one recorded from the commit that introduced the benchmark.

A fingerprint keeps, per column, either a hash of the text cells or two
weighted sums of the numeric cells with fixed pseudo-random weights plus the
sum of magnitudes as scale.  Reordering a floating-point sum inside the
program moves a weighted sum by about 1e-15 of the scale; any change to the
model moves it by far more than ``RTOL`` of the scale.  ``phase_rad`` is
left out: it duplicates ``re``/``im`` and jumps by 2*pi at the branch cut.
"""

from __future__ import annotations

import hashlib
import math

RTOL = 1e-10
SKIP_COLUMNS = ("phase_rad",)


def _numbers(cell):
    """A cell as a list of floats (';'-joined lists allowed), or None when the
    cell is not numeric."""
    if cell is None:
        return []
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return [float(cell)]
    try:
        return [float(part) for part in str(cell).split(";")]
    except ValueError:
        return None


def _weights(i: int):
    """Fixed pseudo-random weights in [1, 2) and [-1, 1] for the i-th value."""
    return 1.0 + ((i * 2654435761) % 1000) / 1000.0, ((i * 40503 + 17) % 2001) / 1000.0 - 1.0


def _round(x: float) -> float:
    """12 significant digits: far finer than RTOL, and a compact record."""
    return float(f"{x:.12g}")


def fingerprint(rs) -> dict:
    """Row count and per-column digest of a ResultSet."""
    cols = {}
    for c, name in enumerate(rs.columns):
        if name in SKIP_COLUMNS:
            continue
        cells = [row[c] for row in rs.rows]
        parsed = [_numbers(v) for v in cells]
        if any(p is None for p in parsed):
            text = "\x1f".join("" if v is None else str(v) for v in cells)
            cols[name] = {"text": hashlib.sha256(text.encode()).hexdigest()[:16]}
            continue
        p1 = p2 = scale = 0.0
        i = 0
        nulls = 0
        for vals in parsed:
            nulls += not vals
            for x in vals:
                w1, w2 = _weights(i)
                p1 += w1 * x
                p2 += w2 * x
                scale += 2.0 * abs(x)
                i += 1
        cols[name] = {"n": i, "nulls": nulls, "p1": _round(p1), "p2": _round(p2),
                      "scale": _round(scale)}
    return {"rows": len(rs.rows), "digest": cols}


def structure_problems(rs, expect: dict) -> list:
    """Problems with columns, row count and finiteness of one ResultSet."""
    problems = []
    missing = [c for c in expect["columns"] if c not in rs.columns]
    if missing:
        problems.append(f"missing columns {missing}")
    want = expect["rows"]
    if want is not None and len(rs.rows) != want:
        problems.append(f"{len(rs.rows)} rows, expected {want}")
    if not rs.rows:
        problems.append("no rows")
    for c, name in enumerate(rs.columns):
        for r, row in enumerate(rs.rows):
            vals = _numbers(row[c])
            if vals is None:
                continue
            if not vals and name not in expect["nullable"]:
                problems.append(f"row {r}: empty {name}")
                break
            if any(not math.isfinite(x) for x in vals):
                problems.append(f"row {r}: non-finite {name} {row[c]!r}")
                break
    return problems


def reference_problems(got: dict, ref: dict) -> list:
    """Differences between a fingerprint and its recorded reference."""
    problems = []
    if got["rows"] != ref["rows"]:
        problems.append(f"{got['rows']} rows, reference has {ref['rows']}")
    for name, r in ref["digest"].items():
        g = got["digest"].get(name)
        if g is None:
            problems.append(f"column {name} missing")
        elif "text" in r:
            if g.get("text") != r["text"]:
                problems.append(f"column {name} text differs from reference")
        elif "p1" not in g or g["n"] != r["n"] or g["nulls"] != r["nulls"]:
            problems.append(f"column {name} shape differs from reference")
        else:
            tol = RTOL * r["scale"] + 1e-300
            for key in ("p1", "p2"):
                if abs(g[key] - r[key]) > tol:
                    problems.append(
                        f"column {name} {key} {g[key]!r} differs from reference "
                        f"{r[key]!r} by more than {RTOL:g} of scale {r['scale']:.6g}"
                    )
                    break
    return problems


def check_file(path, expect: dict) -> dict:
    """Parse one output CSV and return its sha256, size, row count,
    fingerprint and structural problems."""
    from surfmimo.io import read_results

    with open(path, "rb") as fh:
        data = fh.read()
    out = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    try:
        rs = read_results(path)
    except Exception as exc:  # any parse failure is a failed output check
        out.update(rows=0, fingerprint=None,
                   problems=[f"read_results failed: {type(exc).__name__}: {exc}"])
        return out
    out.update(rows=len(rs.rows), fingerprint=fingerprint(rs),
               problems=structure_problems(rs, expect))
    return out
