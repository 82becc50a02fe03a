"""Artifact writers: unit-annotated CSV, binary field snapshots, JSON reports.

Snapshot layout (little-endian, fixed for cross-language readers):

    bytes 0-3   magic "CWOM"
    bytes 4-5   version, u16 (currently 1)
    bytes 6-13  n_points, u64
    bytes 14-21 dx in meters, f64
    then n_points (re, im) f64 pairs for field a,
    then n_points (re, im) f64 pairs for field b.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

SNAPSHOT_MAGIC = b"CWOM"
SNAPSHOT_VERSION = 1


def write_csv(path, columns):
    """Write columns of equal length; header names each column and unit.

    ``columns`` is a list of (name, unit, values). Numbers are rendered
    with %.17g so identical runs emit identical bytes.
    """
    path = Path(path)
    n = len(columns[0][2])
    for name, _, values in columns:
        if len(values) != n:
            raise ValueError(f"column {name!r} length mismatch")
    header = ",".join(f"{name} [{unit}]" for name, unit, _ in columns)
    lines = [header]
    for i in range(n):
        cells = []
        for _, _, values in columns:
            v = values[i]
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, complex):
                cells.append("%.17g%+.17gj" % (v.real, v.imag))
            else:
                cells.append("%.17g" % v)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def write_snapshot(path, a, b, dx: float):
    """Binary snapshot of one field pair; see module docstring for layout."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("snapshot requires two 1D fields of equal length")
    header = SNAPSHOT_MAGIC + struct.pack("<HQd", SNAPSHOT_VERSION, a.size, dx)
    # a little-endian complex128 is its (re, im) f64 pair
    body = np.concatenate((a, b)).astype("<c16").tobytes()
    Path(path).write_bytes(header + body)


def read_snapshot(path):
    """Read a snapshot back: (a, b, dx)."""
    raw = Path(path).read_bytes()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot (bad magic)")
    version, n_points, dx = struct.unpack("<HQd", raw[4:22])
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    expect = 22 + 2 * 16 * n_points
    if len(raw) != expect:
        raise ValueError(f"snapshot truncated: {len(raw)} bytes, need {expect}")
    pairs = np.frombuffer(raw, dtype="<c16", offset=22)
    return (pairs[:n_points].astype(np.complex128),
            pairs[n_points:].astype(np.complex128), dx)


def _json_value(obj):
    """``obj`` as plain JSON values: a complex as {"re", "im"}, an array as
    a list, a numpy scalar as its Python value, and a float that is not
    finite, which JSON has no number for (RFC 8259), as None (null)."""
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist())
    if isinstance(obj, complex):
        return {"re": _json_value(obj.real), "im": _json_value(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json_report(path, payload: dict):
    """``payload`` as indented JSON with sorted keys; a float that is not
    finite is written as null, so the file is strict JSON."""
    Path(path).write_text(json.dumps(_json_value(payload), indent=2,
                                     sort_keys=True, allow_nan=False) + "\n")
