"""
On-disk formats: field snapshots, diagnostics CSV, and run manifests.

Snapshot format (bit-exact, one file per snapshot, named
``snap_<step:08d>.eaf``): magic bytes ``EAF1``, little-endian u32 n,
f64 alpha, f64 nu, f64 time, then n*n f64 physical-space vorticity
values, row-major with y fastest.

Diagnostics CSV columns, in order:
t, energy, energy_rel_drift, mean_q, casimir2, casimir2_rel_drift,
enstrophy, max_u, cfl. Relative drifts are measured against the t=0 row.
Floats are written with shortest round-trip repr, so reruns of the same
configuration are byte-identical and the reader recovers exact values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import Diagnostics

SNAPSHOT_MAGIC = b"EAF1"
_HEADER = struct.Struct("<I3d")

DIAG_COLUMNS = (
    "t",
    "energy",
    "energy_rel_drift",
    "mean_q",
    "casimir2",
    "casimir2_rel_drift",
    "enstrophy",
    "max_u",
    "cfl",
)


@dataclass(frozen=True, eq=False)
class Snapshot:
    """In-memory image of one snapshot file."""

    n: int
    alpha: float
    nu: float
    time: float
    omega: np.ndarray  # (n, n) physical vorticity, [ix, iy]


def write_snapshot(path, n: int, alpha: float, nu: float, time: float, omega: np.ndarray) -> None:
    """Write one field snapshot; ``omega`` is the (n, n) physical vorticity."""
    omega = np.ascontiguousarray(omega, dtype="<f8")
    if omega.shape != (n, n):
        raise ValueError(f"snapshot field must be ({n}, {n}), got {omega.shape}")
    with open(path, "wb") as f:
        f.write(SNAPSHOT_MAGIC)
        f.write(_HEADER.pack(n, alpha, nu, time))
        f.write(omega)  # [ix, iy] C-order: rows over x, y fastest


def read_snapshot(path) -> Snapshot:
    """Read a snapshot file back, bit-exactly."""
    raw = Path(path).read_bytes()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a snapshot file (bad magic {raw[:4]!r})")
    if len(raw) < 4 + _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot ({len(raw)} bytes, shorter than its header)")
    n, alpha, nu, time = _HEADER.unpack_from(raw, 4)
    expected = 4 + _HEADER.size + 8 * n * n
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated snapshot ({len(raw)} bytes, expected {expected})")
    omega = np.frombuffer(raw, dtype="<f8", offset=4 + _HEADER.size).reshape(n, n).copy()
    return Snapshot(n=n, alpha=alpha, nu=nu, time=time, omega=omega)


def snapshot_name(step: int) -> str:
    return f"snap_{step:08d}.eaf"


def _drift(value: float, base: float) -> float:
    if base == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return (value - base) / abs(base)


class DiagnosticsLog:
    """Accumulates diagnostics rows; drifts are relative to the first row."""

    def __init__(self) -> None:
        self.rows: list[Diagnostics] = []

    def write(self, path) -> None:
        lines = [",".join(DIAG_COLUMNS)]
        for d in self.rows:
            row = {**vars(d), "energy_rel_drift": _drift(d.energy, self.rows[0].energy),
                   "casimir2_rel_drift": _drift(d.casimir2, self.rows[0].casimir2)}
            lines.append(",".join(repr(float(row[name])) for name in DIAG_COLUMNS))
        Path(path).write_text("\n".join(lines) + "\n")


def read_diagnostics(path) -> dict[str, np.ndarray]:
    """Read a diagnostics CSV into column arrays (exact float round-trip)."""
    lines = Path(path).read_text().strip().split("\n")
    header = tuple(lines[0].split(","))
    if header != DIAG_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {header}")
    data = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for i, row in enumerate(data, start=2):
        if len(row) != len(DIAG_COLUMNS):
            raise ValueError(f"{path}: line {i}: expected {len(DIAG_COLUMNS)} values, got {len(row)}")
    arr = np.asarray(data, dtype=np.float64).reshape(-1, len(DIAG_COLUMNS))
    return {name: arr[:, i] for i, name in enumerate(DIAG_COLUMNS)}


def write_manifest(path, entries: dict) -> None:
    """Write a flat key=value manifest (config echo, code version, wall time)."""
    lines = [f"{key} = {value}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")
