"""Binary field snapshots (magic "DSA1").

Layout, little-endian, no padding:

    magic     4 bytes   b"DSA1"
    version   u16       currently 1
    nx, ny    u64, u64
    lx, ly    f64, f64
    t         f64
    model     u8        0=DSE 1=RDS1 2=RDS2 3=RDS3
    beta, rho, nu, alpha   f64 x 4
    payload   nx*ny complex samples as interleaved (re, im) f64 pairs,
              row-major with the x index first (y fastest)

Write-then-read is bit-exact; version or magic mismatches, a non-finite
time and header grids that Grid2D rejects are format errors, and short
payloads are reported with expected vs actual byte counts.  Writes
are atomic (atomic_open), so a failed or killed write never leaves a
truncated file in place of an earlier one.
"""

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import ParameterError, SnapshotFormatError
from .fields import Field, complex_field
from .grid import Grid2D
from .models import ModelKind

MAGIC = b"DSA1"
VERSION = 1
_HEADER = struct.Struct("<4sHQQdddB4d")

_KIND_TAG = {ModelKind.DSE: 0, ModelKind.RDS1: 1, ModelKind.RDS2: 2, ModelKind.RDS3: 3}
_TAG_KIND = {v: k for k, v in _KIND_TAG.items()}


@contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a temp file beside path for writing; move it onto path on success.

    On any error the temp file is removed and path keeps its earlier
    contents.  The temp file is made by open(), not mkstemp, so the result
    gets the usual permissions rather than 0600.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_snapshot(path, field: Field, t: float, spec) -> None:
    g = field.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        g.nx,
        g.ny,
        g.lx,
        g.ly,
        float(t),
        _KIND_TAG[spec.kind],
        spec.beta,
        spec.rho,
        spec.nu,
        spec.alpha,
    )
    payload = np.ascontiguousarray(field.values, dtype=np.complex128)
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(payload.tobytes(order="C"))


def read_snapshot(path):
    """Returns (field, t, metadata dict with kind/beta/rho/nu/alpha)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(
            f"snapshot shorter than its header: {len(raw)} < {_HEADER.size} bytes"
        )
    magic, version, nx, ny, lx, ly, t, tag, beta, rho, nu, alpha = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad snapshot magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}, expected {VERSION}")
    if tag not in _TAG_KIND:
        raise SnapshotFormatError(f"unknown model tag {tag}")
    if not math.isfinite(t):
        raise SnapshotFormatError(f"snapshot time {t} is not finite")
    expected = _HEADER.size + 16 * nx * ny
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"truncated or oversized snapshot: expected {expected} bytes, got {len(raw)}"
        )
    try:
        grid = Grid2D(nx, ny, lx, ly)
    except ParameterError as exc:
        raise SnapshotFormatError(f"snapshot header holds an invalid grid: {exc}") from None
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(nx, ny).copy()
    meta = {
        "kind": _TAG_KIND[tag],
        "beta": beta,
        "rho": rho,
        "nu": nu,
        "alpha": alpha,
    }
    return complex_field(grid, values), float(t), meta
