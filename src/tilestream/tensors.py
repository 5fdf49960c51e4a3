"""Rank-4 tensor conventions and the ST4 fixture file format.

Dense activations, images and gradient maps are plain numpy arrays with
shape (n, c, h, w), row-major, in one of two supported precisions. This
module holds the dtype registry, shape/finiteness validators used at op
boundaries, and readers/writers for the ST4 binary fixture format:

    magic "ST4\\0" | u8 dtype code (0=single, 1=double) | 4x u32 LE dims |
    data, little-endian scalars, row-major (n, c, h, w)

Lower-rank parameters (bias vectors, dense matrices) are embedded into
rank 4 as (1, 1, 1, len) and (1, 1, rows, cols); callers keep track of
the logical rank (checkpoints record it in their manifest).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import NonFiniteError, ShapeError

MAGIC = b"ST4\0"

DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}

DTYPES = {"single": np.dtype(np.float32), "double": np.dtype(np.float64)}


def resolve_dtype(precision):
    """Map a precision name ('single'/'double') or dtype to a numpy dtype."""
    if isinstance(precision, str):
        try:
            return DTYPES[precision]
        except KeyError:
            raise ShapeError(f"unknown precision {precision!r}") from None
    dt = np.dtype(precision)
    if dt not in DTYPE_CODES:
        raise ShapeError(f"unsupported dtype {dt}")
    return dt


def check_tensor4(x, name="tensor"):
    """Validate the rank-4 contract; returns x unchanged."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name}: expected rank-4 ndarray, got {getattr(x, 'shape', type(x))}")
    if x.dtype not in DTYPE_CODES:
        raise ShapeError(f"{name}: unsupported dtype {x.dtype}")
    return x


def check_finite(x, name="tensor"):
    """Raise NonFiniteError if any scalar is NaN/Inf; returns x unchanged.

    Allocates no mask: a NaN propagates through min and max, and an Inf
    is one of them."""
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise NonFiniteError(f"{name}: non-finite values detected")
    return x


def check_same_dtype(*arrays):
    dts = {a.dtype for a in arrays}
    if len(dts) > 1:
        raise ShapeError(f"mixed dtypes in one op: {sorted(map(str, dts))}")


def embed4(a):
    """Embed a 1-D or 2-D array into the rank-4 layout used by ST4 files."""
    a = np.asarray(a)
    if a.ndim == 4:
        return a
    if a.ndim == 1:
        return a.reshape(1, 1, 1, -1)
    if a.ndim == 2:
        return a.reshape(1, 1, *a.shape)
    raise ShapeError(f"cannot embed rank-{a.ndim} array into rank 4")


def write_st4(path, array):
    """Write an array (rank 1, 2 or 4) to an ST4 fixture file."""
    a = embed4(array)
    if a.dtype not in DTYPE_CODES:
        raise ShapeError(f"unsupported dtype {a.dtype} for ST4")
    dims = a.shape
    if any(d > 0xFFFFFFFF for d in dims):
        raise ShapeError("dims exceed u32 range")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", DTYPE_CODES[a.dtype]))
        fh.write(struct.pack("<4I", *dims))
        fh.write(np.ascontiguousarray(a).astype(a.dtype.newbyteorder("<")).tobytes())


def read_st4(path):
    """Read an ST4 fixture file; returns a rank-4 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ShapeError(f"{path}: bad magic {blob[:4]!r}")
    (code,) = struct.unpack_from("<B", blob, 4)
    if code not in CODE_DTYPES:
        raise ShapeError(f"{path}: unknown dtype code {code}")
    dims = struct.unpack_from("<4I", blob, 5)
    dt = CODE_DTYPES[code]
    count = int(np.prod(dims, dtype=np.int64))
    expected = 21 + count * dt.itemsize
    if len(blob) != expected:
        raise ShapeError(f"{path}: size {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype=dt.newbyteorder("<"), count=count, offset=21)
    return data.astype(dt).reshape(dims)
