import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tilestream.errors import NonFiniteError, ShapeError
from tilestream.tensors import (
    check_finite,
    check_tensor4,
    embed4,
    read_st4,
    resolve_dtype,
    write_st4,
)


def test_st4_golden_bytes(tmp_path):
    # hand-built reference: 1x1x1x2 double [1.5, -2.0]
    arr = np.array([1.5, -2.0]).reshape(1, 1, 1, 2)
    path = tmp_path / "t.st4"
    write_st4(path, arr)
    blob = path.read_bytes()
    expected = (b"ST4\0" + struct.pack("<B", 1) + struct.pack("<4I", 1, 1, 1, 2)
                + struct.pack("<2d", 1.5, -2.0))
    assert blob == expected


def test_st4_single_code(tmp_path):
    arr = np.ones((2, 1, 1, 1), dtype=np.float32)
    path = tmp_path / "s.st4"
    write_st4(path, arr)
    assert path.read_bytes()[4] == 0
    back = read_st4(path)
    assert back.dtype == np.float32 and back.shape == (2, 1, 1, 1)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 4)] * 4),
    double=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_st4_roundtrip(tmp_path_factory, dims, double, seed):
    dt = np.float64 if double else np.float32
    arr = np.random.default_rng(seed).standard_normal(dims).astype(dt)
    path = tmp_path_factory.mktemp("st4") / "r.st4"
    write_st4(path, arr)
    back = read_st4(path)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)


def test_st4_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.st4"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ShapeError):
        read_st4(path)


def test_st4_rejects_truncated(tmp_path):
    arr = np.ones((1, 1, 2, 2))
    path = tmp_path / "t.st4"
    write_st4(path, arr)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ShapeError):
        read_st4(path)


def test_embed4():
    assert embed4(np.zeros(3)).shape == (1, 1, 1, 3)
    assert embed4(np.zeros((2, 3))).shape == (1, 1, 2, 3)
    with pytest.raises(ShapeError):
        embed4(np.zeros((2, 2, 2)))


def test_validators():
    with pytest.raises(ShapeError):
        check_tensor4(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        check_tensor4(np.zeros((1, 1, 1, 1), dtype=np.int32))
    with pytest.raises(NonFiniteError):
        check_finite(np.array([1.0, np.nan]))
    assert resolve_dtype("single") == np.float32
    assert resolve_dtype("double") == np.float64
    with pytest.raises(ShapeError):
        resolve_dtype("half")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_finds_any_bad_scalar_without_a_mask(dtype, bad):
    """check_finite finds one NaN or Inf anywhere in a map, also in a strided
    view, and allocates no per-element mask on a finite one."""
    x = np.zeros((1, 4, 64, 64), dtype)
    tracemalloc.start()
    try:
        check_finite(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.size // 8
    for idx in [(0, 0, 0, 0), (0, 3, 63, 63), (0, 2, 17, 40)]:
        y = x.copy()
        y[idx] = bad
        with pytest.raises(NonFiniteError):
            check_finite(y)
        with pytest.raises(NonFiniteError):
            check_finite(y[:, :, idx[2]:, idx[3]:])
