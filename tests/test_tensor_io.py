import io

import numpy as np
import pytest
from numpy.lib import format as npy_format

from winoconv.tensor_io import load_tensor, save_tensor


def _record(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _header_only(shape, descr="<f4") -> bytes:
    buf = io.BytesIO()
    npy_format.write_array_header_1_0(buf, {"descr": descr, "fortran_order": False,
                                            "shape": shape})
    return buf.getvalue()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
    path = tmp_path / "t.npy"
    save_tensor(path, arr, "NCHW")
    back, layout = load_tensor(path)
    assert layout == "NCHW"
    assert back.dtype == dtype
    assert np.array_equal(back, arr)
    # a tensor file is a .npy file: the first record is the array
    plain = np.load(path, allow_pickle=False)
    assert plain.dtype == dtype and np.array_equal(plain, arr)


def test_kernel_layout(tmp_path):
    arr = np.ones((4, 2, 3, 3), dtype=np.float32)
    path = tmp_path / "k"
    save_tensor(path, arr, "KCRR")
    assert [p.name for p in tmp_path.iterdir()] == ["k"]  # no ".npy" appended
    back, layout = load_tensor(path)
    assert layout == "KCRR" and back.shape == (4, 2, 3, 3)


def test_save_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError, match="layout"):
        save_tensor(tmp_path / "x", np.ones((1, 1, 1, 1)), "NHWC")
    with pytest.raises(ValueError, match="4D"):
        save_tensor(tmp_path / "x", np.ones((2, 2)), "NCHW")
    with pytest.raises(ValueError, match="dtype"):
        save_tensor(tmp_path / "x", np.ones((1, 1, 1, 1), dtype=np.int32), "NCHW")


_LAYOUT = _record(np.array("NCHW"))

CORRUPT_FILES = {
    "text": (b"not a tensor\n", "not a tensor file"),
    "empty": (b"", "not a tensor file"),
    "short_payload": (_header_only((1, 1, 2, 2)) + b"\x00" * 8, "not a tensor file"),
    "float16": (_record(np.ones((1, 1, 2, 2), np.float16)) + _LAYOUT, "dtype float16"),
    "no_layout_record": (_record(np.ones((1, 1, 2, 2), np.float32)), "not a tensor file"),
    "bad_layout": (_record(np.ones((1, 1, 2, 2), np.float32)) + _record(np.array("NHWC")),
                   "layout"),
    "trailing_bytes": (_record(np.ones((1, 1, 2, 2), np.float32)) + _LAYOUT + b"\x00",
                       "bytes after the layout record"),
    "empty_dimension": (_record(np.ones((1, 0, 2, 2), np.float32)) + _LAYOUT, "dimension"),
    # under 200 bytes, but the header promises 1024^4 float32 elements: 4 TiB
    "4tb_header": (_header_only((1024,) * 4) + b"\x00" * 16, "not a tensor file"),
}


@pytest.mark.parametrize("name", list(CORRUPT_FILES))
def test_load_rejects_corrupt_files(tmp_path, name):
    content, message = CORRUPT_FILES[name]
    path = tmp_path / "bad"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=message):
        load_tensor(path)
