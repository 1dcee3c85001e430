import numpy as np
import pytest

from winoconv.tensor_io import load_tensor, save_tensor


@pytest.mark.parametrize("dtype,tag", [(np.float32, "f32"), (np.float64, "f64")])
def test_round_trip(tmp_path, dtype, tag):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
    path = tmp_path / "t.wtns"
    save_tensor(path, arr, "NCHW")
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    assert header == f"WTNS1 NCHW {tag} 2 3 4 5"
    back, layout = load_tensor(path)
    assert layout == "NCHW"
    assert back.dtype == dtype
    assert np.array_equal(back, arr)


def test_kernel_layout(tmp_path):
    arr = np.ones((4, 2, 3, 3), dtype=np.float32)
    path = tmp_path / "k.wtns"
    save_tensor(path, arr, "KCRR")
    back, layout = load_tensor(path)
    assert layout == "KCRR" and back.shape == (4, 2, 3, 3)


def test_save_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError, match="layout"):
        save_tensor(tmp_path / "x", np.ones((1, 1, 1, 1)), "NHWC")
    with pytest.raises(ValueError, match="4D"):
        save_tensor(tmp_path / "x", np.ones((2, 2)), "NCHW")
    with pytest.raises(ValueError, match="dtype"):
        save_tensor(tmp_path / "x", np.ones((1, 1, 1, 1), dtype=np.int32), "NCHW")


def test_load_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"not a tensor\n")
    with pytest.raises(ValueError, match="bad header"):
        load_tensor(path)

    path.write_bytes(b"WTNS1 NCHW f32 1 1 2 2\n" + b"\x00" * 8)  # needs 16 bytes
    with pytest.raises(ValueError, match="payload"):
        load_tensor(path)

    path.write_bytes(b"WTNS1 NCHW f16 1 1 2 2\n")
    with pytest.raises(ValueError, match="dtype tag"):
        load_tensor(path)

    path.write_bytes(b"\x00" * 400)
    with pytest.raises(ValueError, match="header too long"):
        load_tensor(path)

    path.write_bytes(b"WTNS1 NCHW f32 1 1")  # no newline
    with pytest.raises(ValueError, match="truncated header"):
        load_tensor(path)
