import argparse
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from winoconv import pipeline_sim
from winoconv.cli import build_parser, main
from winoconv.pipeline_sim import SimTrace, simulate_layer
from winoconv.tensor_io import load_tensor, save_tensor


def test_no_args_prints_usage_and_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_transform_prints_canonical_f23(capsys, tmp_path):
    assert main(["transform", "--m", "2", "--r", "3", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "F(2x2, 3x3)" in out
    assert "[ 1  0 -1  0]" in out
    assert (tmp_path / "g.csv").read_text().splitlines()[1] == "1/2,1/2,1/2"


def test_transform_custom_points(capsys):
    assert main(["transform", "--m", "2", "--r", "3", "--points", "0,1/2,-1/2"]) == 0
    assert "points: 0, 1/2, -1/2, inf" in capsys.readouterr().out


@pytest.mark.parametrize("points", ["0,1,1", "0,1,1/0", "1e400,1,-1", ""],
                         ids=["repeated", "zero_denominator", "overflow", "empty"])
def test_transform_bad_points_is_error(capsys, points):
    # 1/0 raised ZeroDivisionError out of Fraction with a traceback, 1e400 an
    # OverflowError out of float(), and "" fell back to the default points
    assert main(["transform", "--m", "2", "--r", "3", "--points", points]) == 1
    assert "error:" in capsys.readouterr().err


def test_conv_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    inp = tmp_path / "in.npy"
    ker = tmp_path / "k.npy"
    out = tmp_path / "out.npy"
    save_tensor(inp, rng.standard_normal((1, 2, 8, 8)).astype(np.float32), "NCHW")
    save_tensor(ker, rng.standard_normal((3, 2, 3, 3)).astype(np.float32), "KCRR")
    assert main(["conv", "--input", str(inp), "--kernels", str(ker),
                 "--output", str(out), "--m", "2", "--pad", "1"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    spatial, wino, err = lines
    assert spatial["path"] == "spatial"
    assert spatial["multiplications"] == 1 * 2 * 8 * 8 * 9 * 3
    assert wino["multiplications"] == 1 * 2 * 16 * 3 * 16  # N*C*tiles*K*alpha^2
    assert err["max_rel_error"] < 1e-4
    arr, layout = load_tensor(out)
    assert layout == "NCHW" and arr.shape == (1, 3, 8, 8)
    assert np.array_equal(np.load(out, allow_pickle=False), arr)


def test_conv_rejects_wrong_layout(tmp_path, capsys):
    path = tmp_path / "in.npy"
    save_tensor(path, np.ones((1, 1, 4, 4), dtype=np.float32), "KCRR")
    assert main(["conv", "--input", str(path), "--kernels", str(path),
                 "--output", str(tmp_path / "o")]) == 1
    assert "expected an NCHW tensor" in capsys.readouterr().err


def test_conv_rejects_an_old_container_file(tmp_path, capsys):
    path = tmp_path / "in.wtns"
    path.write_bytes(b"WTNS1 NCHW f32 1 1 2 2\n" + b"\x00" * 16)
    assert main(["conv", "--input", str(path), "--kernels", str(path),
                 "--output", str(tmp_path / "o")]) == 1
    assert "error: builtins.ValueError: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dse_subcommand(tmp_path, capsys):
    assert main(["dse", "--workload", "vgg16d", "--m-values", "1,2,3,4,5",
                 "--budgets", "688,700,684", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "recommended: m=4" in out
    for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig6.csv"):
        assert (tmp_path / name).exists()
    fig3 = (tmp_path / "fig3.csv").read_text().splitlines()
    assert fig3[0] == "m,pct_mult_decrease,pct_transform_increase"


# sha256 of the CSV files written by `dse` and `report` with default arguments.
DEFAULT_CSV_DIGESTS = {
    "fig1.csv": "c6913e5e5974b1c02c97f039225cd48b62c6fb2cfe3ad1599e67bd52f5021f6e",
    "fig2.csv": "ce8b71e2b53f6059b61879c8e5043bdb5504bf0830b96e395ff47f220d450ee1",
    "fig3.csv": "9bee934cf702a7b1c5b0ee9388f19faaf3d381da9775d26a580793404f728744",
    "fig6.csv": "856dde7decc7623ef5c0290a9c092c5391ca18157d2e115852b3809437ee2156",
    "table2.csv": "f3af579899d8e315e3c1fac0e3640685d1062cadbf587f9a79d1526fcfdf538e",
    "table2_reference.csv": "6fa2cc076187137c52154643c1bef049c30cbd992a490b4db9a42d36b2f4a322",
}


def test_dse_and_report_default_csvs_are_byte_identical(tmp_path, capsys):
    assert main(["dse", "--outdir", str(tmp_path)]) == 0
    assert main(["report", "--outdir", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DEFAULT_CSV_DIGESTS}
    assert digests == DEFAULT_CSV_DIGESTS


def test_simulate_subcommand(tmp_path, capsys):
    assert main(["simulate", "--m", "4", "--c", "4", "--k", "8", "--height", "14",
                 "--width", "14", "--multipliers", "144", "--seed", "7",
                 "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines == [
        '{"cycles_elapsed": 132, "issue_cycles": 128, "data_transform_invocations": 128, '
        '"inverse_transform_count": 512, "hadamard_mult_count": 18432, "tiles_per_image": 16, '
        '"kernel_groups": 2, "idle_pe_slots": 0}',
        '{"simulated_cycles": 132, "analytical_cycles": 102.0, "gap_cycles": 30.0, '
        '"ceiling_overhead": 30.0, "consistent": true}',
    ]
    trace = json.loads(lines[0])
    report = json.loads(lines[1])
    assert trace["issue_cycles"] == 16 * 4 * 2
    assert trace["data_transform_invocations"] == trace["issue_cycles"]
    assert report["consistent"] is True
    arr, _ = load_tensor(tmp_path / "simulated_output.npy")
    assert arr.shape == (1, 8, 14, 14)
    assert np.array_equal(np.load(tmp_path / "simulated_output.npy", allow_pickle=False), arr)


def test_simulate_checks_the_traced_cycles(tmp_path, capsys, monkeypatch):
    # The report's simulated_cycles is closed-form, so only the trace shows a simulator
    # that took a wrong number of cycles.
    def off_by_one(*args):
        out, trace = simulate_layer(*args)
        return out, SimTrace(**{**vars(trace), "cycles_elapsed": trace.cycles_elapsed + 1})

    monkeypatch.setattr(pipeline_sim, "simulate_layer", off_by_one)
    outdir = tmp_path / "out"
    assert main(["simulate", "--m", "4", "--c", "4", "--k", "8", "--multipliers", "144",
                 "--outdir", str(outdir)]) == 1
    assert "error: the simulation took 133 cycles, exact_cycles gives 132" \
        in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("sub", [["dse"], ["report"]])
@pytest.mark.parametrize("freq", ["0", "nan", "200"])
def test_bad_frequency_is_an_error(tmp_path, capsys, sub, freq):
    # 0 raised ZeroDivisionError and nan wrote CSVs full of nan; the clock is now
    # fixed at the builds' FREQ_HZ, so any --freq-mhz, 200 included, is a usage error.
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(sub + ["--freq-mhz", freq, "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --freq-mhz {freq}" in capsys.readouterr().err
    assert not outdir.exists()


def test_dse_empty_budgets_is_an_error(tmp_path, capsys):
    # max() of the empty list raised before SweepSpec could reject it
    outdir = tmp_path / "out"
    assert main(["dse", "--budgets", "", "--outdir", str(outdir)]) == 1
    assert "error: builtins.ValueError: m_values and budgets must be nonempty" \
        in capsys.readouterr().err
    assert not outdir.exists()


def test_simulate_deterministic_with_seed(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["simulate", "--m", "2", "--seed", "3",
                     "--outdir", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "trace.jsonl").read_bytes() \
        == (tmp_path / "b" / "trace.jsonl").read_bytes()
    assert (tmp_path / "a" / "simulated_output.npy").read_bytes() \
        == (tmp_path / "b" / "simulated_output.npy").read_bytes()


def test_report_subcommand(tmp_path, capsys):
    assert main(["report", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "shared_transform_m4" in out
    table = (tmp_path / "table2.csv").read_text()
    assert "28.046" in table
    assert out == table + f"wrote table2.csv and table2_reference.csv in {tmp_path}\n"
    assert (tmp_path / "table2_reference.csv").exists()


def test_dse_takes_r_from_the_workload(tmp_path, capsys):
    net = tmp_path / "w.workload"
    net.write_text("workload five\nlayer 1 14 14 8 8 5 2 g\n")
    assert main(["dse", "--workload", str(net), "--m-values", "2",
                 "--budgets", "700", "--outdir", str(tmp_path)]) == 0
    # F(2,5) has alpha = 6: 700 // 36 = 19 PEs; F(2,3) would have 43.
    assert "recommended: m=2 budget=700 P=19 " in capsys.readouterr().out

    net.write_text("workload mixed\nlayer 1 14 14 8 8 3 1 a\nlayer 1 14 14 8 8 5 2 b\n")
    assert main(["dse", "--workload", str(net), "--outdir", str(tmp_path / "mixed")]) == 1
    assert "sweep r=3 does not match a 5x5 layer" in capsys.readouterr().err
    assert not (tmp_path / "mixed").exists()


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("winoconv ")]
    commands = [shlex.split(re.sub(r"[\[\]]", "", line))[1:] for line in lines]
    assert sorted(argv[0] for argv in commands) \
        == ["conv", "dse", "report", "simulate", "transform"]
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    for line, argv in zip(lines, commands):
        parser.parse_args(argv)
        # every option of the subcommand is documented, optional ones in brackets
        words = shlex.split(line)
        for action in subparsers[argv[0]]._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                want = option if action.required else f"[{option}"
                assert want in words, f"README line of {argv[0]} lacks {want}"
    with pytest.raises(SystemExit) as exc:  # the tile size fixes the pipeline depth
        parser.parse_args(["simulate", "--m", "2", "--d-p", "4"])
    assert exc.value.code == 2


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    np.random.seed(0)  # the sketch draws from the global generator
    namespace: dict = {}
    exec(block, namespace)
    y, out = namespace["y"], namespace["out"]
    assert out.data.shape == y.data.shape == (1, 8, 14, 14)
    assert np.max(np.abs(out.data - y.data)) <= 1e-4
