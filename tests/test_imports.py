"""`import winoconv`, the analytic CLI subcommands and exact mode run without NumPy.

The names exported from exact, and from conv and pipeline_sim, the two
modules that need NumPy, resolve on first access.  Nor do they load
dataclasses or inspect, whose import and generated methods once made up most
of `import winoconv`.
Each check that needs a fresh interpreter runs one in a subprocess with this
checkout's src/ on its path.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import winoconv

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, cwd: Path) -> str:
    """Run code in a new interpreter that imports winoconv from src/; return its stdout."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cli(*argv: str) -> str:
    return f"from winoconv.cli import main\nassert main({list(argv)!r}) == 0\n"


STEPS = {
    "import": "",  # import winoconv alone
    "dse": cli("dse", "--outdir", "out"),
    "report": cli("report", "--outdir", "out"),
    "transform": cli("transform", "--m", "4", "--r", "3", "--outdir", "out"),
    # last, so that every step before it shows whether it loaded exact mode
    "exact": ("from winoconv import MinimalParams, generate_transforms, winograd_1d_exact, "
              "winograd_2d_tile_exact\nts = generate_transforms(MinimalParams(2, 3))\n"
              "assert winograd_1d_exact(ts, [1, 2, 3, 4], [1, 1, 1]) == (6, 9)\n"
              "assert winograd_2d_tile_exact(ts, [[1] * 4] * 4, [[1] * 3] * 3) == ((9, 9),) * 2\n"),
}


SLOW_MODULES = ("dataclasses", "inspect")
PRINT_SLOW = f"print('@', ' '.join(m for m in {SLOW_MODULES!r} if m in sys.modules))\n"


@pytest.fixture(scope="module")
def step_reports(tmp_path_factory):
    """Run every step of STEPS in turn in one fresh interpreter; return each step's modules.

    sys.modules is read after every step, so each step is checked on its own.
    Which of SLOW_MODULES are loaded is read first after `import sys`, and the
    fixture returns that too.
    """
    code = "import sys\n" + PRINT_SLOW + "import winoconv\n"
    for step in STEPS.values():
        code += step + ("print('@', sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
                        "print('@', sorted(m for m in sys.modules if m.startswith('winoconv.')))\n"
                        + PRINT_SLOW)
    out = run_fresh(code, tmp_path_factory.mktemp("steps"))
    start, *reports = [line[2:] for line in out.splitlines() if line[:2] == "@ "]
    assert len(reports) == 3 * len(STEPS)
    return start.split(), dict(zip(STEPS, zip(reports[::3], reports[1::3], reports[2::3])))


@pytest.mark.parametrize("step", list(STEPS))
def test_analytic_paths_do_not_load_numpy(step_reports, step):
    numpy_modules, loaded, _ = step_reports[1][step]
    assert numpy_modules == "[]"
    # the package is not lazy as a whole: everything dse and report use is loaded
    for module in ("cost_model", "dse", "reference_data", "transforms", "workload"):
        assert f"'winoconv.{module}'" in loaded
    assert "'winoconv.conv'" not in loaded and "'winoconv.pipeline_sim'" not in loaded


def test_exact_mode_loads_on_its_first_call(step_reports):
    loaded = {step: "'winoconv.exact'" in report[1] for step, report in step_reports[1].items()}
    assert loaded == {step: step == "exact" for step in STEPS}


@pytest.mark.parametrize("step", list(STEPS))
def test_analytic_paths_do_not_load_dataclasses_or_inspect(step_reports, step):
    # 13 @dataclass classes made `import winoconv` about 30 ms slower than a bare interpreter
    loaded_at_start, steps = step_reports
    assert set(steps[step][2].split()) <= set(loaded_at_start)


# Every name `from winoconv import ...` takes, one a line: a change is a one-line diff.
PUBLIC_NAMES = [
    "ConvSpec",
    "DesignPoint",
    "EngineConfig",
    "FeatureMap",
    "HardwareConfig",
    "KernelBank",
    "LayerShape",
    "MinimalParams",
    "MultCounter",
    "SimTrace",
    "SweepResult",
    "SweepSpec",
    "TransformOpCounts",
    "TransformSet",
    "Workload",
    "WorkloadLayer",
    "analytical_cycles",
    "count_transform_ops",
    "default_points",
    "engine_config_for",
    "exact_cycles",
    "expected_cycles",
    "generate_transforms",
    "load_workload",
    "pe_count",
    "pipeline_depth",
    "precompute_filter_transforms",
    "price_layers",
    "recommend",
    "run_sweep",
    "simulate_layer",
    "spatial_conv",
    "table2_report",
    "validate_against_analytical",
    "winograd_1d_exact",
    "winograd_2d_tile_exact",
    "winograd_conv",
]


def test_public_names_are_pinned():
    tree = ast.parse(Path(winoconv.__file__).read_text())
    eager = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert sorted(eager + list(winoconv._LAZY)) == PUBLIC_NAMES
    assert all(hasattr(winoconv, name) for name in PUBLIC_NAMES)


def test_lazy_names_are_the_submodules_objects():
    for name, module in winoconv._LAZY.items():
        value = getattr(winoconv, name)
        assert value is getattr(importlib.import_module(f"winoconv.{module}"), name)
        assert vars(winoconv)[name] is value  # stored: __getattr__ runs once per name


def test_lazy_names_import_in_a_fresh_interpreter(tmp_path):
    out = run_fresh("import sys\nfrom winoconv import simulate_layer, winograd_conv\n"
                    "print(simulate_layer.__module__, winograd_conv.__module__, "
                    "'numpy' in sys.modules)\n", tmp_path)
    assert out.split() == ["winoconv.pipeline_sim", "winoconv.conv", "True"]


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'winoconv' has no attribute 'nope'$"):
        winoconv.nope
    assert not hasattr(winoconv, "nope")
    with pytest.raises(ImportError, match=r"^cannot import name 'nope' from 'winoconv'"):
        from winoconv import nope  # noqa: F401
