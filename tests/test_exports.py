"""Every name a module lists in __all__ exists, so `from zrlab.<module> import *`
cannot break on a deleted function whose entry was left behind; the
benchmark harness's names and calls into zrlab still resolve and run; and
src/ stays within its line budget."""

import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import zrlab

MODULES = ["zrlab"] + [f"zrlab.{m.name}" for m in pkgutil.iter_modules(zrlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


# Every zrlab name the benchmark harness (bench/) looks up: its tracer wraps
# module and class attributes by name and skips an absent one, and its
# samples and kernel pass import the rest, so a rename here would silently
# zero a layer's metrics or fail every sample.
BENCH_NAMES = {
    "zrlab.experiments": ["ThreadPoolExecutor", "evolve", "conserved_quantities"],
    "zrlab.evolution": ["linear_halfstep", "nonlinear_step", "strang_step", "StepperConfig",
                        "evolve"],
    "zrlab.closed_forms": ["hat_sobolev_norm", "normalize_hats", "l_hat_norm",
                           "first_order_psi1", "synthesize_hat_field"],
    "zrlab.cli": ["main", "run_experiment", "parse_config", "apply_overrides",
                  "write_record_csv", "write_fit_file", "write_manifest"],
    "zrlab.config": ["parse_config", "apply_overrides"],
    "zrlab.grid": ["SpectralGrid.forward", "SpectralGrid.inverse"],
    "zrlab.model": ["FieldState", "coefficients_from_params", "unit_physical_params",
                    "conserved_quantities"],
}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in BENCH_NAMES.items()
                                          for name in names], ids=str)
def test_bench_names_resolve(module, name):
    owner = importlib.import_module(module)
    for attr in name.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_bench_kernel_pass_runs(monkeypatch):
    """The benchmark's kernel pass calls the stepper's sub-steps, `evolve` and
    the observer with their current signatures: one pass at n = 64 returns a
    positive, finite reading for every metric."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    metrics = importlib.import_module("kernels").kernel_pass((64,))
    assert len(metrics) == 9
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_src_within_line_budget():
    """src/zrlab/*.py holds at most 2700 lines, counted as `wc -l` counts them
    (newline characters)."""
    src = Path(__file__).resolve().parents[1] / "src" / "zrlab"
    count = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    assert count <= 2700, f"src/zrlab/*.py has {count} lines, over the 2700 budget"
