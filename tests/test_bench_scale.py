"""Smoke test of ``benchmarks/bench_scale.py``, which no other test imports.

It calls the optimizer and the simulation the way the benchmark does, so a
change to their signatures fails here rather than in a benchmark run.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERIODS = 3


def load_bench():
    """``benchmarks/bench_scale.py``, imported by path."""
    path = os.path.join(ROOT, "benchmarks", "bench_scale.py")
    spec = importlib.util.spec_from_file_location("bench_scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_bench()


def test_import_leaves_sys_path_alone():
    before = list(sys.path)
    load_bench()
    assert sys.path == before


@pytest.mark.parametrize("mode", ["quadrature", "mc"])
def test_dual_loop_runs_timed_and_split(bench, mode):
    inst = bench.instance(2, bench.MIXED)
    settings = bench.mode_settings(mode, PERIODS)
    assert settings.expectation_mode == mode
    result, wall = bench.timed_run(inst, settings)
    assert (result.periods, len(result.trace)) == (PERIODS, PERIODS)
    assert wall > 0.0
    split = bench.dual_split(inst, settings)
    assert list(split) == [*bench.DUAL_PHASES, "rest"]
    assert all(split[phase] > 0.0 for phase in bench.DUAL_PHASES)


def test_simulation_split_runs(bench):
    (draw, kernel, rest, total), trajectory = bench.simulation_split(
        bench.instance(2, bench.MIXED)
    )
    assert 0.0 < draw and 0.0 < kernel and draw + kernel + rest == pytest.approx(total)
    assert len(trajectory) == 5  # slot, system, v, tx, gamma
