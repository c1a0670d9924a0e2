"""Traced benchmark runs must match plain ones and account for their time.

``perfbench/run.py --trace 1`` calls ``raccess.cli.main`` with every
boundary in ``perfbench/tracing.py`` wrapped, and counts a repetition as
failed when its outputs differ from an untraced run, when the outputs
fail the workload's checks, or when its spans do not add up to its wall
time. This runs the same three checks on the ``tiny`` size of each
workload, in-process, so such a failure shows in the test suite first.
"""

import contextlib
import gc
import io
import os
import time

import pytest

from helpers import load_perfbench
from raccess.cli import main

# perfbench/run.py's TRACE_WALL_TOL_S.
TRACE_WALL_TOL_S = 2e-3

workloads = load_perfbench("workloads")
tracing = load_perfbench("tracing")


def run(cli, argv, out_dir):
    """(exit code, stdout, seconds, {file name: bytes}) of one in-process call."""
    os.makedirs(out_dir)
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli(argv + ["--out", str(out_dir)])
    elapsed = time.perf_counter() - t0
    files = {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
    return code, buf.getvalue(), elapsed, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_the_plain_run(tmp_path, workload):
    config, argv, _ = workloads.build(workload, 1, str(tmp_path), size="tiny")
    code, stdout, _, files = run(main, argv, tmp_path / "plain")
    assert code == 0
    assert workloads.check(workload, str(tmp_path / "plain"), config) == []

    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run(lambda a: tracer.run(0, main, a), argv, tmp_path / "traced")
    t_code, t_stdout, elapsed, t_files = traced
    assert t_code == 0
    assert t_stdout == stdout
    assert t_files == files
    assert tracing.span_errors(tracer.spans[0], elapsed, TRACE_WALL_TOL_S) == []


# Every workload but certify runs ``raccess pipeline``; certify runs ``raccess rates``.
PIPELINE_WORKLOADS = tuple(w for w in workloads.WORKLOADS if w != "certify")


@pytest.mark.parametrize("workload", PIPELINE_WORKLOADS)
def test_traced_design_loop_has_pricing_and_update_spans(tmp_path, workload):
    # The design loop must call the functions the tracer wraps, or the
    # traced optimizer.pricing_s and optimizer.update_s read 0.
    _, argv, _ = workloads.build(workload, 1, str(tmp_path), size="tiny")
    assert argv[0] == "pipeline"
    tracer = tracing.Tracer()
    with tracer.installed():
        code = run(lambda a: tracer.run(0, main, a), argv, tmp_path / "traced")[0]
    assert code == 0
    names = [span[0] for span in tracer.spans[0]]
    periods = tracer.counts[0]["optimizer.periods"]
    assert periods > 0
    assert names.count("optimizer.pricing") >= periods
    assert "optimizer.update" in names
