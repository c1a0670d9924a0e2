"""Fast self-test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks that each generator is deterministic per seed, that BENCHMARK.json
lists the metrics and workloads the runner reports, that a tiny-size run
of every workload passes its output checks with tracing off and on (the
traced run also requires self and child times to add up to the wall time
of every traced repetition), that the span check accepts a hand-built
consistent span tree and rejects inconsistent ones, that every wrapper is
removed after a traced block, and that ``compare.py`` refuses results from
different kernel backends.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import workloads  # noqa: E402


def check_generators():
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            a = workloads.config_bytes(workloads.make_config(name, 3, size))
            b = workloads.config_bytes(workloads.make_config(name, 3, size))
            assert a == b, f"{name}/{size}: same seed gave different configs"
    assert workloads.make_config("certify", 3) != workloads.make_config("certify", 4)
    reference = os.path.join(ROOT, "configs", "twoloop.json")
    if os.path.exists(reference):
        with open(reference) as fh:
            example = json.load(fh)
        ours = workloads.make_config("twoloop", 0)
        for key in ("systems", "channels", "collision", "tx_powers"):
            assert ours[key] == example[key], f"twoloop {key} differs from {reference}"


def check_tiny_runs():
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "5", "--seconds", "0.2", "--trace", trace, "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            assert proc.returncode == 0, f"{name} trace {trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (
                f"{name} trace {trace}: {proc.stderr}"
            )
            print(f"ok  tiny {name} trace {trace}: {result['attempted']} commands")


def check_metric_lists():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        assert listed == units, f"BENCHMARK.json {key} differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def check_tracer():
    import raccess.cli
    import tracing

    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["optimizer.run", 1.0, 6.0, 0],
        ["channel.expectation", 2.0, 3.0, 1],
        ["channel.expectation", 3.5, 5.0, 1],
        ["simulate.run", 6.5, 9.0, 0],
        ["kernels.recursion", 7.0, 8.5, 4],
    ]
    own = tracing.self_times(spans)
    assert abs(sum(own) - 10.0) < 1e-12 and own == [2.5, 2.5, 1.0, 1.5, 1.0, 1.5]
    metrics = tracing.layer_metrics(spans, {}, 2)
    assert metrics["optimizer.self_s"] == 2.5 and metrics["simulate.self_s"] == 1.0
    assert tracing.span_errors(spans, 10.001, 0.01) == []
    assert tracing.span_errors(spans, 10.5, 0.01), "a call longer than its spans passed"
    assert tracing.span_errors(spans, 9.5, 0.01), "spans longer than the call passed"
    outside = [list(s) for s in spans]
    outside[2][1:3] = [0.5, 1.5]  # starts before its parent
    assert tracing.span_errors(outside, 10.0, 0.01), "a child outside its parent passed"
    overlap = [list(s) for s in spans]
    overlap[3][1] = 2.5  # overlaps its sibling
    assert tracing.span_errors(overlap, 10.0, 0.01), "overlapping siblings passed"

    originals = [getattr(owner, attr) for owner, attr, *_ in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert raccess.cli.run_algorithm1 is not originals[2]
    after = [getattr(owner, attr) for owner, attr, *_ in tracing.BOUNDARIES]
    assert all(a is b for a, b in zip(originals, after)), "a wrapper was left installed"


def check_compare():
    base = {"provenance": {"kernel_backend": "python", "params": {"workload": "twoloop"},
                           "trace": 0},
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    other = json.loads(json.dumps(base))
    other["provenance"]["kernel_backend"] = "compiled"
    try:
        compare.compare(base, other)
    except compare.Incomparable:
        pass
    else:
        raise AssertionError("results from different kernel backends were compared")
    assert compare.compare(base, base)[0][0] == "wall_s"


def main():
    check_generators()
    print("ok  generators are deterministic per seed")
    check_metric_lists()
    print("ok  BENCHMARK.json lists the metrics and workloads run.py reports")
    check_tracer()
    print("ok  span arithmetic and wrapper removal")
    check_compare()
    print("ok  compare refuses mismatched kernel backends")
    check_tiny_runs()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
