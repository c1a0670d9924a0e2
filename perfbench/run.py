"""Benchmark of the raccess CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload twoloop --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload twoloop --seed 1 --seconds 15 --trace 1

``--trace 0`` repeats the workload's one CLI command in-process for
``--seconds`` and reports the end-to-end metrics (wall time median and
tail, set-up time, peak RSS). ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones. Every
repetition's artifacts are hashed and must match the first one, whose
outputs are checked in full; checks run outside the timed region. The last
line of standard output is one JSON object; the full result, with its
provenance, goes to ``.perfbench_out/``. See perfbench/README.md.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# On a small machine a BLAS or OpenMP pool would compete with the measured process.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

# setup_s: fresh interpreters that import raccess and parse the config,
# each paired with one that only imports NumPy (see measure_setup).
SETUP_PAIRS = 21
SETUP_CODE = (
    "import sys, raccess\n"
    "from raccess.config import parse_config\n"
    "parse_config(sys.argv[1])\n"
)
REFERENCE_CODE = "import numpy\n"
# The reference machine is a 2-vCPU Xeon VM whose speed swung by up to 2x
# with load on its shared host. wall_s and setup_s are reported in seconds
# at its typical speed: scaled by a speed probe (see speed_probe) and by a
# reference interpreter (see measure_setup) against these times there.
REFERENCE_START_S = 0.18
PROBE_REF_S = 0.004
# peak_rss_mb: the CLI in a fresh interpreter, which writes its own peak RSS
# (VmHWM, in kB) to the file named by argv[1]. The peak that wait4 or
# getrusage report for a child is no use: on Linux it includes the peak of
# the parent, which the child inherits across fork and exec.
COLD_CODE = (
    "import sys\n"
    "from raccess.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[2:])\n"
    "finally:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
    "    with open(sys.argv[1], 'w') as fh:\n"
    "        fh.write(hwm)\n"
    "sys.exit(code)\n"
)
# wall_s.tail is the highest percentile with at least ten samples beyond it.
TAIL_BEYOND = 10
MIN_TRACED = 3
# Largest amount by which a traced call's self times may fall short of its
# wall time: the redirect of stdout and the root wrapper lie outside them.
TRACE_WALL_TOL_S = 2e-3

END_TO_END_UNITS = {"wall_s": "s", "wall_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "control.requirement_s": "s",
    "control.requirement_calls": "count",
    "control.requirement_useful_ratio": "ratio",
    "channel.expectation_s": "s",
    "channel.expectation_calls": "count",
    "channel.expectation_us_per_call": "us",
    "channel.mc_samples": "count",
    "channel.link_success_s": "s",
    "optimizer.run_s": "s",
    "optimizer.periods": "count",
    "optimizer.period_ms": "ms",
    "optimizer.pricing_s": "s",
    "optimizer.update_s": "s",
    "optimizer.trace_s": "s",
    "optimizer.self_s": "s",
    "simulate.run_s": "s",
    "simulate.self_s": "s",
    "simulate.loop_slots": "count",
    "kernels.recursion_s": "s",
    "kernels.ns_per_slot": "ns",
    "kernels.backend": "is_compiled",
    "serialize.write_s": "s",
    "serialize.bytes": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace_overhead_s": "s",
}


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def import_raccess():
    if not os.path.isfile(os.path.join(SRC, "raccess", "__init__.py")):
        sys.exit(f"error: no raccess sources under {SRC}")
    sys.path.insert(0, SRC)
    import raccess

    if not os.path.abspath(raccess.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported raccess from {raccess.__file__}, not {SRC}")
    return raccess


def digest(out_dir, stdout):
    h = hashlib.sha256(stdout.encode())
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_cli(main, argv, out_dir):
    """One in-process CLI call writing into an emptied ``out_dir``.

    Returns (exit code, stdout, seconds); only the call itself is timed.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    argv = argv + ["--out", out_dir]
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    elapsed = time.perf_counter() - t0
    return code, buf.getvalue(), elapsed


def speed_probe():
    """Seconds taken by a fixed mix of interpreter and NumPy work.

    Timed right before and right after every measured call. On a host
    whose speed drifts by tens of percent over minutes, call time divided
    by the mean of the two probe times stays steady where call time alone
    does not.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += (i * 0.5) ** 0.5
    a = np.arange(20_000.0)
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def timed_interpreter(*args):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=child_env(), check=True)
    return time.perf_counter() - t0


def measure_setup(config_path):
    """Set-up time of fresh interpreters that import raccess and parse the config.

    Interpreter start-up swings with the load on a shared host more than
    a CPU probe in this process can follow. So each set-up interpreter is
    followed at once by a reference interpreter that only imports NumPy,
    and the set-up time is taken relative to it. Returns (median ratio
    times REFERENCE_START_S, plain median set-up time, plain median
    reference time).
    """
    raw, ref = [], []
    for _ in range(SETUP_PAIRS):
        raw.append(timed_interpreter("-c", SETUP_CODE, config_path))
        ref.append(timed_interpreter("-c", REFERENCE_CODE))
    ratio = statistics.median(t / r for t, r in zip(raw, ref))
    return ratio * REFERENCE_START_S, statistics.median(raw), statistics.median(ref)


def cold_run(argv, work):
    """Run the command once in a fresh process; returns (code, digest, peak RSS MB)."""
    out_dir = os.path.join(work, "cold")
    os.makedirs(out_dir)
    hwm_path = os.path.join(work, "cold.hwm")
    proc = subprocess.run(
        [sys.executable, "-c", COLD_CODE, hwm_path, *argv, "--out", out_dir],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    with open(hwm_path) as fh:
        rss_mb = int(fh.read()) / 1024.0
    return proc.returncode, digest(out_dir, proc.stdout), rss_mb


def tail(samples):
    """(value, percentile, count) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * k / (n - 1), n


class Outcome:
    """Attempted and failed command counts with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, code, fails=()):
        self.attempted += 1
        fails = list(fails) + ([f"exit code {code}"] if code != 0 else [])
        if fails:
            self.failed += 1
            self.reasons.extend(fails)


def provenance(raccess, params, args):
    import numpy

    return {
        "params": params,
        "kernel_backend": raccess._kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "pinned_threads": PINNED_THREADS,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(main, argv, out_dir, config_path, work, check, outcome, seconds):
    code, stdout, _ = run_cli(main, argv, out_dir)
    reference = digest(out_dir, stdout)
    outcome.record(code, check(out_dir) if code == 0 else ())
    code, cold_digest, rss_mb = cold_run(argv, work)
    same = cold_digest == reference
    outcome.record(code, () if same else ["fresh-process artifacts differ from in-process ones"])

    # probes[k] and probes[k + 1] bracket call k.
    raw, probes = [], [speed_probe()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(raw) <= TAIL_BEYOND:
        code, stdout, elapsed = run_cli(main, argv, out_dir)
        probes.append(speed_probe())
        raw.append(elapsed)
        same = digest(out_dir, stdout) == reference
        outcome.record(code, () if same else ["artifacts differ between repetitions"])

    samples = [
        t * 2.0 * PROBE_REF_S / (before + after)
        for t, before, after in zip(raw, probes, probes[1:])
    ]
    tail_value, tail_pct, count = tail(samples)
    setup, raw_setup, raw_reference = measure_setup(config_path)
    metrics = {
        "wall_s": statistics.median(samples),
        "wall_s.tail": tail_value,
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "wall_s.samples": count,
        "wall_s.tail_percentile": tail_pct,
        "raw_wall_s": statistics.median(raw),
        "raw_wall_s.tail": tail(raw)[0],
        "raw_setup_s": raw_setup,
        "raw_reference_start_s": raw_reference,
        "probe_s": statistics.median(probes),
    }
    return metrics, notes


def per_layer(main, argv, out_dir, params, check, outcome, seconds, raccess):
    import tracing

    code, stdout, _ = run_cli(main, argv, out_dir)
    reference = digest(out_dir, stdout)
    outcome.record(code, check(out_dir) if code == 0 else ())

    tracer = tracing.Tracer()
    plain, traced = [], {}  # untraced wall times; repetition -> traced wall time
    start = time.perf_counter()
    rep = 0
    while time.perf_counter() - start < seconds or len(traced) < MIN_TRACED:
        if rep % 2 == 0:
            code, stdout, elapsed = run_cli(main, argv, out_dir)
            plain.append(elapsed)
        else:
            with tracer.installed():
                code, stdout, elapsed = run_cli(
                    lambda a: tracer.run(rep, main, a), argv, out_dir
                )
            traced[rep] = elapsed
        fails = [] if digest(out_dir, stdout) == reference else [
            "traced and untraced artifacts differ"
        ]
        if rep in traced:
            errors = tracing.span_errors(tracer.spans[rep], elapsed, TRACE_WALL_TOL_S)
            fails.extend(f"repetition {rep}: {e}" for e in errors)
        outcome.record(code, fails)
        rep += 1

    per_rep = [
        tracing.layer_metrics(tracer.spans[r], tracer.counts[r], params["m"]) for r in traced
    ]
    metrics = {name: statistics.median(d[name] for d in per_rep) for name in per_rep[0]}
    metrics["kernels.backend"] = 1.0 if raccess._kernels.backend_name() == "compiled" else 0.0
    metrics["trace.wall_s"] = statistics.median(traced.values())
    metrics["trace_overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    notes = {"traced_repetitions": len(traced), "untraced_repetitions": len(plain)}
    return metrics, notes, tracer.spans[min(traced)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    raccess = import_raccess()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from raccess.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        config, argv_cli, params = workloads.build(args.workload, args.seed, work, args.size)
        out_dir = os.path.join(work, "out")

        def check(path):
            try:
                return workloads.check(args.workload, path, config)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                return [f"unreadable output: {exc!r}"]

        outcome = Outcome()
        if args.trace:
            metrics, notes, spans = per_layer(
                cli_main, argv_cli, out_dir, params, check, outcome, args.seconds, raccess
            )
            units = PER_LAYER_UNITS
        else:
            metrics, notes = end_to_end(
                cli_main, argv_cli, out_dir, os.path.join(work, "config.json"),
                work, check, outcome, args.seconds,
            )
            spans = None
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, notes=notes, failures=outcome.reasons,
                  provenance=provenance(raccess, params, args))
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT, f"{tag}-spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    for reason in outcome.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    prov = record["provenance"]
    print(f"workload {args.workload} {json.dumps(params, sort_keys=True)}")
    print(
        f"kernel backend {prov['kernel_backend']}, python {prov['python']}, "
        f"numpy {prov['numpy']}, nproc {prov['nproc']}, threads pinned to 1"
    )
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    for name, value in notes.items():
        print(f"{name:34s} {value}")
    print(
        f"{'fail_ratio':34s} {outcome.failed / outcome.attempted:.6g} ratio "
        f"({outcome.failed} of {outcome.attempted} commands)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
