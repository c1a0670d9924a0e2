"""How the dual loop's and the simulation's costs grow with the number of loops m.

For m in {2, 8, 32, 128} scalar loops, alternating (a_open, a_closed) =
(1.1, 0.5) and (1.0, 0.4), on exponential fades (mean 1, saturating
curve) with collision probability q = 0.3/m off the diagonal, each entry
records:

- ms per dual period over a fixed 100 periods (``dual_change_tol = 0``,
  so the stop rule cannot fire), in quadrature and in Monte Carlo
  (10k fades per sensor and period, seed 0);
- the same runs split by phase (``dual_split``), in a separate pass so
  that the figures above stay unwrapped: ms per period in pricing
  (``primal_policies``), update (``beta_update``, ``subgradient`` and
  ``dual_step``), measurement (``_measure``), the trace
  (``IterationTrace.append``) and the rest of the period, each phase timed
  by wrapping the name the loop calls. The wrappers' own cost lands in
  the phases, so compare the phases with each other rather than their
  sum with the unwrapped period. Runs recorded before ``step-functions``
  have no split;
- the trace's bytes per period: the memory freed by dropping the trace
  of a 100-period quadrature run, as counted by ``tracemalloc``. The
  trace holds one row array of 3 + 5m floats per period, plus the
  array's header and the list's pointer; runs recorded before
  ``list-trace`` held the rows in one array that started at 64 rows and
  doubled when full (128 rows for 100 periods), and runs recorded before
  ``ring-duals`` also held each period's nu and beta, O(m^2);
- the peak RSS of the process after the dual-loop runs;
- a 20k-slot ``run_simulation`` of fade-threshold policies at 0.1 with
  ``thin = 10``, split into the outcome draw (``_draw_gamma``), the
  state recursion (``_kernels.state_recursion``) and the rest: the
  Gaussian noise draw, the reduction to metrics and the trajectory
  record. Then the time to write that record as ``trajectory.csv``, and
  the peak RSS after the simulation.

The n = 4 grid repeats the simulation split for each m on loops of state
dimension 4: ``a = s Q`` for the same (a_open, a_closed) scalars s and
one fixed orthogonal Q, with P = W = I, so every requirement, and with
it the design, equals the scalar loop's, while the kernel runs 4 x 4
products. Its entries carry ``n: 4`` and the simulation only; they run
in the same process as the scalar entry of that m, after it, so their
peak RSS is the larger of the two.

Every timing is repeated 5 times and stored as its median and quartiles,
``{"median", "q1", "q3"}``. Runs recorded before ``per-cell-writer`` hold
one timing per field instead.

The host's speed drifts by tens of percent over minutes, so each process
also times a fixed mix of interpreter and NumPy work (``speed_probe``,
the same mix as perfbench's): ``PROBES`` probes when it starts, one
before every timed repeat and ``PROBES`` when it ends. Their median is
its entries' ``reference_s``, and every timing also carries ``x_ref``,
its median as a multiple of that reference (the long entry:
``wall_x_ref``). Runs recorded before ``fill-draws`` have no reference.

The ``long`` entries run the default stop rule (at most 5,000 periods)
in quadrature, each once and in a process of its own, and record the
periods, wall time and peak RSS: on 64 identical (1.0, 0.4) loops and
on 256 mixed loops, neither of which converges. Runs recorded before
``ring-duals`` hold the m = 64 entry alone, not a list.

The ``rates`` entries time the control layer, what ``raccess rates``
does before it writes: ``parse_config`` (``parse_s``, which builds and
checks every loop) and the delivery requirements (``requirements_s``,
``cli._requirements``), and their sum, ``RATES_REPEATS`` times after one
untimed call. The config is perfbench's ``certify`` config at seed 1
with m in {64, 256} random loops whose state dimension cycles through
2, 3, 4. Runs recorded before ``8dc0194-rates-parent`` have none.

The ``logistic`` entry times the quadrature design on the one curve
without a closed-form tail mean: 300 periods (``dual_change_tol = 0``)
of the worked example, the (1.1, 0.5) and (1.0, 0.4) loops with
collision probability 0.5, with both curves ``logistic_log`` (0.8, 3) on
exponential fades of mean 1 (``quadrature_s``, ``REPEATS`` runs); and
the µs per ``LogisticLogCurve.tail_mean`` call on exponential (mean 1)
and uniform (0.2, 1.8) fades, averaged over 200 thresholds from 0 to 2
(``exponential_tail_mean_us_per_call``,
``uniform_tail_mean_us_per_call``). Runs recorded before
``d8e2dd8-simpson`` have none.

Each m runs in a process of its own, so its scalar entry's peak RSS is
its own; so do the long, rates and logistic entries.
From the root of a checkout:

    PYTHONPATH=src python benchmarks/bench_scale.py --label after

adds (or replaces) the run under that label in ``BENCH_scale.json``,
so one file keeps the runs of successive changes side by side.
"""

import argparse
import contextlib
import dataclasses
import gc
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import raccess._kernels
import raccess.cli
import raccess.optimizer
import raccess.simulate
from raccess import (
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    LogisticLogCurve,
    MonteCarlo,
    OptimizerSettings,
    ProblemInstance,
    SaturatingExpCurve,
    SimulationSettings,
    StopRule,
    SwitchedSystem,
    UniformFading,
    compute_success_requirement,
    run_algorithm1,
    run_simulation,
    threshold_policy,
)
from raccess.config import parse_config
from raccess.serialize import write_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    """perfbench's config generators (NumPy only), imported by path."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()

SIZES = (2, 8, 32, 128)
PERIODS = 100
SAMPLES = 10_000
REPEATS = 5
SLOTS = 20_000
THIN = 10
GRID_N = 4
MIXED = ((1.1, 0.5), (1.0, 0.4))
# The long runs' loops, by m.
LONG_LOOPS = {64: ((1.0, 0.4),), 256: MIXED}
PROBES = 11
RATES_SIZES = (64, 256)
RATES_REPEATS = 21
RATES_SEED = 1
LOGISTIC = LogisticLogCurve(midpoint=0.8, steepness=3.0)
LOGISTIC_PERIODS = 300
TAIL_FADES = {"exponential": ExponentialFading(mean=1.0), "uniform": UniformFading(0.2, 1.8)}
TAIL_THRESHOLDS = np.linspace(0.0, 2.0, 200).tolist()


def instance(m, loops, n=1):
    """m loops cycling through the (a_open, a_closed) scalars of ``loops``.

    For n > 1 each mode is the scalar times one fixed orthogonal n x n
    matrix, with identity noise and Lyapunov matrices, so a'Pa = s^2 I and
    the requirement equals the scalar loop's.
    """
    rot, eye = 1.0, 1.0
    if n > 1:
        rot = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
        eye = np.eye(n)
    systems = tuple(
        SwitchedSystem(
            a_closed=a_closed * rot, a_open=a_open * rot, noise_cov=eye, lyap_matrix=eye,
            decay_rate=0.8,
        )
        for a_open, a_closed in (loops[i % len(loops)] for i in range(m))
    )
    channel = FadingChannel(
        dist=ExponentialFading(mean=1.0), curve=SaturatingExpCurve(kappa=1.5, gain=1.0)
    )
    q = np.full((m, m), 0.3 / m)
    np.fill_diagonal(q, 0.0)
    return ProblemInstance(
        systems=systems,
        channels=(channel,) * m,
        collision=CollisionMatrix(q=q),
        tx_powers=np.ones(m),
        success_targets=[compute_success_requirement(s) for s in systems],
    )


def mode_settings(mode, periods):
    """``periods`` dual periods that cannot stop early, in ``mode`` ("quadrature" or "mc")."""
    return OptimizerSettings(
        stop=StopRule(max_periods=periods, dual_change_tol=0.0),
        expectation_mode=mode,
        mc=MonteCarlo(samples=SAMPLES, seed=0),
    )


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(inst, settings):
    start = time.perf_counter()
    result = run_algorithm1(inst, settings)
    return result, time.perf_counter() - start


def speed_probe():
    """Seconds taken by a fixed mix of interpreter and NumPy work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += (i * 0.5) ** 0.5
    a = np.arange(20_000.0)
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def spread(samples):
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def add_reference(entries, probes):
    """Probe ``PROBES`` more times; store the median as ``reference_s`` and each ``x_ref``."""
    probes += [speed_probe() for _ in range(PROBES)]
    ref = float(np.median(probes))
    for entry in entries:
        entry["reference_s"] = ref
        for block in (entry, entry.get("simulation", {}), entry.get("dual_split", {})):
            for key, timing in block.items():
                if isinstance(timing, dict) and "median" in timing:
                    ms, us = key.endswith("_ms_per_period"), key.endswith("_us_per_call")
                    unit = 1e-3 if ms else 1e-6 if us else 1.0
                    timing["x_ref"] = timing["median"] * unit / ref
    return entries


@contextlib.contextmanager
def stopwatch(module, name):
    """Swap in a timed ``module.name``; yields a one-item list of its seconds."""
    inner = getattr(module, name)
    seconds = [0.0]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            seconds[0] += time.perf_counter() - start

    setattr(module, name, timed)
    try:
        yield seconds
    finally:
        setattr(module, name, inner)


# The dual period's phases and the names the loop calls for each.
DUAL_PHASES = {
    "pricing": ((raccess.optimizer, "primal_policies"),),
    "update": (
        (raccess.optimizer, "beta_update"),
        (raccess.optimizer, "subgradient"),
        (raccess.optimizer, "dual_step"),
    ),
    "measure": ((raccess.optimizer, "_measure"),),
    "trace": ((raccess.optimizer.IterationTrace, "append"),),
}


def dual_split(inst, settings):
    """One run with every phase timed: ms per period by phase, and the rest."""
    with contextlib.ExitStack() as stack:
        watches = {
            phase: [stack.enter_context(stopwatch(owner, name)) for owner, name in names]
            for phase, names in DUAL_PHASES.items()
        }
        result, wall = timed_run(inst, settings)
    ms = {phase: 1e3 * sum(w[0] for w in ws) / result.periods for phase, ws in watches.items()}
    ms["rest"] = 1e3 * wall / result.periods - sum(ms.values())
    return ms


def simulation_split(inst):
    """One timed 20k-slot run: draw, kernel, rest and total seconds, and the record."""
    policies = (threshold_policy(0.1),) * inst.m
    settings = SimulationSettings(horizon=SLOTS, seed=0, thin=THIN)
    with stopwatch(raccess.simulate, "_draw_gamma") as draw, stopwatch(
        raccess._kernels, "state_recursion"
    ) as kernel:
        start = time.perf_counter()
        metrics = run_simulation(inst, policies, settings)
        total = time.perf_counter() - start
    rest = total - draw[0] - kernel[0]
    return [draw[0], kernel[0], rest, total], metrics.trajectory


def simulation_entry(inst, probes):
    """The simulation split and the ``trajectory.csv`` write, REPEATS times."""
    names = (
        "outcome_draw_s",
        "kernel_s",
        "reduction_and_record_s",
        "total_s",
        "trajectory_write_s",
    )
    samples = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(REPEATS):
            probes.append(speed_probe())
            split, trajectory = simulation_split(inst)
            gc.collect()
            start = time.perf_counter()
            write_csv(
                os.path.join(tmp, "trajectory.csv"),
                ["slot", "system", "v", "tx", "gamma"],
                trajectory,
            )
            split.append(time.perf_counter() - start)
            del trajectory
            for name, seconds in zip(names, split):
                samples[name].append(seconds)
    entry = {"slots": SLOTS, "thin": THIN, "threshold": 0.1}
    entry.update({name: spread(v) for name, v in samples.items()})
    entry["peak_rss_mb"] = peak_rss_mb()
    return entry


def scaling_entries(m):
    """The scalar entry of m loops, then the simulation-only n = 4 entry."""
    probes = [speed_probe() for _ in range(PROBES)]
    inst = instance(m, MIXED)
    entry = {"m": m, "n": 1, "periods": PERIODS, "repeats": REPEATS}
    modes = {name: mode_settings(name, PERIODS) for name in ("quadrature", "mc")}
    for name, settings in modes.items():
        per_period = []
        for _ in range(REPEATS):
            probes.append(speed_probe())
            result, wall = timed_run(inst, settings)
            per_period.append(1e3 * wall / result.periods)
        entry[f"{name}_ms_per_period"] = spread(per_period)
    entry["dual_split"] = {}
    for name, settings in modes.items():
        splits = []
        for _ in range(REPEATS):
            probes.append(speed_probe())
            splits.append(dual_split(inst, settings))
        for phase in splits[0]:
            samples = [split[phase] for split in splits]
            entry["dual_split"][f"{name}_{phase}_ms_per_period"] = spread(samples)

    tracemalloc.start()
    trace = timed_run(inst, modes["quadrature"])[0].trace
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0]
    del trace
    gc.collect()
    entry["trace_bytes_per_period"] = (kept - tracemalloc.get_traced_memory()[0]) / PERIODS
    tracemalloc.stop()
    entry["peak_rss_mb"] = peak_rss_mb()
    entry["simulation"] = simulation_entry(inst, probes)
    grid = {"m": m, "n": GRID_N, "repeats": REPEATS}
    grid["simulation"] = simulation_entry(instance(m, MIXED, n=GRID_N), probes)
    return add_reference([entry, grid], probes)


def long_entry(m):
    probes = [speed_probe() for _ in range(PROBES)]
    loops = LONG_LOOPS[m]
    result, wall = timed_run(instance(m, loops), OptimizerSettings())
    entry = {
        "m": m,
        "n": 1,
        "loops": f"identical {loops[0]}" if len(loops) == 1 else "mixed",
        "periods": result.periods,
        "converged": result.converged,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    add_reference([entry], probes)
    entry["wall_x_ref"] = wall / entry["reference_s"]
    return entry


def rates_entry(m):
    """``parse_config`` and the requirements of the m-loop certify config, timed."""
    probes = [speed_probe() for _ in range(PROBES)]
    names = ("parse_s", "requirements_s", "total_s")
    samples = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(workloads.config_bytes(workloads.certify_config(RATES_SEED, m)))
        raccess.cli._requirements(parse_config(path))
        for _ in range(RATES_REPEATS):
            probes.append(speed_probe())
            gc.collect()
            start = time.perf_counter()
            cfg = parse_config(path)
            parsed = time.perf_counter()
            raccess.cli._requirements(cfg)
            done = time.perf_counter()
            for name, seconds in zip(names, (parsed - start, done - parsed, done - start)):
                samples[name].append(seconds)
    entry = {"m": m, "n": [2, 3, 4], "config": f"certify, seed {RATES_SEED}"}
    entry["repeats"] = RATES_REPEATS
    entry.update({name: spread(v) for name, v in samples.items()})
    entry["peak_rss_mb"] = peak_rss_mb()
    return add_reference([entry], probes)


def logistic_entry():
    """The worked example's quadrature design on logistic_log curves, and one tail mean, timed."""
    probes = [speed_probe() for _ in range(PROBES)]
    channel = FadingChannel(dist=TAIL_FADES["exponential"], curve=LOGISTIC)
    inst = dataclasses.replace(
        instance(2, MIXED),
        channels=(channel, channel),
        collision=CollisionMatrix(q=np.array([[0.0, 0.5], [0.5, 0.0]])),
    )
    settings = mode_settings("quadrature", LOGISTIC_PERIODS)
    walls = []
    for _ in range(REPEATS):
        probes.append(speed_probe())
        result, wall = timed_run(inst, settings)
        walls.append(wall)
    entry = {"m": 2, "curve": "logistic_log (0.8, 3)", "periods": result.periods}
    entry["repeats"] = REPEATS
    entry["quadrature_s"] = spread(walls)
    for name, dist in TAIL_FADES.items():
        per_call = []
        for _ in range(REPEATS):
            probes.append(speed_probe())
            start = time.perf_counter()
            for tau in TAIL_THRESHOLDS:
                LOGISTIC.tail_mean(dist, tau)
            per_call.append(1e6 * (time.perf_counter() - start) / len(TAIL_THRESHOLDS))
        entry[f"{name}_tail_mean_us_per_call"] = spread(per_call)
    entry["peak_rss_mb"] = peak_rss_mb()
    return add_reference([entry], probes)


def run_child(extra):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *extra],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="latest", help="name of this run in the output file")
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument("--m", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--long", type=int, choices=tuple(LONG_LOOPS), help=argparse.SUPPRESS)
    parser.add_argument("--rates", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--logistic", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.logistic:
        print(json.dumps(logistic_entry()))
        return
    if args.rates is not None:
        print(json.dumps(rates_entry(args.rates)))
        return
    if args.long is not None:
        print(json.dumps(long_entry(args.long)))
        return
    if args.m is not None:
        print(json.dumps(scaling_entries(args.m)))
        return

    scaling = []
    for m in SIZES:
        scaling += run_child(["--m", str(m)])
        print(json.dumps(scaling[-2:]), file=sys.stderr)
    long = []
    for m in LONG_LOOPS:
        long.append(run_child(["--long", str(m)]))
        print(json.dumps(long[-1]), file=sys.stderr)
    rates = []
    for m in RATES_SIZES:
        rates += run_child(["--rates", str(m)])
        print(json.dumps(rates[-1]), file=sys.stderr)
    logistic = run_child(["--logistic"])
    print(json.dumps(logistic), file=sys.stderr)

    doc = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {
        "machine": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "scaling": scaling,
        "long": long,
        "rates": rates,
        "logistic": logistic,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
