"""A/B timing of one perfbench workload: this tree's raccess against a baseline copy.

Separate ``perfbench/run.py`` runs of one side disagree by about 10% on a
shared 2-core host, more than many changes gain. This script runs both
sides in one process instead. It imports the working tree's
``src/raccess`` as ``raccess`` and a baseline copy of the package as
``raccess_base`` (every import inside raccess is relative, so the copy
loads under the second name), builds the workload's config with
``perfbench/workloads.py``, and then alternates the two CLI calls, the
baseline first in even rounds and the change first in odd ones. Each call
is timed as perfbench times it (``run.run_cli``: a fresh output
directory, ``gc.collect()``, then the call alone), and a note on standard
error says when the two sides write different artifacts. It prints each
side's median and quartiles,
the median of the per-round ratios change / baseline, and the number of
rounds in which the change was faster.

With ``--pairs 0`` it times nothing: it runs each side once, compares
their artifacts and stdout (``run.digest``) and exits 1 if they differ.

With ``--setup`` it times start-up instead, which in-process calls cannot
see: each round runs one fresh interpreter per side that imports raccess
and parses the workload's config (``run.SETUP_CODE``), each followed at
once by a reference interpreter that only imports NumPy, and scores the
side as perfbench's ``setup_s`` does, its time over the reference's times
``run.REFERENCE_START_S``. Compilation is part of start-up, so give both
trees the same state: with ``PYTHONDONTWRITEBYTECODE=1`` set and no
``__pycache__`` under either ``raccess`` directory every interpreter
compiles the sources, as in a fresh checkout; a note on standard error
says when only one side has a ``__pycache__``.

From the root of a checkout, against the parent commit:

    mkdir -p /tmp/base && git archive HEAD~1 src/raccess | tar -x -C /tmp/base
    python benchmarks/interleave.py /tmp/base/src --workload wide-mc --pairs 40
    python benchmarks/interleave.py /tmp/base/src --workload certify --seed 2 --pairs 0
    PYTHONDONTWRITEBYTECODE=1 python benchmarks/interleave.py /tmp/base/src --workload twoloop --setup --pairs 21
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (pins BLAS and OpenMP threads before NumPy loads)
import workloads  # noqa: E402

BASE_NAME = "raccess_base"


def load_baseline(src):
    """Import ``src/raccess`` as the package ``raccess_base``."""
    init = os.path.join(src, "raccess", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no raccess package under {src}")
    spec = importlib.util.spec_from_file_location(
        BASE_NAME, init, submodule_search_locations=[os.path.dirname(init)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[BASE_NAME] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{BASE_NAME}.cli").main


def load_tree():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import raccess.cli

    if not os.path.abspath(raccess.cli.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit(f"error: imported raccess from {raccess.cli.__file__}")
    return raccess.cli.main


def timed_interpreter(src, *args):
    """Seconds a fresh interpreter with ``src`` first on its path takes to run ``args``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src), check=True)
    return time.perf_counter() - t0


def setup_times(srcs, config_path, pairs, warmup):
    """Each side's perfbench-style set-up time in every round, the sides alternating first."""
    cached = {name: os.path.isdir(os.path.join(src, "raccess", "__pycache__")) for name, src in srcs.items()}
    if len(set(cached.values())) > 1:
        print("note: only one side has a raccess/__pycache__ to skip compiling", file=sys.stderr)

    def setup_s(src):
        raw = timed_interpreter(src, "-c", run.SETUP_CODE, config_path)
        return raw / timed_interpreter(src, "-c", run.REFERENCE_CODE) * run.REFERENCE_START_S

    for _ in range(warmup):
        for src in srcs.values():
            setup_s(src)
    times = {name: [] for name in srcs}
    for r in range(pairs):
        for name in ("baseline", "change") if r % 2 == 0 else ("change", "baseline"):
            times[name].append(setup_s(srcs[name]))
    return times


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return f"median {med * 1e3:.2f} ms [q1 {q1 * 1e3:.2f}, q3 {q3 * 1e3:.2f}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="directory holding the baseline raccess package")
    parser.add_argument("--workload", default="wide-mc", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=3, help="untimed calls per side first")
    parser.add_argument(
        "--setup", action="store_true", help="time fresh-interpreter start-up, not CLI calls"
    )
    args = parser.parse_args()
    least = 1 if args.setup else 0
    if args.pairs < least:
        parser.error(f"--pairs must be at least {least}")

    if args.setup:
        srcs = {"baseline": os.path.abspath(args.baseline), "change": os.path.join(ROOT, "src")}
        if not os.path.isfile(os.path.join(srcs["baseline"], "raccess", "__init__.py")):
            sys.exit(f"error: no raccess package under {args.baseline}")
        with tempfile.TemporaryDirectory() as work:
            _, argv, _ = workloads.build(args.workload, args.seed, work)
            times = setup_times(srcs, argv[1], args.pairs, args.warmup)
        report(args, times, "start-up")
        return

    sides = {"baseline": load_baseline(os.path.abspath(args.baseline)), "change": load_tree()}
    times = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as work:
        _, argv, _ = workloads.build(args.workload, args.seed, work)
        out = {name: os.path.join(work, name) for name in sides}
        for _ in range(args.warmup if args.pairs else 0):
            for name, cli in sides.items():
                run.run_cli(cli, argv, out[name])
        digests = {}
        for name, cli in sides.items():
            code, stdout, _ = run.run_cli(cli, argv, out[name])
            digests[name] = (code, run.digest(out[name], stdout))
        same = digests["baseline"] == digests["change"]
        if args.pairs == 0:
            verdict = "identical" if same else "different"
            print(f"workload {args.workload}, seed {args.seed}: artifacts and stdout {verdict}")
            sys.exit(0 if same else 1)
        if not same:
            print("note: the two sides write different artifacts", file=sys.stderr)
        for r in range(args.pairs):
            order = ("baseline", "change") if r % 2 == 0 else ("change", "baseline")
            for name in order:
                times[name].append(run.run_cli(sides[name], argv, out[name])[2])
    report(args, times, "CLI call")


def report(args, times, what):
    """Each side's median and quartiles, the median pair ratio and the change's wins."""
    ratios = [c / b for b, c in zip(times["baseline"], times["change"])]
    lower = sum(c < b for b, c in zip(times["baseline"], times["change"]))
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, {what}")
    for name, xs in times.items():
        print(f"{name:9s} {quartiles(xs) if len(xs) > 1 else f'{xs[0] * 1e3:.2f} ms'}")
    print(f"median pair ratio change / baseline {statistics.median(ratios):.3f}")
    print(f"change lower in {lower} of {args.pairs} pairs")


if __name__ == "__main__":
    main()
