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

From the root of a checkout, against the parent commit:

    mkdir -p /tmp/base && git archive HEAD~1 src/raccess | tar -x -C /tmp/base
    python benchmarks/interleave.py /tmp/base/src --workload wide-mc --pairs 40
    python benchmarks/interleave.py /tmp/base/src --workload certify --seed 2 --pairs 0
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile

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
    args = parser.parse_args()
    if args.pairs < 0:
        parser.error("--pairs must be at least 0")

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

    ratios = [c / b for b, c in zip(times["baseline"], times["change"])]
    lower = sum(c < b for b, c in zip(times["baseline"], times["change"]))
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    for name, xs in times.items():
        print(f"{name:9s} {quartiles(xs) if len(xs) > 1 else f'{xs[0] * 1e3:.2f} ms'}")
    print(f"median pair ratio change / baseline {statistics.median(ratios):.3f}")
    print(f"change lower in {lower} of {args.pairs} pairs")


if __name__ == "__main__":
    main()
