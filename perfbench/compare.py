"""Compare two benchmark results of the same workload.

    python3 perfbench/compare.py .perfbench_out/BASE.json .perfbench_out/NEW.json

Prints each metric of both results and the relative change. Refuses (exit
code 2) to compare results whose kernel backends, workloads or trace
modes differ: the compiled and python kernels differ by 40-170x, so such
a comparison says nothing about the change under test.
"""

import json
import sys


class Incomparable(ValueError):
    """The two results were not measured under the same conditions."""


def compare(base, new):
    """Rows of (metric, unit, base value, new value, relative change)."""
    for key in ("kernel_backend", "trace"):
        if base["provenance"][key] != new["provenance"][key]:
            raise Incomparable(
                f"{key} differs: {base['provenance'][key]!r} vs {new['provenance'][key]!r}"
            )
    workload = base["provenance"]["params"]["workload"]
    if workload != new["provenance"]["params"]["workload"]:
        raise Incomparable("the results are of different workloads")
    rows = []
    for name, entry in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        b, n = entry["value"], new["metrics"][name]["value"]
        rows.append((name, entry["unit"], b, n, (n - b) / b if b else None))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    base, new = docs
    try:
        rows = compare(base, new)
    except Incomparable as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for name, unit, b, n, change in rows:
        rel = "n/a" if change is None else f"{change:+.1%}"
        print(f"{name:34s} {b:12.6g} {n:12.6g} {unit:12s} {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
