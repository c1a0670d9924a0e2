"""Spans at raccess module boundaries, recorded from outside the package.

``Tracer.installed()`` replaces each public function at the place it is
looked up (``from .x import y`` binds a second name in the importing
module, so that binding is the one patched) with a wrapper that records a
span: name, start, end and the index of the enclosing span. A boundary
without a span name only feeds its counter. Spans stay in memory; the
runner writes them out when it ends. Every wrapper is removed again when
the ``with`` block exits.
"""

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

import raccess._kernels
import raccess.channel
import raccess.cli
import raccess.optimizer

ROOT_SPAN = "cli.main"


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (owner, attribute, span name, counter name, counter function)
BOUNDARIES = (
    (raccess.cli, "parse_config", "config.parse", None, None),
    (raccess.cli, "compute_success_requirement", "control.requirement", None, None),
    (raccess.cli, "run_algorithm1", "optimizer.run", "optimizer.periods",
     lambda a, k, r: r.periods),
    (raccess.optimizer, "primal_policies", "optimizer.pricing", None, None),
    (raccess.optimizer, "beta_update", "optimizer.update", None, None),
    (raccess.optimizer, "subgradient", "optimizer.update", None, None),
    (raccess.optimizer, "dual_step", "optimizer.update", None, None),
    (raccess.optimizer.IterationTrace, "append", "optimizer.trace", None, None),
    (raccess.optimizer, "expected_policy_rate", "channel.expectation", None, None),
    (raccess.optimizer, "expected_policy_success", "channel.expectation", None, None),
    (raccess.channel, "expected_policy_rate", "channel.expectation", None, None),
    (raccess.channel, "expected_policy_success", "channel.expectation", None, None),
    # Fades actually drawn: expectation calls that return early draw none.
    (raccess.channel, "sample_channel", None, "channel.mc_samples",
     lambda a, k, r: np.size(r)),
    (raccess.cli, "link_success_probability", "channel.link_success", None, None),
    (raccess.cli, "run_simulation", "simulate.run", None, None),
    (raccess._kernels, "state_recursion", "kernels.recursion", "simulate.loop_slots",
     lambda a, k, r: len(a[2])),
    (raccess.cli, "write_csv", "serialize.write", "serialize.bytes", _written_bytes),
    (raccess.cli, "write_json", "serialize.write", "serialize.bytes", _written_bytes),
    (raccess.optimizer, "write_csv", "serialize.write", "serialize.bytes", _written_bytes),
)


class Tracer:
    """In-memory spans and counters, one list and one dict per repetition."""

    def __init__(self):
        self.spans = {}  # repetition -> [[name, start, end, parent index], ...]
        self.counts = {}  # repetition -> {counter name: total}
        self._current = None
        self._tally = None
        self._stack = []

    def _wrap(self, func, name, counter, count_fn):
        if name is None:

            def counter_only(*args, **kwargs):
                result = func(*args, **kwargs)
                self._tally[counter] += count_fn(args, kwargs, result)
                return result

            return counter_only

        def wrapper(*args, **kwargs):
            spans, stack = self._current, self._stack
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                self._tally[counter] += count_fn(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counter, count_fn in BOUNDARIES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter, count_fn))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run(self, rep, func, *args):
        """Call ``func`` under the root span of repetition ``rep``."""
        self._current = self.spans[rep] = []
        self._tally = self.counts[rep] = defaultdict(int)
        return self._wrap(func, ROOT_SPAN, None, None)(*args)


def self_times(spans):
    """Duration minus the time covered by direct children, per span.

    Spans of one repetition nest strictly (one thread), so the self times
    add up to the root span's duration.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_errors(spans, wall, tol):
    """Ways in which one repetition's spans fail to account for its wall time.

    ``wall`` is the call's wall time, measured by the caller around the
    root span. Every span must lie inside its parent and after its
    previous sibling, and the self times must add up to ``wall``, short
    of it by at most ``tol`` seconds (the root span cannot be longer).
    """
    errors = []
    sibling_end = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {idx} ({name}) has no valid end")
            continue
        if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            errors.append(f"span {idx} ({name}) lies outside its parent {parent}")
        if start < sibling_end.get(parent, start):
            errors.append(f"span {idx} ({name}) overlaps its previous sibling")
        sibling_end[parent] = end
    if errors:
        return errors
    total = sum(self_times(spans))
    if not wall - tol <= total <= wall + 1e-9:
        errors.append(f"self times add up to {total:g} s, the call took {wall:g} s")
    return errors


def layer_metrics(spans, counts, m):
    """Per-layer metrics of one traced repetition of a command on m loops."""
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        total[name] += end - start
        self_total[name] += own
        calls[name] += 1
    periods = counts.get("optimizer.periods", 0)
    slots = counts.get("simulate.loop_slots", 0)
    exp_calls = calls["channel.expectation"]
    req_calls = calls["control.requirement"]
    return {
        "config.parse_s": total["config.parse"],
        "control.requirement_s": total["control.requirement"],
        "control.requirement_calls": req_calls,
        "control.requirement_useful_ratio": m / req_calls if req_calls else 0.0,
        "channel.expectation_s": total["channel.expectation"],
        "channel.expectation_calls": exp_calls,
        "channel.expectation_us_per_call":
            1e6 * total["channel.expectation"] / exp_calls if exp_calls else 0.0,
        "channel.mc_samples": counts.get("channel.mc_samples", 0),
        "channel.link_success_s": total["channel.link_success"],
        "optimizer.run_s": total["optimizer.run"],
        "optimizer.periods": periods,
        "optimizer.period_ms": 1e3 * total["optimizer.run"] / periods if periods else 0.0,
        "optimizer.pricing_s": total["optimizer.pricing"],
        "optimizer.update_s": total["optimizer.update"],
        "optimizer.trace_s": total["optimizer.trace"],
        "optimizer.self_s": self_total["optimizer.run"],
        "simulate.run_s": total["simulate.run"],
        "simulate.self_s": self_total["simulate.run"],
        "simulate.loop_slots": slots,
        "kernels.recursion_s": total["kernels.recursion"],
        "kernels.ns_per_slot": 1e9 * total["kernels.recursion"] / slots if slots else 0.0,
        "serialize.write_s": total["serialize.write"],
        "serialize.bytes": counts.get("serialize.bytes", 0),
        "cli.self_s": self_total[ROOT_SPAN],
    }
