"""Every config input either loads as written or exits 2 naming its field once.

A sweep over three base configs, ``configs/twoloop.json`` (scalar loops),
a raw-form n = 2 config, and the worked example with its second loop
given as a plant/controller pair: each leaf of the JSON document is
replaced, one at a time, by each value of ``MUTATIONS``, and the mutated
config runs ``raccess rates`` and then ``raccess optimize`` with a small
``max_periods``, in process. Each run must exit 0, 2, 3 or 4 (never 1,
an uncaught error), write at most one ``error:`` line to stderr and
nothing else, no warning included (the suite turns warnings into
errors), and, on exit 2, name the mutated field, or the loop that holds
it (see ``names_field_once``), exactly once.
"""

import dataclasses
import json
import math
import os
import re
import time

import numpy as np
import pytest

from helpers import example_pair
import raccess.cli
from raccess import PlantControllerPair
from raccess.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_PERIODS = 3
CALL_SECONDS = 2.0

MUTATIONS = (
    True,
    "abc",
    "1.0",
    None,
    [],
    {},
    -1,
    0,
    1e308,
    10**399,  # 400 digits
    [[1.0, 2.0, 3.0]],  # a shape no field takes
)


def twoloop():
    with open(os.path.join(ROOT, "configs", "twoloop.json")) as fh:
        raw = json.load(fh)
    raw["optimizer"]["max_periods"] = MAX_PERIODS
    return raw


def matrix_config():
    """Two raw-form n = 2 loops on a mixed channel pair, with Monte Carlo design settings.

    The loose stop rule ends even a run whose ``max_periods`` is mutated
    upwards within a few dozen periods.
    """
    eye = [[1.0, 0.0], [0.0, 1.0]]
    raw = {
        "schema_version": 1,
        "systems": [
            {"a_closed": [[0.5, 0.1], [0.0, 0.4]], "a_open": [[1.1, 0.0], [0.2, 1.0]],
             "noise_cov": [[1.0, 0.2], [0.2, 1.0]], "lyap_matrix": eye, "decay_rate": 0.8},
            {"a_closed": [[0.4, 0.0], [0.1, 0.3]], "a_open": [[1.0, 0.1], [0.0, 0.9]],
             "noise_cov": eye, "lyap_matrix": eye, "decay_rate": 0.85},
        ],
        "channels": [
            {"dist": {"family": "uniform", "low": 0.2, "high": 1.8},
             "curve": {"family": "logistic_log", "midpoint": 0.8, "steepness": 3.0}},
            {"dist": {"family": "exponential", "mean": 1.0},
             "curve": {"family": "exp_saturating", "kappa": 1.5, "gain": 1.0}},
        ],
        "collision": [[0.0, 0.3], [0.4, 0.0]],
        "tx_powers": [1.0, 2.0],
        "requirement_tol": 1e-9,
        "optimizer": {"max_periods": MAX_PERIODS, "expectation_mode": "mc", "mc_samples": 200,
                      "seed": 1, "step_a": 30.0, "window": 5, "slack_tol": 0.05,
                      "dual_change_tol": 1.0},
        "simulation": {"horizon": 1000, "burn_in": 100, "seed": 3},
        "output_dir": "results",
    }
    return json.loads(json.dumps(raw))  # no list shared between fields


PAIR_FIELDS = tuple(f.name for f in dataclasses.fields(PlantControllerPair))


def pair_config():
    """The worked example with ``systems[1]`` as a plant/controller pair, in the worst noise mode.

    A loose dual-change tolerance ends a run whose ``max_periods`` is
    mutated upwards within a few hundred periods.
    """
    raw = twoloop()
    pair = example_pair()
    raw["systems"][1] = {name: getattr(pair, name).tolist() for name in PAIR_FIELDS}
    raw["systems"][1].update(lyap_matrix=np.eye(2).tolist(), decay_rate=0.9, noise_mode="worst")
    raw["optimizer"]["dual_change_tol"] = 1.0
    return raw


BASES = {"twoloop": twoloop, "matrix": matrix_config, "pair": pair_config}


def leaves(value, path=()):
    """The path, as a tuple of keys and indices, of every non-container value in ``value``."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in leaves(v, path + (k,))]
    if isinstance(value, list):
        return [p for k, v in enumerate(value) for p in leaves(v, path + (k,))]
    return [path]


def field(path):
    """A path as a config error names it: ``systems[0].a_closed[1][0]``."""
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else f".{part}" if text else part
    return text


LEAVES = [(name, path) for name, base in BASES.items() for path in leaves(base())]
LEADING_PATH = re.compile(r"[A-Za-z_][\w.\[\]]*")


def names_field_once(message, path):
    """Whether ``message`` starts with the mutated field or one that holds it, named once.

    A message may name the field itself (``tx_powers[1]: ...``), the
    array or object that holds it (``tx_powers: ...``,
    ``channels[0].dist: unknown family ...``) or, for a loop's stacked
    checks, the loop (``systems[0]: a_closed ...``); the field's own
    name then follows in the text. The leading path is not repeated. A
    loop whose requirement is 0, which ``optimize`` rejects, is named as
    ``systems[k]`` alone. So is a loop given as a plant/controller pair
    when its pair field passes on its own but the matrices assembled from
    it fail (``systems[1]: noise_cov entries must be finite``).
    """
    lead = LEADING_PATH.match(message).group()
    full = field(path)
    if not (full == lead or full.startswith(lead + ".") or full.startswith(lead + "[")):
        return False
    if re.search(re.escape(lead) + r"[:.\[]", message[len(lead):]):
        return False
    if path[0] == "systems" and lead == field(path[:2]):
        if message.startswith(f"{lead}: requirement is 0 ") or path[2] in PAIR_FIELDS:
            return True
    own = next(p for p in reversed(path) if isinstance(p, str))
    return own in message


def set_leaf(raw, path, value):
    target = raw
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value


@pytest.fixture(scope="module")
def parser():
    return build_parser()


@pytest.mark.parametrize("base, path", LEAVES, ids=[f"{b}:{field(p)}" for b, p in LEAVES])
def test_mutated_leaf_loads_or_exits_2_naming_it(tmp_path, capsys, monkeypatch, parser, base, path):
    # main builds its argument parser on every call, most of a failing call's time here.
    monkeypatch.setattr(raccess.cli, "build_parser", lambda: parser)
    cfg, out = tmp_path / "cfg.json", str(tmp_path / "out")
    for mutation in MUTATIONS:
        raw = BASES[base]()
        set_leaf(raw, path, mutation)
        cfg.write_text(json.dumps(raw))
        for command in ("rates", "optimize"):
            start = time.perf_counter()
            code = main([command, str(cfg), "--out", out])
            seconds = time.perf_counter() - start
            err = capsys.readouterr().err
            case = (command, field(path), mutation, code, err)
            assert code in (0, 2, 3, 4), case
            assert seconds < CALL_SECONDS, case
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), case
            if code == EXIT_CONFIG:
                assert names_field_once(err[len("error: ") : -1], path), case


def test_sweep_covers_every_leaf():
    assert len(leaves(twoloop())) == 32
    assert len(leaves(matrix_config())) == 65
    assert len(leaves(pair_config())) == 45


RATE = "channels[1].curve: kappa * gain must lie inside (0, inf)"
POWERS = "tx_powers: expected a list of 2 numbers, got shape"
# (leaf path, value) changes the one-leaf sweep cannot make, and the message they exit 2 with.
CHANGES = {
    # kappa * gain underflows to 0 and overflows to inf, each factor in range.
    "rate-underflow": ([(("channels", 1, "curve", k), 1e-200) for k in ("kappa", "gain")], RATE),
    "rate-overflow": ([(("channels", 1, "curve", k), 1e200) for k in ("kappa", "gain")], RATE),
    "powers-column": ([(("tx_powers",), [[1.0], [1.0]])], f"{POWERS} (2, 1)"),
    "powers-row": ([(("tx_powers",), [[1.0, 1.0]])], f"{POWERS} (1, 2)"),
    "powers-nested": ([(("tx_powers",), [[[1.0]], [[1.0]]])], f"{POWERS} (2, 1, 1)"),
}


@pytest.mark.parametrize("mode", ["quadrature", "mc"])
@pytest.mark.parametrize("case", list(CHANGES))
def test_changes_the_sweep_cannot_make_exit_2_naming_their_field(tmp_path, capsys, case, mode):
    changes, message = CHANGES[case]
    raw = twoloop()
    for path, value in changes:
        set_leaf(raw, path, value)
    raw["optimizer"]["expectation_mode"] = mode
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    for command in ("rates", "optimize", "pipeline"):
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (command, err)


def test_certain_collisions_on_the_worked_example(tmp_path, capsys):
    # q = 1: each sensor's transmission kills the other's in every slot.
    raw = twoloop()
    raw["collision"] = [[0.0, 1.0], [1.0, 0.0]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["rates", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert main(["optimize", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_DIVERGED
    assert capsys.readouterr().err == "error: optimizer did not converge within max_periods\n"


def test_simulate_reads_an_infinite_threshold(tmp_path, capsys):
    # A threshold of +inf means never transmit: loop 1 (a_open = 1) runs open.
    raw = twoloop()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    policies = tmp_path / "policies.json"
    policies.write_text(
        '{"schema_version": 1, "policies": [{"kind": "threshold", "threshold": 0.35}, '
        '{"kind": "threshold", "threshold": Infinity}]}'
    )
    out = tmp_path / "out"
    argv = ["simulate", str(cfg), "--policies", str(policies), "--horizon", "2000", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    metrics = np.genfromtxt(out / "metrics.csv", delimiter=",", names=True)
    assert metrics["empirical_tx_rate"][0] > 0.0
    assert metrics["empirical_tx_rate"][1] == 0.0


@pytest.mark.parametrize("part, key", [("dist", "mean"), ("curve", "kappa")])
def test_simulate_draws_near_the_float_maximum_quietly(tmp_path, capsys, part, key):
    # The fades or their curve rate overflow to inf in the slot draws; q there is exact.
    raw = twoloop()
    raw["channels"][0][part][key] = 1e308
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    policies = tmp_path / "policies.json"
    policies.write_text(
        '{"schema_version": 1, "policies": [{"kind": "threshold", "threshold": 0.35}, '
        '{"kind": "threshold", "threshold": 0.5}]}'
    )
    argv = ["simulate", str(cfg), "--policies", str(policies), "--horizon", "2000"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err == ""


# (leaf path, value) that scale a stable loop 0 far from 1.
LARGE_SCALES = {
    "noise-1e24": (("systems", 0, "noise_cov"), 1e24),
    "noise-1e200": (("systems", 0, "noise_cov"), 1e200),
    "noise-1e306": (("systems", 0, "noise_cov"), 1e306),
    "noise-1e307": (("systems", 0, "noise_cov"), 1e307),
    "lyap-1e305": (("systems", 0, "lyap_matrix"), 1e305),
    "lyap-1e306": (("systems", 0, "lyap_matrix"), 1e306),
}


def pipeline_report(raw, out_dir, capsys):
    """``pipeline`` on ``raw`` over 20,000 slots: its report, after checking it ran quietly."""
    raw["optimizer"]["max_periods"] = 5000
    raw["simulation"]["horizon"] = 20000
    out_dir.mkdir()
    cfg = out_dir / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["pipeline", str(cfg), "--out", str(out_dir)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", list(LARGE_SCALES))
def test_pipeline_simulates_a_stable_loop_at_any_scale(tmp_path, capsys, case):
    # The state norm limit grows with the loop's noise, a squared norm or a
    # cost sum that overflows is taken again at a smaller scale; at
    # lyap_matrix = 1e306 and noise_cov >= 1e306 some per-slot values
    # themselves overflow, so the cost is inf.
    path, value = LARGE_SCALES[case]
    want = pipeline_report(twoloop(), tmp_path / "unit", capsys)
    raw = twoloop()
    set_leaf(raw, path, value)
    got = pipeline_report(raw, tmp_path / "scaled", capsys)
    assert got["empirical_cost"][1] == want["empirical_cost"][1]
    ratio, want_ratio = (r["empirical_cost"][0] / r["cost_bounds"][0] for r in (got, want))
    if case in ("lyap-1e306", "noise-1e306", "noise-1e307"):
        assert ratio == math.inf
    else:
        assert ratio == pytest.approx(want_ratio, rel=1e-9)
