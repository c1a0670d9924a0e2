"""Every config input either loads as written or exits 2 naming its field once.

A sweep over two base configs, ``configs/twoloop.json`` (scalar loops)
and a raw-form n = 2 config: each leaf of the JSON document is replaced,
one at a time, by each value of ``MUTATIONS``, and the mutated config
runs ``raccess rates`` and then ``raccess optimize`` with a small
``max_periods``, in process. Each run must exit 0, 2, 3 or 4 (never 1,
an uncaught error), write at most one ``error:`` line to stderr and
nothing else, and, on exit 2, name the mutated field exactly once.
"""

import json
import os
import re
import time

import numpy as np
import pytest

import raccess.cli
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


BASES = {"twoloop": twoloop, "matrix": matrix_config}


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
    ``loop k``.
    """
    if path[0] == "systems" and message.startswith(f"loop {path[1]}: requirement is 0 "):
        return True
    lead = LEADING_PATH.match(message).group()
    full = field(path)
    if not (full == lead or full.startswith(lead + ".") or full.startswith(lead + "[")):
        return False
    if re.search(re.escape(lead) + r"[:.\[]", message[len(lead):]):
        return False
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
