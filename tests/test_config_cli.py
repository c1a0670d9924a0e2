import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    LOOP_BREAKS,
    break_loop,
    loop_check_system,
    loop_fields,
    loop_write_csv,
    random_admissible_system,
)
import raccess.cli
import raccess.config
import raccess.serialize
from raccess.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNSTABLE,
    build_parser,
    load_policies,
    main,
)
from raccess.channel import MonteCarlo
from raccess.control import InfeasibleContractError
from raccess.config import (
    _CURVES,
    _FADES,
    ConfigError,
    OptimizerSettings,
    SimulationSettings,
    parse_config,
)
from raccess.serialize import fmt, write_csv

REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "twoloop.json")


def base_config():
    return {
        "schema_version": 1,
        "systems": [
            {"a_closed": 0.5, "a_open": 1.1, "noise_cov": 1.0, "lyap_matrix": 1.0, "decay_rate": 0.8},
            {"a_closed": 0.4, "a_open": 1.0, "noise_cov": 1.0, "lyap_matrix": 1.0, "decay_rate": 0.8},
        ],
        "channels": [
            {
                "dist": {"family": "exponential", "mean": 1.0},
                "curve": {"family": "exp_saturating", "kappa": 1.5, "gain": 1.0},
            },
            {
                "dist": {"family": "exponential", "mean": 1.0},
                "curve": {"family": "exp_saturating", "kappa": 1.5, "gain": 1.0},
            },
        ],
        "collision": [[0.0, 0.5], [0.5, 0.0]],
        "tx_powers": [1.0, 1.0],
        "optimizer": {"max_periods": 5000, "seed": 0},
        "simulation": {"horizon": 20000, "seed": 7},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_reference_file_parses(self):
        cfg = parse_config(REFERENCE_CONFIG)
        assert cfg.m == 2
        assert cfg.systems[0].a_open[0, 0] == 1.1
        assert cfg.optimizer.stop.max_periods == 5000
        assert cfg.optimizer.schedule.a == 30.0
        assert cfg.optimizer.schedule.b == 20.0
        assert cfg.simulation.horizon == 200_000
        assert cfg.simulation.seed == 7
        assert cfg.output_dir == "results"

    def test_absent_sections_take_the_types_defaults(self, tmp_path):
        raw = base_config()
        del raw["optimizer"], raw["simulation"]
        cfg = parse_config(write_config(tmp_path, raw))
        assert cfg.optimizer == OptimizerSettings()
        assert cfg.simulation == SimulationSettings()
        assert cfg.optimizer.mc == MonteCarlo()

    def test_explicit_step_constants_override_the_defaults(self, tmp_path):
        raw = base_config()
        raw["optimizer"]["step_a"] = 2.0
        raw["optimizer"]["step_b"] = 15.0
        cfg = parse_config(write_config(tmp_path, raw))
        assert cfg.optimizer.schedule.a == 2.0
        assert cfg.optimizer.schedule.b == 15.0

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config("/nonexistent/path.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(str(path))

    def test_unknown_top_level_key(self, tmp_path):
        raw = base_config()
        raw["simulaton"] = {}
        with pytest.raises(ConfigError, match="simulaton"):
            parse_config(write_config(tmp_path, raw))

    def test_unknown_optimizer_key(self, tmp_path):
        raw = base_config()
        raw["optimizer"]["stepsize"] = 0.1
        with pytest.raises(ConfigError, match="stepsize"):
            parse_config(write_config(tmp_path, raw))

    def test_wrong_schema_version(self, tmp_path):
        raw = base_config()
        raw["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(write_config(tmp_path, raw))

    def test_missing_required_field_names_its_path(self, tmp_path):
        raw = base_config()
        del raw["systems"][1]["a_open"]
        with pytest.raises(ConfigError, match=r"systems\[1\]"):
            parse_config(write_config(tmp_path, raw))

    def test_bad_decay_rate_names_its_path(self, tmp_path):
        raw = base_config()
        raw["systems"][0]["decay_rate"] = 1.2
        with pytest.raises(ConfigError, match=r"systems\[0\]"):
            parse_config(write_config(tmp_path, raw))

    def test_unknown_curve_family_names_the_channel(self, tmp_path):
        raw = base_config()
        raw["channels"][1]["curve"] = {"family": "step"}
        with pytest.raises(ConfigError, match=r"channels\[1\]"):
            parse_config(write_config(tmp_path, raw))

    def test_collision_required_for_multiple_loops(self, tmp_path):
        raw = base_config()
        del raw["collision"]
        with pytest.raises(ConfigError, match="collision"):
            parse_config(write_config(tmp_path, raw))

    def test_collision_optional_for_one_loop(self, tmp_path):
        raw = base_config()
        raw["systems"] = raw["systems"][:1]
        raw["channels"] = raw["channels"][:1]
        raw["tx_powers"] = [1.0]
        del raw["collision"]
        cfg = parse_config(write_config(tmp_path, raw))
        assert cfg.collision.m == 1
        assert np.all(cfg.collision.q == 0.0)

    def test_collision_size_must_match(self, tmp_path):
        raw = base_config()
        raw["collision"] = [[0.0]]
        with pytest.raises(ConfigError, match="collision"):
            parse_config(write_config(tmp_path, raw))

    def test_tx_powers_length_must_match(self, tmp_path):
        raw = base_config()
        raw["tx_powers"] = [1.0]
        with pytest.raises(ConfigError, match="tx_powers"):
            parse_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize(
        "powers, message",
        [
            ([1.0], "tx_powers: expected 2 entries, got 1"),
            ([1.0, 0.0], "tx_powers: all entries must be positive"),
            ([1.0, -2.0], "tx_powers: all entries must be positive"),
            (["nan", 1.0], "tx_powers[0]: must be a number, got 'nan'"),
            ([1.0, "x"], "tx_powers[1]: must be a number, got 'x'"),
            ([True, 1.0], "tx_powers[0]: must be a number, got True"),
            ([1.0, math.nan], "tx_powers[1]: must be finite, got nan"),
            (1.0, "tx_powers: expected 2 entries, got 1"),
            (False, "tx_powers: must be a number, got False"),
            ([[1.0], [1.0]], "tx_powers: expected a list of 2 numbers, got shape (2, 1)"),
            ([[1.0, 1.0]], "tx_powers: expected a list of 2 numbers, got shape (1, 2)"),
            ([[[1.0]], [[1.0]]], "tx_powers: expected a list of 2 numbers, got shape (2, 1, 1)"),
        ],
        ids=["count", "zero", "negative", "nan-string", "not-a-number", "bool", "nan",
             "scalar", "bool-scalar", "column", "row", "nested"],
    )
    def test_tx_powers_messages(self, tmp_path, powers, message):
        raw = base_config()
        raw["tx_powers"] = powers
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, raw))
        assert str(err.value) == message

    def test_plant_controller_form_assembles(self, tmp_path):
        raw = base_config()
        raw["systems"][0] = {
            "plant_a": [[1.05]],
            "plant_b": [[1.0]],
            "plant_c": [[1.0]],
            "ctrl_f": [[0.2]],
            "ctrl_fc": [[0.0]],
            "ctrl_g": [[0.1]],
            "ctrl_k": [[0.0]],
            "ctrl_kc": [[0.0]],
            "ctrl_l": [[-0.6]],
            "process_noise_cov": [[0.5]],
            "meas_noise_cov": [[0.2]],
            "lyap_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "decay_rate": 0.9,
        }
        cfg = parse_config(write_config(tmp_path, raw))
        assert cfg.systems[0].dim == 2
        np.testing.assert_allclose(cfg.systems[0].a_closed, [[0.45, 0.0], [0.1, 0.2]])

    def test_mixing_raw_and_pair_keys_is_rejected(self, tmp_path):
        raw = base_config()
        raw["systems"][0]["plant_a"] = [[1.0]]
        with pytest.raises(ConfigError, match=r"systems\[0\]"):
            parse_config(write_config(tmp_path, raw))

    def test_bad_expectation_mode(self, tmp_path):
        raw = base_config()
        raw["optimizer"]["expectation_mode"] = "exact"
        with pytest.raises(ConfigError, match="expectation_mode"):
            parse_config(write_config(tmp_path, raw))

    def test_bad_beta_box(self, tmp_path):
        raw = base_config()
        raw["optimizer"]["beta_min"] = 0.9
        raw["optimizer"]["beta_max"] = 0.1
        with pytest.raises(ConfigError, match="beta"):
            parse_config(write_config(tmp_path, raw))

    BOX_ERROR = (
        "optimizer.beta_min and optimizer.beta_max: box must satisfy 0 < lo < hi < 1, "
        "got [0.6, 0.4]"
    )
    MODE_ERROR = "optimizer.expectation_mode: must be 'quadrature' or 'mc', got 'exact'"

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"beta_min": 0.6, "beta_max": 0.4, "step_a": -1.0}, BOX_ERROR),
            ({"expectation_mode": "exact", "mc_samples": 0}, MODE_ERROR),
            ({"beta_min": 0.6, "beta_max": 0.4, "expectation_mode": "exact"}, BOX_ERROR),
        ],
        ids=["box-and-step_a", "mode-and-mc_samples", "box-and-mode"],
    )
    def test_optimizer_reports_the_box_then_the_mode_first(self, tmp_path, settings, message):
        raw = base_config()
        raw["optimizer"].update(settings)
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, raw))
        assert str(info.value) == message

    @pytest.mark.parametrize("section", ["optimizer", "simulation"])
    def test_negative_seed_names_its_path(self, tmp_path, section):
        raw = base_config()
        raw[section]["seed"] = -3
        with pytest.raises(ConfigError, match=rf"{section}\.seed: must be >= 0"):
            parse_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("max_periods", 0, ">= 1"),
            ("window", -1, ">= 0"),
            ("dual_change_tol", -1, ">= 0"),
            ("divergence_bound", 0, "> 0"),
        ],
        ids=["max_periods", "window", "dual_change_tol", "divergence_bound"],
    )
    def test_negative_stop_count_exits_2_naming_its_path(
        self, tmp_path, capsys, field, value, rule
    ):
        raw = base_config()
        raw["optimizer"][field] = value
        code = main(["optimize", write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"optimizer.{field}: must be {rule}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, settings, message",
        [
            ("simulation", {"horizon": 0}, "simulation.horizon must be >= 1"),
            ("simulation", {"horizon": 2**62}, "simulation.horizon must be at most"),
            ("simulation", {"burn_in": 20000}, "simulation.burn_in must lie in [0, horizon)"),
            ("simulation", {"thin": -1}, "simulation.thin must be >= 0"),
            # Both fail: the loop-free check of burn_in comes first.
            (
                "simulation",
                {"horizon": 2**62, "burn_in": -1},
                f"simulation.burn_in must lie in [0, horizon), got -1 for horizon {2**62}",
            ),
            ("optimizer", {"mc_samples": 0}, "optimizer.mc_samples: must be >= 1"),
            ("optimizer", {"beta_min": 0.6, "beta_max": 0.4}, "optimizer.beta_min"),
            # Generator.binomial takes no sample size beyond a C long.
            (
                "optimizer",
                {"expectation_mode": "mc", "mc_samples": 2**63},
                "optimizer.mc_samples: must be at most 9223372036854775807, got 9223372036854775808",
            ),
            (
                "optimizer",
                {"expectation_mode": "mc", "mc_samples": 1e300},
                "optimizer.mc_samples: must be at most 9223372036854775807",
            ),
        ],
        ids=[
            "horizon-0",
            "horizon-2**62",
            "burn_in-horizon",
            "thin",
            "horizon-2**62-and-burn_in",
            "mc_samples",
            "box",
            "mc_samples-2**63",
            "mc_samples-1e300",
        ],
    )
    def test_out_of_range_setting_exits_2_naming_its_path(
        self, tmp_path, capsys, section, settings, message
    ):
        # Each setting is checked as the config loads, so even rates,
        # which neither designs nor simulates, rejects it.
        raw = base_config()
        raw[section].update(settings)
        out = tmp_path / "out"
        assert main(["rates", write_config(tmp_path, raw), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in (
                "simulation.horizon",
                "simulation.burn_in",
                "simulation.thin",
                "simulation.seed",
                "optimizer.seed",
                "optimizer.max_periods",
                "optimizer.window",
                "optimizer.mc_samples",
            )
            for value in ("abc", None, 2.7, True)
            # a null burn_in asks for the default, horizon // 10
            if not (field == "simulation.burn_in" and value is None)
        ],
    )
    def test_non_integer_field_exits_2_naming_its_path(self, tmp_path, capsys, field, value):
        raw = base_config()
        section, key = field.split(".")
        raw[section][key] = value
        code = main(["rates", write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"{field}: must be an integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in (
                "optimizer.step_a",
                "optimizer.step_b",
                "optimizer.slack_tol",
                "optimizer.dual_change_tol",
                "optimizer.divergence_bound",
                "optimizer.beta_min",
                "optimizer.beta_max",
                "channels[0].dist.mean",
            )
            for value in ("abc", None, [0.5], True, False)
        ],
    )
    def test_non_number_field_exits_2_naming_its_path(self, tmp_path, capsys, field, value):
        raw = base_config()
        *outer, key = (int(k) if k.isdigit() else k for k in field.replace("]", "").split("."))
        target = raw
        for part in outer:
            name, _, index = part.partition("[")
            target = target[name][int(index)] if index else target[name]
        target[key] = value
        code = main(["rates", write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"{field}: must be a number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "place, literal, field, value",
        [
            ("tx_powers.0", "NaN", "tx_powers[0]", "nan"),
            ("tx_powers.0", "Infinity", "tx_powers[0]", "inf"),
            ("tx_powers.1", "1e400", "tx_powers[1]", "inf"),
            ("systems.0.a_closed", "NaN", "systems[0].a_closed", "nan"),
            ("systems.1.noise_cov", "NaN", "systems[1].noise_cov", "nan"),
            ("collision.0.1", "-1e999", "collision[0][1]", "-inf"),
            ("optimizer.dual_change_tol", "NaN", "optimizer.dual_change_tol", "nan"),
            ("optimizer.slack_tol", "NaN", "optimizer.slack_tol", "nan"),
            ("optimizer.divergence_bound", "NaN", "optimizer.divergence_bound", "nan"),
            ("optimizer.step_a", "-Infinity", "optimizer.step_a", "-inf"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, place, literal, field, value):
        # Python's json reads these literals as nan and inf; the number reader rejects them.
        raw = base_config()
        raw["optimizer"]["max_periods"] = 800
        *outer, last = (int(k) if k.isdigit() else k for k in place.split("."))
        target = raw
        for key in outer:
            target = target[key]
        target[last] = "NON_FINITE"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw).replace('"NON_FINITE"', literal))
        code = main(["pipeline", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {field}: must be finite, got {value}\n"

    def test_integral_floats_load_as_integers(self, tmp_path):
        raw = base_config()
        raw["simulation"].update(horizon=2e4, burn_in=1e3, thin=10.0, seed=7.0)
        raw["optimizer"].update(max_periods=5e3, window=1e2, mc_samples=2e3, seed=0.0)
        cfg = parse_config(write_config(tmp_path, raw))
        sim, opt = cfg.simulation, cfg.optimizer
        values = (sim.horizon, sim.burn_in, sim.thin, sim.seed,
                  opt.stop.max_periods, opt.stop.window, opt.mc.samples, opt.mc.seed)
        assert values == (20000, 1000, 10, 7, 5000, 100, 2000, 0)
        assert all(type(v) is int for v in values)


class TestIntegerBeyondFloatRange:
    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize(
        "place, field",
        [
            ("tx_powers.0", "tx_powers[0]"),
            ("systems.0.decay_rate", "systems[0].decay_rate"),
            ("systems.1.a_open", "systems[1].a_open"),
            ("collision.1.0", "collision[1][0]"),
            ("simulation.horizon", "simulation.horizon"),
            ("optimizer.seed", "optimizer.seed"),
        ],
    )
    def test_exits_2_naming_the_field(self, tmp_path, capsys, place, field):
        # json reads an integer literal as a Python int, however long; the
        # number reader rejects one that no float can hold.
        raw = base_config()
        *outer, last = (int(k) if k.isdigit() else k for k in place.split("."))
        target = raw
        for key in outer:
            target = target[key]
        target[last] = "HUGE"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw).replace('"HUGE"', self.HUGE))
        code = main(["rates", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {field}: must lie within the float range\n"

    def test_integer_too_long_to_read_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()).replace('"tx_powers": [1.0', '"tx_powers": [1' + "0" * 5000))
        assert main(["rates", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}: Exceeds the limit")


class TestNumericStrings:
    """A number written as a string is a config error naming its field, finite or not."""

    def run(self, tmp_path, capsys, command, raw):
        raw["optimizer"]["max_periods"] = 800
        code = main([command, write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "place, value, field",
        [
            ("channels.1.curve.kappa", "inf", "channels[1].curve.kappa"),
            ("optimizer.step_a", "inf", "optimizer.step_a"),
            ("optimizer.step_a", "2.5", "optimizer.step_a"),
            ("tx_powers.0", "inf", "tx_powers[0]"),
            ("tx_powers.0", "1.0", "tx_powers[0]"),
            ("systems.0.a_closed", "nan", "systems[0].a_closed"),
            ("systems.0.a_closed", "0.5", "systems[0].a_closed"),
            ("collision.0.1", "0.5", "collision[0][1]"),
            ("requirement_tol", "1e-9", "requirement_tol"),
        ],
    )
    @pytest.mark.parametrize("command", ["rates", "optimize"])
    def test_exits_2(self, tmp_path, capsys, command, place, value, field):
        raw = dict(base_config(), requirement_tol=1e-9)
        *outer, last = (int(k) if k.isdigit() else k for k in place.split("."))
        target = raw
        for key in outer:
            target = target[key]
        target[last] = value
        code, err = self.run(tmp_path, capsys, command, raw)
        assert (code, err) == (EXIT_CONFIG, f"error: {field}: must be a number, got {value!r}\n")

    def test_pair_matrix(self, tmp_path, capsys):
        raw = base_config()
        raw["systems"][1] = dict(PAIR_LOOP, ctrl_l=[["-inf"]])
        code, err = self.run(tmp_path, capsys, "rates", raw)
        assert (code, err) == (
            EXIT_CONFIG, "error: systems[1].ctrl_l[0][0]: must be a number, got '-inf'\n"
        )


PAIR_LOOP = {
    "plant_a": 1.1, "plant_b": 1.0, "plant_c": 1.0, "ctrl_f": 0.0,
    "ctrl_fc": 0.0, "ctrl_g": 0.0, "ctrl_k": 0.0, "ctrl_kc": 0.0,
    "ctrl_l": -0.6, "process_noise_cov": 1.0, "meas_noise_cov": 0.0,
    "lyap_matrix": [[1.0, 0.0], [0.0, 1.0]], "decay_rate": 0.8,
}


def config_of_loops(loops):
    """``base_config()`` with the given ``systems`` and as many channels, powers and collision rows."""
    raw = base_config()
    m = len(loops)
    raw.update(
        systems=loops,
        channels=[raw["channels"][0]] * m,
        collision=[[0.0] * m for _ in range(m)],
        tx_powers=[1.0] * m,
    )
    return raw


RAW_FIELDS = ("a_closed", "a_open", "noise_cov", "lyap_matrix", "decay_rate")


def first_bad_entry(value, field, array=True):
    """The number reader's error for the first entry of ``value`` that is not a finite JSON number.

    ``value`` is nested lists of entries if ``array``, else one entry; None if all are good.
    """
    if array and isinstance(value, list):
        for k, item in enumerate(value):
            if (error := first_bad_entry(item, f"{field}[{k}]")) is not None:
                return error
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"{field}: must be a number, got {value!r}"
    try:
        number = float(value)
    except OverflowError:
        return f"{field}: must lie within the float range"
    if not math.isfinite(number):
        return f"{field}: must be finite, got {number!r}"
    return None


def first_loop_error(loops):
    """The error named for the first bad entry of ``systems``: raw loops by the loop oracle.

    Each loop's keys are checked first, then its numbers in document
    order, then the loop itself. A pair-form loop here is ``PAIR_LOOP``, bad
    only with a ``ctrl_l`` of ``[["-inf"]]``.
    """
    for k, loop in enumerate(loops):
        if "plant_a" in loop:
            if loop["ctrl_l"] != PAIR_LOOP["ctrl_l"]:
                return f"systems[{k}].ctrl_l[0][0]: must be a number, got '-inf'"
        elif set(loop) != set(RAW_FIELDS):
            return f"unknown key '{min(set(loop) - set(RAW_FIELDS))}' at systems[{k}]"
        else:
            for name, value in loop.items():
                error = first_bad_entry(value, f"systems[{k}].{name}", name != "decay_rate")
                if error is not None:
                    return error
            try:
                loop_check_system(**loop)
            except (TypeError, ValueError) as exc:
                return f"systems[{k}]: {exc}"
    return None


class TestNumberReader:
    """``_numbers`` checks whole arrays at once, and agrees with ``_number`` entry by entry."""

    POOL = (0.5, -2.0, 0, 7, 10**400, -(10**400), True, False, "1.0", None, {}, [],
            math.nan, math.inf, -math.inf, 1e308)

    def random_value(self, rng, depth):
        if depth == 0 or rng.random() < 0.2:
            pool = self.POOL if rng.random() < 0.1 else self.POOL[:4]
            return pool[rng.integers(len(pool))]
        return [self.random_value(rng, depth - 1) for _ in range(rng.integers(0, 4))]

    @pytest.mark.parametrize("seed", range(300))
    def test_names_the_first_entry_number_rejects(self, seed):
        rng = np.random.default_rng(seed)
        value = self.random_value(rng, int(rng.integers(0, 4)))
        want = first_bad_entry(value, "x")
        try:
            got = raccess.config._numbers(value, "x")
        except ConfigError as exc:
            assert str(exc) == want
        else:
            assert want is None and got is value

    @pytest.mark.parametrize(
        "value", [[1e308, 1e308], [[1e308], [1e308, 0.5]], [1e308, 10**308]], ids=["floats", "rows", "int"]
    )
    def test_finite_entries_whose_sum_overflows_pass(self, value):
        assert raccess.config._numbers(value, "x") is value


class TestFirstBadLoop:
    """The raw loops are checked in stacks by dimension; the first bad loop in config order is named."""

    def run_rates(self, tmp_path, capsys, loops):
        path = write_config(tmp_path, config_of_loops(loops))
        code = main(["rates", path, "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(24))
    def test_shuffled_mix_names_the_oracle_first_bad_loop(self, tmp_path, capsys, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(4, 14))
        loops = [
            loop_fields(random_admissible_system(rng, dims=(1, 2, 3, 4)), rng) for _ in range(m)
        ]
        loops.insert(int(rng.integers(m + 1)), dict(PAIR_LOOP))
        for k in rng.choice(len(loops), size=1 + seed % 2, replace=False):
            if "plant_a" in loops[k]:
                loops[k] = dict(loops[k], ctrl_l=[["-inf"]])  # the pair's own check names it
                continue
            if rng.random() < 0.15:
                loops[k] = dict(loops[k], gain=1.0)
            else:
                kinds = rng.choice(LOOP_BREAKS, size=int(rng.integers(1, 3)), replace=False)
                loops[k] = break_loop(loops[k], rng, kinds)
        want = first_loop_error(loops)
        assert want is not None
        code, err = self.run_rates(tmp_path, capsys, loops)
        assert (code, err) == (EXIT_CONFIG, f"error: {want}\n")

    def test_asymmetric_loop_4_comes_before_a_bad_shape_at_loop_9(self, tmp_path, capsys):
        # Loop 4 (n = 3) is in a later dimension group than loop 9 (n = 2).
        rng = np.random.default_rng(1)
        loops = [loop_fields(random_admissible_system(rng, dims=(2 + k % 3,))) for k in range(12)]
        loops[4] = break_loop(loops[4], rng, ["asymmetric"])
        loops[9] = dict(loops[9], a_open=[[1.1]])
        code, err = self.run_rates(tmp_path, capsys, loops)
        assert code == EXIT_CONFIG
        assert err.startswith("error: systems[4]: ") and err.endswith(" must be symmetric\n")

    def test_key_error_after_a_stacked_failure_loses(self, tmp_path, capsys):
        loops = [loop_fields(random_admissible_system(np.random.default_rng(k), dims=(2,))) for k in range(4)]
        loops[1] = dict(loops[1], decay_rate=1.5)
        loops[3] = dict(loops[3], gain=1.0)
        code, err = self.run_rates(tmp_path, capsys, loops)
        assert (code, err) == (EXIT_CONFIG, "error: systems[1]: decay_rate must lie in (0, 1), got 1.5\n")
        loops[1] = dict(loops[1], decay_rate=0.5)
        code, err = self.run_rates(tmp_path, capsys, loops)
        assert (code, err) == (EXIT_CONFIG, "error: unknown key 'gain' at systems[3]\n")

    def test_rates_that_are_all_lists_are_named(self, tmp_path, capsys):
        # Flattened together, [0.8] and [] would read as the one number 0.8.
        loops = [loop_fields(random_admissible_system(np.random.default_rng(k), dims=(2,))) for k in range(2)]
        loops = [dict(loops[0], decay_rate=[0.8]), dict(PAIR_LOOP), dict(loops[1], decay_rate=[])]
        code, err = self.run_rates(tmp_path, capsys, loops)
        assert (code, err) == (EXIT_CONFIG, "error: systems[0].decay_rate: must be a number, got [0.8]\n")

    def test_bad_pair_before_a_bad_raw_loop_wins(self, tmp_path, capsys):
        loops = [loop_fields(random_admissible_system(np.random.default_rng(k), dims=(3,))) for k in range(3)]
        loops[2] = dict(loops[2], noise_cov=(-np.eye(3)).tolist())
        loops.insert(1, dict(PAIR_LOOP, ctrl_l=[["-inf"]]))
        code, err = self.run_rates(tmp_path, capsys, loops)
        assert (code, err) == (
            EXIT_CONFIG, "error: systems[1].ctrl_l[0][0]: must be a number, got '-inf'\n"
        )


def valid_certify_like_config(m=64):
    """``m`` random admissible raw loops whose state dimension cycles through 2, 3, 4."""
    rng = np.random.default_rng(5)
    return config_of_loops(
        [loop_fields(random_admissible_system(rng, dims=(2 + k % 3,))) for k in range(m)]
    )


class TestStackedReader:
    """What keeps ``parse_config`` stacked: one eigvalsh per dimension, the file read once."""

    def test_one_eigvalsh_call_per_state_dimension(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, valid_certify_like_config())
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            "raccess.control.np.linalg.eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a)
        )
        cfg = parse_config(path)
        assert cfg.m == 64
        assert sorted(calls) == sorted([(22, 2, 2, 2), (21, 2, 3, 3), (21, 2, 4, 4)])

    @pytest.mark.parametrize("valid", [True, False])
    def test_the_file_is_read_once(self, tmp_path, monkeypatch, valid):
        loads = []
        load = json.load
        monkeypatch.setattr(raccess.config.json, "load", lambda fh, **kw: loads.append(fh) or load(fh, **kw))
        raw = valid_certify_like_config()
        if not valid:
            raw["tx_powers"][0] = -1.0
        path = write_config(tmp_path, raw)
        if valid:
            parse_config(path)
        else:
            with pytest.raises(ConfigError, match="^tx_powers: all entries must be positive$"):
                parse_config(path)
        assert len(loads) == 1

    def test_loaded_values_keep_their_bits(self, tmp_path):
        raw = valid_certify_like_config(12)
        cfg = parse_config(write_config(tmp_path, raw))
        for loop, system in zip(raw["systems"], cfg.systems):
            mats, rho = loop_check_system(**loop)
            for arr, name in zip(mats, ("a_closed", "a_open", "noise_cov", "lyap_matrix")):
                np.testing.assert_array_equal(getattr(system, name), arr, strict=True)
            assert system.decay_rate == rho


class TestTopLevelNumbers:
    def run_rates(self, tmp_path, capsys, raw, replace=None):
        path = tmp_path / "cfg.json"
        text = json.dumps(raw)
        if replace:
            text = text.replace(*replace)
        path.write_text(text)
        code = main(["rates", str(path), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", [1, 2], None, True, False])
    def test_requirement_tol_must_be_a_number(self, tmp_path, capsys, value):
        raw = dict(base_config(), requirement_tol=value)
        code, err = self.run_rates(tmp_path, capsys, raw)
        assert (code, err) == (EXIT_CONFIG, f"error: requirement_tol: must be a number, got {value!r}\n")

    def test_numeric_string_requirement_tol_exits_2(self, tmp_path, capsys):
        raw = dict(base_config(), requirement_tol="1e-9")
        code, err = self.run_rates(tmp_path, capsys, raw)
        assert (code, err) == (EXIT_CONFIG, "error: requirement_tol: must be a number, got '1e-9'\n")
        raw = dict(base_config(), requirement_tol=1e-9)
        assert self.run_rates(tmp_path, capsys, raw)[0] == EXIT_OK

    def test_overflowing_requirement_tol_names_its_field(self, tmp_path, capsys):
        raw = dict(base_config(), requirement_tol="HUGE")
        code, err = self.run_rates(tmp_path, capsys, raw, ('"HUGE"', "1e400"))
        assert (code, err) == (EXIT_CONFIG, "error: requirement_tol: must be finite, got inf\n")

    @pytest.mark.parametrize("value", [True, False])
    def test_schema_version_rejects_bools(self, tmp_path, capsys, value):
        raw = dict(base_config(), schema_version=value)
        code, err = self.run_rates(tmp_path, capsys, raw)
        assert (code, err) == (EXIT_CONFIG, f"error: schema_version: expected 1, got {value!r}\n")

    def test_integral_float_schema_version_still_loads(self, tmp_path, capsys):
        raw = dict(base_config(), schema_version=1.0)
        assert self.run_rates(tmp_path, capsys, raw)[0] == EXIT_OK


class TestFirstErrorInReadingOrder:
    """An overflowing literal is an error of its own field, reported only if no earlier one is.

    The reading order is the top-level keys, ``schema_version``, the loops
    one by one (keys, numbers, checks), then ``tx_powers``, ``optimizer``
    and ``simulation``.
    """

    BREAKS = {
        "unknown-key": lambda raw: raw.update(surplus=1),
        "bad-matrix": lambda raw: raw["systems"][0].update(lyap_matrix=[[1.0, 2.0], [0.0, 1.0]]),
        "unknown-loop-key": lambda raw: raw["systems"][1].update(gain=1.0),
        "bad-number": lambda raw: raw["optimizer"].update(step_a="abc"),
        "schema": lambda raw: raw.update(schema_version=2),
    }
    BREAK_ERRORS = {
        "unknown-key": "unknown key 'surplus' at top level",
        "bad-matrix": "systems[0]: lyap_matrix has shape (2, 2), expected (1, 1)",
        "unknown-loop-key": "unknown key 'gain' at systems[1]",
        "bad-number": "optimizer.step_a: must be a number, got 'abc'",
        "schema": "schema_version: expected 1, got 2",
    }
    # The overflow's own error, and the breaks it comes before.
    PLACES = {
        "tx_powers.1": ("tx_powers[1]: must be finite, got {}", {"bad-number"}),
        "systems.1.a_open": (
            "systems[1].a_open: must be finite, got {}", {"bad-number"}
        ),
        "simulation.horizon": ("simulation.horizon: must be an integer, got {}", set()),
    }

    @pytest.mark.parametrize("break_id", list(BREAKS))
    @pytest.mark.parametrize("place", list(PLACES))
    @pytest.mark.parametrize("literal, value", [("1e400", "inf"), ("-2.5e999", "-inf")])
    def test_first_error_is_named(self, tmp_path, capsys, break_id, place, literal, value):
        raw = base_config()
        self.BREAKS[break_id](raw)
        *outer, last = (int(k) if k.isdigit() else k for k in place.split("."))
        target = raw
        for key in outer:
            target = target[key]
        target[last] = "OVERFLOW"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw).replace('"OVERFLOW"', literal))
        code = main(["rates", str(path), "--out", str(tmp_path / "out")])
        own, before = self.PLACES[place]
        want = own.format(value) if break_id in before else self.BREAK_ERRORS[break_id]
        assert (code, capsys.readouterr().err) == (EXIT_CONFIG, f"error: {want}\n")

    @pytest.mark.parametrize(
        "text",
        [
            '{"schema_version": 1, "requirement_tol": 1e400, "systems": [',
            '{"schema_version": 1,, "requirement_tol": 1e400}',
        ],
        ids=["after", "before"],
    )
    def test_invalid_json_is_reported_wherever_the_literal_sits(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["rates", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}: ")


class TestConfigShapes:
    @pytest.mark.parametrize("entry", [5, None])
    def test_system_that_is_not_an_object_exits_2(self, tmp_path, capsys, entry):
        raw = base_config()
        raw["systems"][0] = entry
        code = main(["rates", write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "systems[0]: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entries",
        [[1, 2], "ab", [{"kind": "threshold", "threshold": 0.5}, None]],
        ids=["numbers", "string", "null-entry"],
    )
    def test_policies_that_are_not_objects_exit_2(self, tmp_path, capsys, entries):
        pols = tmp_path / "policies.json"
        pols.write_text(json.dumps({"schema_version": 1, "policies": entries}))
        argv = ["simulate", write_config(tmp_path, base_config()), "--policies", str(pols)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert str(pols) in capsys.readouterr().err


# Valid values for every fade and curve field, so each family can be
# built from its required fields alone.
FIELD_VALUES = {"mean": 1.3, "low": 0.2, "high": 1.5, "kappa": 2.0, "gain": 0.7,
                "midpoint": 0.8, "steepness": 2.5}
TABLES = {"dist": _FADES, "curve": _CURVES}
FAMILIES = [(part, family) for part, table in TABLES.items() for family in table]


def field_names(cls, required_only=False):
    return [f.name for f in dataclasses.fields(cls)
            if not required_only or f.default is dataclasses.MISSING]


def family_entry(part, family):
    """``{"family": family, ...}`` with only the family's required fields."""
    cls = TABLES[part][family]
    return {"family": family, **{k: FIELD_VALUES[k] for k in field_names(cls, True)}}


def with_channel_part(part, entry):
    raw = base_config()
    raw["channels"][1][part] = entry
    return raw


class TestFamilySchema:
    @pytest.mark.parametrize(
        "part, family, key",
        [
            (part, family, key)
            for part, family in FAMILIES
            for other, cls in TABLES[part].items()
            if other != family
            for key in field_names(cls)
            if key not in field_names(TABLES[part][family])
        ],
    )
    def test_key_of_another_family_exits_2(self, tmp_path, capsys, part, family, key):
        entry = {**family_entry(part, family), key: FIELD_VALUES[key]}
        raw = with_channel_part(part, entry)
        code = main(["rates", write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"unknown key '{key}' at channels[1].{part}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "part, family, key",
        [
            (part, family, key)
            for part, family in FAMILIES
            for key in field_names(TABLES[part][family], required_only=True)
        ],
    )
    def test_missing_required_key_names_its_path(self, tmp_path, part, family, key):
        entry = family_entry(part, family)
        del entry[key]
        raw = with_channel_part(part, entry)
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, raw))
        assert str(info.value) == f"missing required key '{key}' at channels[1].{part}"

    @pytest.mark.parametrize("part, family", FAMILIES)
    def test_omitted_optional_keys_take_the_defaults(self, tmp_path, part, family):
        entry = family_entry(part, family)
        cfg = parse_config(write_config(tmp_path, with_channel_part(part, entry)))
        cls = TABLES[part][family]
        want = cls(**{k: v for k, v in entry.items() if k != "family"})
        got = getattr(cfg.channels[1], part)
        assert type(got) is cls and got == want

    @pytest.mark.parametrize("part, family", FAMILIES)
    def test_every_field_given_builds_that_object(self, tmp_path, part, family):
        cls = TABLES[part][family]
        values = {k: FIELD_VALUES[k] for k in field_names(cls)}
        raw = with_channel_part(part, {"family": family, **values})
        cfg = parse_config(write_config(tmp_path, raw))
        assert getattr(cfg.channels[1], part) == cls(**values)

    @pytest.mark.parametrize(
        "part, family",
        [("dist", "rayleigh"), ("curve", "step"), ("dist", ["x"]), ("curve", None), ("dist", 3)],
        ids=["rayleigh", "step", "list", "null", "number"],
    )
    def test_unknown_families_rejected(self, tmp_path, capsys, part, family):
        raw = with_channel_part(part, {"family": family})
        code = main(["rates", write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"channels[1].{part}: unknown family {family!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("part", TABLES)
    def test_missing_family_names_its_path(self, tmp_path, part):
        raw = with_channel_part(part, {"mean": 1.0})
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, raw))
        assert str(info.value) == f"missing required key 'family' at channels[1].{part}"

    def test_non_number_field_names_its_path(self, tmp_path):
        raw = with_channel_part("dist", {"family": "exponential", "mean": "abc"})
        with pytest.raises(ConfigError, match=r"channels\[1\]\.dist\.mean: must be a number"):
            parse_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize(
        "part, entry",
        [
            ("dist", {"family": "exponential", "mean": "abc"}),
            ("curve", {"family": "logistic_log", "midpoint": 0.8, "steepness": "abc"}),
        ],
    )
    def test_bad_parameter_names_its_path_once(self, tmp_path, capsys, part, entry):
        key = next(k for k, v in entry.items() if v == "abc")
        raw = with_channel_part(part, entry)
        code = main(["rates", write_config(tmp_path, raw), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (
            EXIT_CONFIG,
            f"error: channels[1].{part}.{key}: must be a number, got 'abc'\n",
        )


def as_rows(columns):
    """The oracle's rows: one tuple per row, bools as the ints 0 and 1."""
    cols = [np.asarray(c) for c in columns]
    return list(zip(*(c.astype(int).tolist() if c.dtype == bool else c.tolist() for c in cols)))


def edge_columns(rows):
    """An int, two float and a bool column of ``rows`` rows, edge values first."""
    ints = np.array([0, -7, 2**63 - 1, -(2**63), 10**15], dtype=np.int64)
    floats = np.array(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-05, 1e-4, 1.5e16, 5e-324,
         1.7976931348623157e308, 2.5e-300, 123456789.125, 0.1]
    )
    return (
        np.resize(ints, rows),
        np.resize(floats, rows),
        -np.resize(floats[::-1], rows),
        np.arange(rows) % 3 == 1,
    )


class TestWriteCsv:
    def test_matches_the_cell_by_cell_oracle(self, tmp_path):
        header = ["a", "b", "c", "d"]
        columns = edge_columns(13)
        write_csv(tmp_path / "new.csv", header, columns)
        loop_write_csv(tmp_path / "old.csv", header, as_rows(columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundaries(self, tmp_path, offset):
        header = ["a", "b", "c", "d"]
        rows = raccess.serialize._BLOCK_CELLS // len(header) + offset
        columns = edge_columns(rows)
        write_csv(tmp_path / "new.csv", header, columns)
        loop_write_csv(tmp_path / "old.csv", header, as_rows(columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_row_wider_than_the_cell_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(raccess.serialize, "_BLOCK_CELLS", 3)
        header = ["a", "b", "c", "d"]
        columns = edge_columns(5)
        write_csv(tmp_path / "new.csv", header, columns)
        loop_write_csv(tmp_path / "old.csv", header, as_rows(columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_bool_columns_are_zero_and_one(self, tmp_path):
        flags = np.array([True, False, True])
        write_csv(tmp_path / "t.csv", ["tx", "gamma"], (flags, flags[::-1] & False))
        assert (tmp_path / "t.csv").read_text() == "tx,gamma\n1,0\n0,0\n1,0\n"

    def test_empty_record_is_the_header_alone(self, tmp_path):
        for columns in ((), (np.arange(0), np.zeros(0))):
            write_csv(tmp_path / "t.csv", ["slot", "system"], columns)
            assert (tmp_path / "t.csv").read_text() == "slot,system\n"


class TestCliRates:
    def test_writes_the_requirements(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["rates", REFERENCE_CONFIG, "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "rates.csv").read_text().splitlines()
        assert lines[0] == "system,requirement"
        assert len(lines) == 3
        c0 = float(lines[1].split(",")[1])
        c1 = float(lines[2].split(",")[1])
        assert c0 == pytest.approx(41.0 / 96.0, abs=1e-8)
        assert c1 == pytest.approx(5.0 / 21.0, abs=1e-8)
        assert "requirement" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, written",
        [
            pytest.param("rates", ["rates.csv"], id="rates"),
            pytest.param(
                "pipeline",
                ["metrics.csv", "rates.csv", "trace.csv", "trajectory.csv"],
                id="pipeline",
            ),
        ],
    )
    def test_full_precision_round_trip(self, tmp_path, command, written):
        # Every cell is an int literal or a float's shortest round-trip
        # form; a bool or a NumPy scalar reaching the writer fails here.
        if command == "rates":
            cfg = REFERENCE_CONFIG
        else:
            raw = base_config()
            raw["simulation"]["thin"] = 7
            cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main([command, cfg, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.glob("*.csv")) == written
        for name in written:
            for line in (out / name).read_text().splitlines()[1:]:
                for value in line.split(","):
                    assert value.lstrip("-").isdigit() or value == fmt(float(value)), (
                        name,
                        value,
                    )

    def test_infeasible_system_exits_3(self, tmp_path, capsys):
        raw = base_config()
        raw["systems"][0]["a_closed"] = 1.0  # violates the closed-loop contract
        cfg = write_config(tmp_path, raw)
        code = main(["rates", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "error" in err and "loop 0" in err

    def test_missing_config_exits_2(self, capsys):
        code = main(["rates", "/nonexistent.json"])
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_infeasible_error_keeps_its_loop(self, tmp_path):
        with open(REFERENCE_CONFIG) as fh:
            raw = json.load(fh)
        raw["systems"][1]["a_closed"] = 1.2
        cfg = parse_config(write_config(tmp_path, raw))
        with pytest.raises(InfeasibleContractError, match=r"^loop 1: ") as info:
            raccess.cli._requirements(cfg)
        assert info.value.loop == 1

    @pytest.mark.parametrize("name", ["--out", "output_dir"])
    def test_out_that_cannot_be_a_directory_exits_2_naming_it(self, tmp_path, capsys, name):
        taken = tmp_path / "taken"
        taken.write_text("")
        with open(REFERENCE_CONFIG) as fh:
            raw = json.load(fh)
        flags = ["--out", str(taken)]
        if name == "output_dir":
            raw["output_dir"], flags = str(taken), []
        assert main(["rates", write_config(tmp_path, raw), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: cannot make directory {str(taken)!r}: ")
        assert err.count("\n") == 1


class TestCliOptimize:
    def test_writes_trace_and_policies(self, tmp_path, capsys):
        raw = base_config()
        raw["systems"] = raw["systems"][:1]
        raw["channels"] = raw["channels"][:1]
        raw["tx_powers"] = [1.0]
        del raw["collision"]
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = main(["optimize", cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert "converged" in capsys.readouterr().out
        doc = json.loads((out / "policies.json").read_text())
        assert doc["converged"] is True
        assert doc["policies"][0]["kind"] == "threshold"
        assert len(doc["duals"]["lambda"]) == 1
        assert (out / "trace.csv").exists()
        assert (out / "rates.csv").exists()
        pols = load_policies(out / "policies.json")
        assert pols[0].threshold == doc["policies"][0]["threshold"]

    def test_non_convergence_exits_4_but_still_writes(self, tmp_path, capsys):
        raw = base_config()
        raw["optimizer"]["max_periods"] = 5
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = main(["optimize", cfg, "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert "did not converge" in capsys.readouterr().err
        doc = json.loads((out / "policies.json").read_text())
        assert doc["converged"] is False
        assert (out / "trace.csv").exists()

    def test_window_beyond_max_periods_exits_4(self, tmp_path, capsys):
        # The stop test cannot fire, and its ring of past duals must not try
        # to hold window + 1 of them.
        raw = base_config()
        raw["optimizer"].update(max_periods=50, window=1e12)
        out = tmp_path / "out"
        assert main(["optimize", write_config(tmp_path, raw), "--out", str(out)]) == EXIT_DIVERGED
        assert "optimizer did not converge after 50 periods" in capsys.readouterr().out
        assert len((out / "trace.csv").read_text().splitlines()) == 51

    def test_seed_flag_changes_mc_runs_only(self, tmp_path):
        raw = base_config()
        raw["optimizer"]["max_periods"] = 5
        raw["optimizer"]["expectation_mode"] = "mc"
        raw["optimizer"]["mc_samples"] = 500
        cfg = write_config(tmp_path, raw)
        out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
        main(["optimize", cfg, "--out", str(out1), "--seed", "1"])
        main(["optimize", cfg, "--out", str(out2), "--seed", "1"])
        main(["optimize", cfg, "--out", str(out3), "--seed", "2"])
        t1 = (out1 / "trace.csv").read_text()
        assert t1 == (out2 / "trace.csv").read_text()
        assert t1 != (out3 / "trace.csv").read_text()

    @pytest.mark.parametrize(
        "flags, mode, mc",
        [
            ([], "quadrature", MonteCarlo(samples=300, seed=5)),
            (["--mode", "mc"], "mc", MonteCarlo(samples=300, seed=5)),
            (["--mode", "mc", "--seed", "9"], "mc", MonteCarlo(samples=300, seed=9)),
        ],
        ids=["config", "mode-flag", "seed-flag"],
    )
    def test_mode_flag_takes_the_configs_sample(self, tmp_path, monkeypatch, flags, mode, mc):
        # The config asks for quadrature; --mode mc uses its mc_samples and
        # seed, and --seed replaces the seed alone.
        used = []
        design = raccess.cli.run_algorithm1

        def spy(inst, settings):
            used.append(settings)
            return design(inst, settings)

        monkeypatch.setattr(raccess.cli, "run_algorithm1", spy)
        raw = base_config()
        raw["optimizer"].update(max_periods=5, mc_samples=300, seed=5)
        main(["optimize", write_config(tmp_path, raw), "--out", str(tmp_path / "out")] + flags)
        cfg = parse_config(write_config(tmp_path, raw))
        assert used == [dataclasses.replace(cfg.optimizer, expectation_mode=mode, mc=mc)]

    @pytest.mark.parametrize("mode", ["quadrature", "mc"])
    def test_pipeline_seed_flag_sets_both_seeds(self, tmp_path, capsys, mode):
        # pipeline --seed replaces optimizer.seed and simulation.seed alike, in either mode.
        with open(REFERENCE_CONFIG) as fh:
            raw = json.load(fh)
        raw["optimizer"]["seed"] = raw["simulation"]["seed"] = 5
        runs = {"flag": [REFERENCE_CONFIG, "--seed", "5"], "config": [write_config(tmp_path, raw)]}
        seen = []
        for name, args in runs.items():
            out = tmp_path / name
            assert main(["pipeline", *args, "--mode", mode, "--out", str(out)]) == EXIT_OK
            seen.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr().out))
        assert "report.json" in seen[0][0] and seen[0] == seen[1]

    @pytest.mark.parametrize("mode", ["quadrature", "mc"])
    def test_designs_through_a_curve_whose_power_overflows(self, tmp_path, mode):
        # At m = 1e-300 and s = 1e300, (h/m)^s overflows at every fade h > 0.
        with open(REFERENCE_CONFIG) as fh:
            raw = json.load(fh)
        raw["channels"][0]["curve"] = {
            "family": "logistic_log", "midpoint": 1e-300, "steepness": 1e300
        }
        raw["optimizer"].update(max_periods=20, expectation_mode=mode)
        out = tmp_path / "out"
        code = main(["pipeline", write_config(tmp_path, raw), "--out", str(out)])
        assert code == EXIT_DIVERGED
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        assert trace.shape[0] == 20 and np.isfinite(trace).all()

    def test_steep_curve_under_monte_carlo_writes_only_the_clis_stderr(self, tmp_path):
        # (h/m)^250 overflows for fades above 17.1, which mean-10 fades often draw.
        with open(REFERENCE_CONFIG) as fh:
            raw = json.load(fh)
        raw["channels"][1] = {
            "dist": {"family": "exponential", "mean": 10.0},
            "curve": {"family": "logistic_log", "midpoint": 1.0, "steepness": 250.0},
        }
        raw["optimizer"].update(max_periods=30, expectation_mode="mc")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        argv = ["optimize", write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "raccess.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_DIVERGED
        assert proc.stderr == "error: optimizer did not converge within max_periods\n"

    def test_permuting_the_loops_permutes_the_design_files(self, tmp_path):
        # Swapping the worked example's loops swaps every per-sensor value of
        # policies.json, rates.csv and trace.csv, bit for bit; nu is permuted
        # in rows and columns. (Monte Carlo designs draw in sensor order.)
        with open(REFERENCE_CONFIG) as fh:
            raw = json.load(fh)
        perm = [1, 0]
        swapped = json.loads(json.dumps(raw))
        for key in ("systems", "channels", "tx_powers"):
            swapped[key] = [raw[key][j] for j in perm]
        swapped["collision"] = [[raw["collision"][i][j] for j in perm] for i in perm]
        outs = [tmp_path / "base", tmp_path / "swapped"]
        for out, cfg in zip(outs, (raw, swapped)):
            cfg_path = write_config(tmp_path, cfg, f"{out.name}.json")
            assert main(["optimize", cfg_path, "--out", str(out)]) == EXIT_OK
        base, other = (json.loads((out / "policies.json").read_text()) for out in outs)
        assert base["periods"] == other["periods"] == 730
        assert other["objective"] == base["objective"]
        for key in ("policies", "success_targets", "link_success"):
            assert other[key] == [base[key][j] for j in perm]
        assert other["duals"]["lambda"] == [base["duals"]["lambda"][j] for j in perm]
        nu = base["duals"]["nu"]
        assert other["duals"]["nu"] == [[nu[i][j] for j in perm] for i in perm]
        rates = [
            [line.split(",")[1] for line in (out / "rates.csv").read_text().splitlines()[1:]]
            for out in outs
        ]
        assert rates[1] == [rates[0][j] for j in perm]
        base_trace, other_trace = (
            [line.split(",") for line in (out / "trace.csv").read_text().splitlines()]
            for out in outs
        )
        header = base_trace[0]
        assert other_trace[0] == header

        def swapped_column(name):
            kind, _, i = name.rpartition("_")
            return f"{kind}_{perm[int(i)]}" if i.isdigit() else name

        moved = [header.index(swapped_column(name)) for name in header]
        assert other_trace[1:] == [[row[k] for k in moved] for row in base_trace[1:]]

    def test_dual_divergence_exits_4(self, tmp_path, capsys):
        with open(REFERENCE_CONFIG) as fh:
            raw = json.load(fh)
        raw["optimizer"]["divergence_bound"] = 1.0
        out = tmp_path / "out"
        assert main(["optimize", write_config(tmp_path, raw), "--out", str(out)]) == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith(
            "error: dual variables reached 2.01033 at period 0"
        )

    @pytest.mark.parametrize(
        "argv", [["optimize", "--mode", "mc"], ["pipeline"]], ids=["design", "simulation"]
    )
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, argv):
        code = main(argv + [REFERENCE_CONFIG, "--seed", "-3", "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "--seed: must be >= 0" in capsys.readouterr().err


class TestCliSimulate:
    def _policies_file(self, tmp_path, thresholds):
        doc = {
            "schema_version": 1,
            "policies": [
                {"kind": "threshold", "threshold": t} for t in thresholds
            ],
        }
        path = tmp_path / "policies.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_simulates_given_policies(self, tmp_path, capsys):
        raw = base_config()
        cfg = write_config(tmp_path, raw)
        pols = self._policies_file(
            tmp_path, [0.34934006025424225, 0.8881000386856908]
        )
        out = tmp_path / "out"
        code = main(["simulate", cfg, "--policies", pols, "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "system,empirical_cost,empirical_tx_rate,empirical_success_rate,cost_bound"
        assert len(lines) == 3
        assert "simulated 20000 slots" in capsys.readouterr().out

    def test_unstable_policy_exits_5(self, tmp_path, capsys):
        raw = base_config()
        raw["simulation"]["horizon"] = 2000
        cfg = write_config(tmp_path, raw)
        pols = self._policies_file(tmp_path, [math.inf, 0.9])
        code = main(["simulate", cfg, "--policies", pols, "--out", str(tmp_path / "out")])
        assert code == EXIT_UNSTABLE
        assert "does not stabilize" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [1e300, 2**62], ids=["1e300", "2**62"])
    @pytest.mark.parametrize("command", ["optimize", "simulate", "pipeline"])
    def test_horizon_beyond_numpy_arrays_exits_2(self, tmp_path, capsys, command, horizon):
        # No run allocates: parse_config rejects the horizon first.
        raw = base_config()
        raw["simulation"]["horizon"] = horizon
        argv = [command, write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
        if command == "simulate":
            argv += ["--policies", self._policies_file(tmp_path, [0.35, 0.89])]
        assert main(argv) == EXIT_CONFIG
        assert f"horizon must be at most 576460752303423487 for these loops, got {int(horizon)}" in (
            capsys.readouterr().err
        )
        # Nor does optimize or the pipeline design first.
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(instance, policies, settings):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(raccess.cli, "run_simulation", no_memory)
        raw = base_config()
        pols = self._policies_file(tmp_path, [0.35, 0.89])
        argv = ["simulate", write_config(tmp_path, raw), "--policies", pols]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "error: out of memory: Unable to allocate 14.6 TiB" in capsys.readouterr().err

    def test_wrong_policy_count_exits_2(self, tmp_path, capsys):
        raw = base_config()
        cfg = write_config(tmp_path, raw)
        pols = self._policies_file(tmp_path, [0.5])
        code = main(["simulate", cfg, "--policies", pols, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "1 policies for 2 loops" in capsys.readouterr().err

    T = {"kind": "threshold", "threshold": 0.35}

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"schema_version": True, "policies": [T, T]}, "schema_version: expected 1, got True"),
            (
                {"schema_version": 1, "policies": [T, {"kind": "threshold", "threshold": "0.3"}]},
                "policies[1].threshold: must be a number, got '0.3'",
            ),
            (
                {"schema_version": 1, "policies": [{"kind": "threshold", "threshold": "inf"}, T]},
                "policies[0].threshold: must be a number, got 'inf'",
            ),
            (
                {"schema_version": 1, "policies": [{"kind": "threshold", "threshold": True}, T]},
                "policies[0].threshold: must be a number, got True",
            ),
            (
                {"schema_version": 1, "policies": [T, {"kind": "constant", "rate": True}]},
                "policies[1].rate: must be a number, got True",
            ),
            (
                {"schema_version": 1,
                 "policies": [{"kind": "threshold", "threshold": 0.3, "rate": 0.2}, T]},
                "unknown key 'rate' at policies[0]",
            ),
            (
                {"schema_version": 1, "policies": [{"kind": "constant", "rate": 1.5}, T]},
                "policies[0].rate: rate must lie in [0, 1], got 1.5",
            ),
            (
                {"schema_version": 1, "policies": [T, {"kind": "constant"}]},
                "missing required key 'rate' at policies[1]",
            ),
        ],
        ids=["bool-version", "string-number", "string-inf", "bool-threshold",
             "bool-rate", "unknown-key", "rate-above-1", "missing-rate"],
    )
    def test_bad_policies_file_exits_2_naming_the_field(self, tmp_path, capsys, doc, message):
        path = tmp_path / "policies.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", write_config(tmp_path, base_config()), "--policies", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_integer_too_long_to_read_exits_2(self, tmp_path, capsys):
        path = tmp_path / "policies.json"
        huge = '{"kind": "threshold", "threshold": 1' + "0" * 5000 + "}"
        path.write_text(f'{{"schema_version": 1, "policies": [{huge}, {json.dumps(self.T)}]}}')
        argv = ["simulate", write_config(tmp_path, base_config()), "--policies", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}: Exceeds the limit")

    def test_infinite_threshold_still_loads(self, tmp_path):
        pols = load_policies(self._policies_file(tmp_path, [math.inf, 0.5]))
        assert [p.threshold for p in pols] == [math.inf, 0.5]

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"threshold", "threshold": 1e400', "policies[0].threshold: must be finite, got inf"),
            ('"threshold", "threshold": -Infinity', "policies[0].threshold: must be finite, got -inf"),
            ('"threshold", "threshold": NaN', "policies[0].threshold: must be finite, got nan"),
            ('"threshold", "threshold": 1' + "0" * 399,
             "policies[0].threshold: must lie within the float range"),
            ('"constant", "rate": Infinity', "policies[0].rate: must be finite, got inf"),
        ],
        ids=["overflowing-literal", "minus-infinity", "nan", "400-digit-integer", "infinite-rate"],
    )
    def test_only_the_literal_infinity_is_an_infinite_threshold(self, tmp_path, capsys, entry, message):
        # 1e400 also reads as inf, but only the literal Infinity says never transmit.
        path = tmp_path / "policies.json"
        path.write_text(
            f'{{"schema_version": 1, "policies": [{{"kind": {entry}}}, {json.dumps(self.T)}]}}'
        )
        argv = ["simulate", write_config(tmp_path, base_config()), "--policies", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_rejects_wrong_policies_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99, "policies": []}))
        with pytest.raises(ConfigError, match="schema_version"):
            load_policies(str(path))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--horizon", "0"], "error: --horizon 0: horizon must be >= 1, got 0"),
            (["--horizon", "-4"], "error: --horizon -4: horizon must be >= 1, got -4"),
            (
                ["--horizon", str(2**62)],
                f"error: --horizon {2**62}: horizon must be at most 576460752303423487 "
                f"for these loops, got {2**62}",
            ),
            (
                ["--horizon", "500", "--seed", "3"],
                "error: --horizon 500 --seed 3: burn_in must lie in [0, horizon), "
                "got 1000 for horizon 500",
            ),
            (["--seed", "-1"], "error: --seed: must be >= 0, got -1"),
        ],
        ids=["horizon-0", "horizon-negative", "horizon-too-large", "burn_in-past-horizon", "seed"],
    )
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, flags, message):
        raw = base_config()
        raw["simulation"]["burn_in"] = 1000
        pols = self._policies_file(tmp_path, [0.35, 0.89])
        argv = ["simulate", write_config(tmp_path, raw), "--policies", pols]
        assert main(argv + ["--out", str(tmp_path / "out")] + flags) == EXIT_CONFIG
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_horizon_flag_overrides_the_config(self, tmp_path):
        raw = base_config()
        cfg = write_config(tmp_path, raw)
        pols = self._policies_file(
            tmp_path, [0.34934006025424225, 0.8881000386856908]
        )
        out = tmp_path / "out"
        code = main(
            ["simulate", cfg, "--policies", pols, "--out", str(out), "--horizon", "500"]
        )
        assert code == EXIT_OK

    def test_horizon_flag_derives_the_default_burn_in_from_itself(self, tmp_path, capsys):
        # The config gives no burn_in, so the run drops a tenth of the
        # flag's horizon, not of the config's 20,000 slots.
        cfg = write_config(tmp_path, base_config())
        pols = self._policies_file(tmp_path, [0.34934006025424225, 0.8881000386856908])
        argv = ["simulate", cfg, "--policies", pols, "--out", str(tmp_path / "out")]
        assert main(argv + ["--horizon", "2000"]) == EXIT_OK
        assert "simulated 2000 slots (burn-in 200)\n" in capsys.readouterr().out


class TestCliEdgeRequirements:
    # Loop 0 either contracts without any delivery (requirement 0) or meets
    # the contract with equality in its closed mode (requirement 1).
    ZERO = {"a_open": 0.5, "a_closed": 0.3}
    BOUNDARY = {"a_closed": 0.5, "decay_rate": 0.25}

    def _argv(self, tmp_path, command, loop):
        raw = base_config()
        raw["systems"][0].update(loop)
        argv = [command, write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
        if command == "simulate":
            path = tmp_path / "policies.json"
            pol = {"kind": "threshold", "threshold": 0.5}
            path.write_text(json.dumps({"schema_version": 1, "policies": [pol, pol]}))
            argv += ["--policies", str(path)]
        return argv

    def test_zero_requirement_is_reported_by_rates(self, tmp_path):
        assert main(self._argv(tmp_path, "rates", self.ZERO)) == EXIT_OK
        lines = (tmp_path / "out" / "rates.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == 0.0

    @pytest.mark.parametrize("command", ["optimize", "pipeline"])
    def test_zero_requirement_exits_2_naming_the_loop(self, tmp_path, capsys, command):
        assert main(self._argv(tmp_path, command, self.ZERO)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: systems[0]: requirement is 0 ")

    @pytest.mark.parametrize("command", ["rates", "optimize", "pipeline"])
    def test_boundary_loop_exits_3(self, tmp_path, capsys, command):
        assert main(self._argv(tmp_path, command, self.BOUNDARY)) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "loop 0" in err and "boundary" in err

    # A 2 x 2 loop on the boundary and a scalar loop that fails admissibility:
    # they are computed in different dimension groups.
    BOUNDARY_2X2 = {
        "a_closed": [[0.5, 0.0], [0.0, 0.3]],
        "a_open": [[1.1, 0.0], [0.0, 1.1]],
        "noise_cov": [[1.0, 0.0], [0.0, 1.0]],
        "lyap_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "decay_rate": 0.25,
    }
    INADMISSIBLE = {"a_closed": 1.05, "a_open": 1.1, "noise_cov": 1.0, "lyap_matrix": 1.0, "decay_rate": 0.8}

    @pytest.mark.parametrize(
        "failing, message",
        [
            (
                (BOUNDARY_2X2, INADMISSIBLE),
                "error: loop 1: closed-loop admissibility holds only on its boundary: "
                "A_c' P A_c - rho P is singular, so the contract needs every packet "
                "delivered (requirement 1)\n",
            ),
            (
                (INADMISSIBLE, BOUNDARY_2X2),
                "error: loop 1: closed-loop admissibility fails: A_c' P A_c <= rho P "
                "does not hold (slack 0.3025); no delivery probability can certify "
                "the contract\n",
            ),
        ],
        ids=["boundary-first", "inadmissible-first"],
    )
    @pytest.mark.parametrize("command", ["rates", "optimize", "pipeline"])
    def test_first_failing_loop_in_config_order_is_named(
        self, tmp_path, capsys, command, failing, message
    ):
        raw = base_config()
        raw["systems"] = [raw["systems"][0], *failing]
        raw["channels"].append(raw["channels"][0])
        raw["collision"] = [[0.0 if i == j else 0.1 for j in range(3)] for i in range(3)]
        raw["tx_powers"] = [1.0, 1.0, 1.0]
        argv = [command, write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("loop", [ZERO, BOUNDARY], ids=["zero", "boundary"])
    def test_simulate_does_not_need_the_requirements(self, tmp_path, loop):
        # Replaying given policies reads no delivery target.
        assert main(self._argv(tmp_path, "simulate", loop)) == EXIT_OK
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3


class TestCliParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("rates", "optimize", "simulate", "pipeline"):
            args = parser.parse_args(
                [cmd, "cfg.json"]
                + (["--policies", "p.json"] if cmd == "simulate" else [])
            )
            assert callable(args.func)

    def test_mode_flag_is_restricted(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["optimize", "cfg.json", "--mode", "exact"])
