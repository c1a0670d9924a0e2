"""JSON experiment configuration: strict parsing with field-path errors.

A config fixes the loops (raw switched matrices or plant/controller
blocks to assemble), the fading channels, the collision matrix, the
transmit power prices, and the optimizer/simulation settings. Unknown
keys are rejected, and every validation error names the offending field
path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import CollisionMatrix, channel_from_dict
from .control import PlantControllerPair, SwitchedSystem, assemble_example_loop
from .optimizer import DEFAULT_BOX, StepSchedule, StopRule

__all__ = [
    "ConfigError",
    "OptimizerSettings",
    "SimulationSettings",
    "ExperimentConfig",
    "parse_config",
]

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "systems",
    "channels",
    "collision",
    "tx_powers",
    "requirement_tol",  # accepted so older configs load; has no effect
    "optimizer",
    "simulation",
    "output_dir",
}
_RAW_SYSTEM_KEYS = {"a_closed", "a_open", "noise_cov", "lyap_matrix", "decay_rate"}
_PAIR_SYSTEM_KEYS = {
    "plant_a",
    "plant_b",
    "plant_c",
    "ctrl_f",
    "ctrl_fc",
    "ctrl_g",
    "ctrl_k",
    "ctrl_kc",
    "ctrl_l",
    "process_noise_cov",
    "meas_noise_cov",
    "lyap_matrix",
    "decay_rate",
    "noise_mode",
}
_CHANNEL_KEYS = {"dist", "curve"}
_DIST_KEYS = {"family", "mean", "low", "high"}
_CURVE_KEYS = {"family", "kappa", "gain", "midpoint", "steepness"}
_OPT_KEYS = {
    "step_a",
    "step_b",
    "beta_min",
    "beta_max",
    "max_periods",
    "slack_tol",
    "dual_change_tol",
    "window",
    "divergence_bound",
    "expectation_mode",
    "mc_samples",
    "seed",
}
_SIM_KEYS = {"horizon", "seed", "burn_in", "thin"}


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or invalid."""


def _check_keys(d, allowed, path):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' at {path}")


def _require(d, key, path):
    if key not in d:
        raise ConfigError(f"missing required key '{key}' at {path}")
    return d[key]


@dataclass(frozen=True)
class OptimizerSettings:
    schedule: StepSchedule = StepSchedule()
    stop: StopRule = StopRule()
    box: tuple = DEFAULT_BOX
    expectation_mode: str = "quadrature"
    mc_samples: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class SimulationSettings:
    horizon: int = 200_000
    seed: int = 0
    burn_in: int = None
    thin: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    systems: tuple
    channels: tuple
    collision: CollisionMatrix
    tx_powers: np.ndarray
    optimizer: OptimizerSettings = OptimizerSettings()
    simulation: SimulationSettings = SimulationSettings()
    output_dir: str = "."

    @property
    def m(self):
        return len(self.systems)


def _parse_system(entry, path):
    _check_keys(
        entry,
        _PAIR_SYSTEM_KEYS if "plant_a" in entry else _RAW_SYSTEM_KEYS,
        path,
    )
    try:
        if "plant_a" in entry:
            pair = PlantControllerPair(
                plant_a=_require(entry, "plant_a", path),
                plant_b=_require(entry, "plant_b", path),
                plant_c=_require(entry, "plant_c", path),
                ctrl_f=_require(entry, "ctrl_f", path),
                ctrl_fc=_require(entry, "ctrl_fc", path),
                ctrl_g=_require(entry, "ctrl_g", path),
                ctrl_k=_require(entry, "ctrl_k", path),
                ctrl_kc=_require(entry, "ctrl_kc", path),
                ctrl_l=_require(entry, "ctrl_l", path),
                process_noise_cov=_require(entry, "process_noise_cov", path),
                meas_noise_cov=_require(entry, "meas_noise_cov", path),
            )
            system, _, _ = assemble_example_loop(
                pair,
                lyap_matrix=_require(entry, "lyap_matrix", path),
                decay_rate=_require(entry, "decay_rate", path),
                noise_mode=entry.get("noise_mode", "closed"),
            )
            return system
        return SwitchedSystem(
            a_closed=_require(entry, "a_closed", path),
            a_open=_require(entry, "a_open", path),
            noise_cov=_require(entry, "noise_cov", path),
            lyap_matrix=_require(entry, "lyap_matrix", path),
            decay_rate=_require(entry, "decay_rate", path),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_channel(entry, path):
    _check_keys(entry, _CHANNEL_KEYS, path)
    dist = _require(entry, "dist", path)
    curve = _require(entry, "curve", path)
    _check_keys(dist, _DIST_KEYS, f"{path}.dist")
    _check_keys(curve, _CURVE_KEYS, f"{path}.curve")
    try:
        return channel_from_dict({"dist": dist, "curve": curve})
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _integer(value, field):
    """A JSON integer, or a float with an integral value such as ``2e5``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{field}: must be an integer, got {value!r}")


def _seed(entry, path):
    seed = _integer(entry.get("seed", 0), f"{path}.seed")
    if seed < 0:
        raise ConfigError(f"{path}.seed: must be >= 0, got {seed}")
    return seed


def _number(entry, key, default, path):
    """``entry[key]`` (``default`` if absent) as float() reads it."""
    value = entry.get(key, default)
    try:
        return float(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.{key}: must be a number, got {value!r}") from exc


def _finite(text):
    """JSON number hook: ``NaN``, ``Infinity`` and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text}: every config number must be finite")
    return value


def _parse_optimizer(entry):
    path = "optimizer"
    _check_keys(entry, _OPT_KEYS, path)
    a = _number(entry, "step_a", StepSchedule.a, path)
    b = _number(entry, "step_b", StepSchedule.b, path)
    try:
        schedule = StepSchedule(a=a, b=b)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    stop_fields = {
        key: _number(entry, key, getattr(StopRule, key), path)
        for key in ("slack_tol", "dual_change_tol", "divergence_bound")
    }
    for key in ("max_periods", "window"):
        stop_fields[key] = _integer(entry.get(key, getattr(StopRule, key)), f"{path}.{key}")
    try:
        stop = StopRule(**stop_fields)
    except ValueError as exc:  # the message starts with the field name
        raise ConfigError(f"{path}.{exc}") from exc
    box = (_number(entry, "beta_min", DEFAULT_BOX[0], path),
           _number(entry, "beta_max", DEFAULT_BOX[1], path))
    if not 0.0 < box[0] < box[1] < 1.0:
        raise ConfigError(
            f"{path}: beta box must satisfy 0 < beta_min < beta_max < 1, got {box}"
        )
    mode = entry.get("expectation_mode", "quadrature")
    if mode not in ("quadrature", "mc"):
        raise ConfigError(
            f"{path}.expectation_mode: must be 'quadrature' or 'mc', got {mode!r}"
        )
    samples = _integer(entry.get("mc_samples", 10_000), f"{path}.mc_samples")
    if samples < 1:
        raise ConfigError(f"{path}.mc_samples: must be >= 1")
    return OptimizerSettings(
        schedule=schedule,
        stop=stop,
        box=box,
        expectation_mode=mode,
        mc_samples=samples,
        seed=_seed(entry, path),
    )


def _parse_simulation(entry):
    path = "simulation"
    _check_keys(entry, _SIM_KEYS, path)
    horizon = _integer(entry.get("horizon", 200_000), f"{path}.horizon")
    if horizon < 1:
        raise ConfigError(f"{path}.horizon: must be >= 1, got {horizon}")
    burn = entry.get("burn_in", None)
    if burn is not None:
        burn = _integer(burn, f"{path}.burn_in")
        if not 0 <= burn < horizon:
            raise ConfigError(
                f"{path}.burn_in: must lie in [0, horizon), got {burn}"
            )
    thin = _integer(entry.get("thin", 0), f"{path}.thin")
    if thin < 0:
        raise ConfigError(f"{path}.thin: must be >= 0, got {thin}")
    return SimulationSettings(
        horizon=horizon,
        seed=_seed(entry, path),
        burn_in=burn,
        thin=thin,
    )


def parse_config(path):
    """Load and validate an experiment config from a JSON file.

    Returns
    -------
    ExperimentConfig

    Raises
    ------
    ConfigError
        On unreadable files, invalid JSON, non-finite numbers (``NaN``,
        ``Infinity``, ``1e400``), unknown keys, or any field failing
        validation; the message names the field path.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc

    _check_keys(raw, _TOP_KEYS, "top level")
    version = _require(raw, "schema_version", "top level")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )

    systems_raw = _require(raw, "systems", "top level")
    if not isinstance(systems_raw, list) or not systems_raw:
        raise ConfigError("systems: expected a non-empty list")
    systems = tuple(
        _parse_system(entry, f"systems[{k}]") for k, entry in enumerate(systems_raw)
    )
    m = len(systems)

    channels_raw = _require(raw, "channels", "top level")
    if not isinstance(channels_raw, list) or len(channels_raw) != m:
        raise ConfigError(f"channels: expected a list of {m} entries")
    channels = tuple(
        _parse_channel(entry, f"channels[{k}]") for k, entry in enumerate(channels_raw)
    )

    if "collision" in raw:
        try:
            collision = CollisionMatrix(q=np.asarray(raw["collision"], dtype=float))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"collision: {exc}") from exc
        if collision.m != m:
            raise ConfigError(
                f"collision: matrix is {collision.m}x{collision.m}, expected {m}x{m}"
            )
    elif m == 1:
        collision = CollisionMatrix.none(1)
    else:
        raise ConfigError("missing required key 'collision' at top level")

    powers_raw = _require(raw, "tx_powers", "top level")
    try:
        tx_powers = np.asarray(powers_raw, dtype=float).reshape(-1)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"tx_powers: {exc}") from exc
    if tx_powers.shape[0] != m:
        raise ConfigError(f"tx_powers: expected {m} entries, got {tx_powers.shape[0]}")
    if np.any(tx_powers <= 0.0):
        raise ConfigError("tx_powers: all entries must be positive")

    optimizer = _parse_optimizer(raw.get("optimizer", {}))
    simulation = _parse_simulation(raw.get("simulation", {}))
    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")

    return ExperimentConfig(
        systems=systems,
        channels=channels,
        collision=collision,
        tx_powers=tx_powers,
        optimizer=optimizer,
        simulation=simulation,
        output_dir=output_dir,
    )
