"""JSON experiment configuration: strict parsing with field-path errors.

A config fixes the loops (raw switched matrices or plant/controller
blocks to assemble), the fading channels, the collision matrix, the
transmit power prices, and the optimizer/simulation settings. Unknown
keys are rejected, and every validation error names the offending field
path.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    LogisticLogCurve,
    SaturatingExpCurve,
    UniformFading,
)
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


def _keys(cls, required=(), optional=()):
    """The keys a config object for ``cls`` may give, and those it must give.

    They are ``cls``'s dataclass fields, required where the field has no
    default, plus the given extra keys.
    """
    fields = dataclasses.fields(cls)
    must = tuple(f.name for f in fields if f.default is dataclasses.MISSING) + required
    return frozenset(f.name for f in fields).union(must, optional), must


def _object(entry, keys, path):
    """``entry`` if it is an object that gives only ``keys``' keys and all required ones."""
    allowed, required = keys
    _check_keys(entry, allowed, path)
    for key in required:
        _require(entry, key, path)
    return entry


_FADES = {"exponential": ExponentialFading, "uniform": UniformFading}
_CURVES = {"exp_saturating": SaturatingExpCurve, "logistic_log": LogisticLogCurve}
# Built once here: parsing is about half of a ``rates`` call.
_FAMILY_KEYS = {
    cls: _keys(cls, optional=("family",)) for cls in (*_FADES.values(), *_CURVES.values())
}
_CHANNEL_KEYS = _keys(FadingChannel)
_RAW_SYSTEM_KEYS = _keys(SwitchedSystem)
# The pair form also gives assemble_example_loop's keyword arguments.
_ASSEMBLY_KEYS = ("lyap_matrix", "decay_rate", "noise_mode")
_PAIR_SYSTEM_KEYS = _keys(
    PlantControllerPair, required=_ASSEMBLY_KEYS[:2], optional=_ASSEMBLY_KEYS[2:]
)


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
    pair = isinstance(entry, dict) and "plant_a" in entry
    loop = dict(_object(entry, _PAIR_SYSTEM_KEYS if pair else _RAW_SYSTEM_KEYS, path))
    try:
        if pair:
            assembly = {key: loop.pop(key) for key in _ASSEMBLY_KEYS if key in loop}
            system, _, _ = assemble_example_loop(PlantControllerPair(**loop), **assembly)
            return system
        return SwitchedSystem(**loop)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_family(entry, table, path):
    """A fade law or success curve: ``table[family]`` built from that type's fields."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected an object")
    family = _require(entry, "family", path)
    if not isinstance(family, str) or family not in table:
        raise ConfigError(
            f"{path}: unknown family {family!r}, expected one of {', '.join(table)}"
        )
    cls = table[family]
    _object(entry, _FAMILY_KEYS[cls], path)
    try:
        return cls(**{key: _number(entry, key, None, path) for key in entry if key != "family"})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_channel(entry, path):
    _object(entry, _CHANNEL_KEYS, path)
    return FadingChannel(
        dist=_parse_family(entry["dist"], _FADES, f"{path}.dist"),
        curve=_parse_family(entry["curve"], _CURVES, f"{path}.curve"),
    )


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
    """``entry[key]`` (``default`` if absent) as float() reads it, which must be finite."""
    value = entry.get(key, default)
    try:
        number = float(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.{key}: must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{path}.{key}: must be finite, got {value!r}")
    return number


def _finite(text):
    """JSON number hook: ``NaN``, ``Infinity`` and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text}: every config number must be finite")
    return value


def _finite_int(text):
    """JSON integer hook: an integer beyond the float range is an error, as ``1e400`` is."""
    _finite(text)
    return int(text)


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
            raw = json.load(
                fh, parse_float=_finite, parse_int=_finite_int, parse_constant=_finite
            )
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
    if not np.all(np.isfinite(tx_powers)):
        raise ConfigError("tx_powers: all entries must be finite")
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
