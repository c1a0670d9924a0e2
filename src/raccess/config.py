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
import operator
from itertools import chain, groupby

import numpy as np

from ._frozen import Frozen, frozen
from .channel import (
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    LogisticLogCurve,
    MonteCarlo,
    SaturatingExpCurve,
    UniformFading,
)
from .control import PlantControllerPair, SwitchedSystem, assemble_example_loop, check_loops
from .optimizer import DEFAULT_BOX, OptimizerSettings, StepSchedule, StopRule, _check_entries
from .simulate import SimulationSettings

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
    "requirement_tol",  # read as a number so older configs load; has no effect
    "optimizer",
    "simulation",
    "output_dir",
}
# The optimizer keys of the StepSchedule and MonteCarlo fields named otherwise.
_RENAMED = {"a": "step_a", "b": "step_b", "samples": "mc_samples"}
_BOX_KEYS = ("beta_min", "beta_max")
_OPT_KEYS = frozenset(f.name for f in dataclasses.fields(StopRule)).union(
    _RENAMED.values(), _BOX_KEYS, ("seed", "expectation_mode")
)


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
_RAW_SYSTEM_FIELDS = operator.itemgetter(*(f.name for f in dataclasses.fields(SwitchedSystem)))
# The pair form also gives assemble_example_loop's keyword arguments.
_ASSEMBLY_KEYS = ("lyap_matrix", "decay_rate", "noise_mode")
_PAIR_SYSTEM_KEYS = _keys(
    PlantControllerPair, required=_ASSEMBLY_KEYS[:2], optional=_ASSEMBLY_KEYS[2:]
)


_SIM_KEYS = _keys(SimulationSettings)


@frozen
class ExperimentConfig(Frozen):
    """A parsed and validated experiment config (``parse_config``)."""

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


def _loop_field(key, value, path):
    """A loop's field: ``decay_rate`` a number, ``noise_mode`` as given, any other an array."""
    if key == "noise_mode":
        return value
    return (_number if key == "decay_rate" else _numbers)(value, f"{path}.{key}")


def _parse_pair(entry, path):
    """A loop given as a plant/controller pair, assembled into its SwitchedSystem."""
    loop = {k: _loop_field(k, v, path) for k, v in _object(entry, _PAIR_SYSTEM_KEYS, path).items()}
    assembly = {key: loop.pop(key) for key in _ASSEMBLY_KEYS if key in loop}
    try:
        system, _, _ = assemble_example_loop(PlantControllerPair(**loop), **assembly)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return system


def _parse_systems(entries):
    """The ``systems`` list: pairs assembled one by one, raw loops checked in stacks.

    The raw-form loops' numbers are scanned together, read loop by loop only
    to name a bad one, and the loops go through ``check_loops`` together, one
    stacked pass per state dimension. The error raised is that of the first
    bad loop in config order: its keys, then its numbers, then its checks.
    """
    systems, raw, at = [], [], []
    first_bad = None
    for k, entry in enumerate(entries):
        path = f"systems[{k}]"
        try:
            if isinstance(entry, dict) and "plant_a" in entry:
                systems.append(_parse_pair(entry, path))
                continue
            raw.append(_RAW_SYSTEM_FIELDS(_object(entry, _RAW_SYSTEM_KEYS, path)))
        except ConfigError as exc:
            first_bad = exc
            break  # no later loop can come first
        at.append(k)
        systems.append(None)
    rates = [loop[-1] for loop in raw]
    matrices = list(chain.from_iterable(loop[:-1] for loop in raw))
    # A rate is one number, which _all_numbers alone would not see in rates that are all lists.
    clean_rates = set(map(type, rates)) <= _NUMBER_TYPES and _all_numbers(rates)
    if not (clean_rates and _all_numbers(matrices)):
        for i, k in enumerate(at):
            try:
                for key, value in entries[k].items():
                    _loop_field(key, value, f"systems[{k}]")
            except ConfigError as exc:
                first_bad, raw = exc, raw[:i]
                break
    checked, failures = check_loops(raw)
    if failures:
        i = min(failures)
        raise ConfigError(f"systems[{at[i]}]: {failures[i]}") from failures[i]
    if first_bad is not None:
        raise first_bad
    for k, system in zip(at, checked):
        systems[k] = system
    return tuple(systems)


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
    # Read outside the try: a number's own error already names its full path.
    values = {k: _number(v, f"{path}.{k}") for k, v in entry.items() if k != "family"}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_channel(entry, path):
    _object(entry, _CHANNEL_KEYS, path)
    return FadingChannel(
        dist=_parse_family(entry["dist"], _FADES, f"{path}.dist"),
        curve=_parse_family(entry["curve"], _CURVES, f"{path}.curve"),
    )


_NUMBER_TYPES = frozenset((int, float))  # a bool is not a number


def _number(value, field, finite=True):
    """``value`` as a float: the rule for every number a file gives.

    It must be a JSON int or float within the float range, and finite unless
    ``finite`` is false (``json`` reads ``NaN`` and ``1e400`` as nan and inf).
    """
    if type(value) not in _NUMBER_TYPES:
        raise ConfigError(f"{field}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{field}: must lie within the float range") from exc
    if finite and not math.isfinite(number):
        raise ConfigError(f"{field}: must be finite, got {number!r}")
    return number


def _all_numbers(value):
    """Whether ``_number`` accepts every entry of ``value``, a number or nested lists of them.

    Per level of lists, one ``groupby`` over types and one flattening, in C; the
    float sum is finite only if every entry is, and raises on a huge integer.
    """
    leaves = [value]
    while (types := {kind for kind, _ in groupby(leaves, type)}) == {list}:
        leaves = list(chain.from_iterable(leaves))
    try:
        return types <= _NUMBER_TYPES and math.isfinite(sum(leaves, 0.0))
    except OverflowError:
        return False


def _numbers(value, field):
    """``value``, a number or nested lists of numbers, once ``_number`` accepts every entry.

    A clean value costs ``_all_numbers``' scans, not a call per entry; else the first
    bad entry is named, as ``collision[0][1]``. The caller's coercion judges its shape.
    """
    if not _all_numbers(value):
        if type(value) is list:
            for k, item in enumerate(value):
                _numbers(item, f"{field}[{k}]")
        else:
            _number(value, field)
    return value


def _integer(value, field):
    """A count: a number by ``_number``'s rule with an integral value, such as ``2e5``."""
    if type(value) is int or type(value) is float and value.is_integer():
        _number(value, field)  # an integer beyond the float range fails
        return int(value)
    raise ConfigError(f"{field}: must be an integer, got {value!r}")


def _schema_version(doc, expected):
    """Check that ``doc`` gives ``schema_version`` ``expected``, and not as a bool."""
    version = _require(doc, "schema_version", "top level")
    if isinstance(version, bool) or version != expected:
        raise ConfigError(f"schema_version: expected {expected}, got {version!r}")


def _load(path, what, parse_constant=None):
    """The JSON document at ``path``, the ``what`` file: a config or a policies file."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=parse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _settings(cls, entry, path):
    """``cls`` built from the fields ``entry`` gives; the others keep their defaults.

    A field with a float default is read as a number, any other as an
    integer; a null asks for the default where that is None (``burn_in``,
    whose default is horizon // 10). ``cls`` checks the values; its
    ValueError, whose message starts with the field's name (``a: must be
    > 0, ...`` or ``horizon must be >= 1, ...``), becomes a ConfigError
    naming the key.
    """
    fields = {}
    for f in dataclasses.fields(cls):
        key = _RENAMED.get(f.name, f.name)
        if key in entry and not (entry[key] is None and f.default is None):
            read = _number if isinstance(f.default, float) else _integer
            fields[f.name] = read(entry[key], f"{path}.{key}")
    try:
        return cls(**fields)
    except ValueError as exc:
        text = str(exc)
        name = text.split()[0].rstrip(":")
        raise ConfigError(f"{path}.{_RENAMED.get(name, name)}{text[len(name):]}") from exc


def _parse_optimizer(entry):
    """The ``optimizer`` section; its box and mode are checked before its other keys."""
    path = "optimizer"
    _check_keys(entry, _OPT_KEYS, path)
    box = [_number(entry.get(k, v), f"{path}.{k}") for k, v in zip(_BOX_KEYS, DEFAULT_BOX)]
    mode = entry.get("expectation_mode", OptimizerSettings.expectation_mode)
    try:
        settings = OptimizerSettings(box=box, expectation_mode=mode)
    except ValueError as exc:
        field = f"beta_min and {path}.beta_max: " if str(exc).startswith("box") else ""
        raise ConfigError(f"{path}.{field}{exc}") from exc
    return dataclasses.replace(
        settings,
        schedule=_settings(StepSchedule, entry, path),
        stop=_settings(StopRule, entry, path),
        mc=_settings(MonteCarlo, entry, path),
    )


def _parse_simulation(entry, systems):
    """The ``simulation`` section, checked against the loops ``systems``."""
    path = "simulation"
    settings = _settings(SimulationSettings, _object(entry, _SIM_KEYS, path), path)
    try:
        settings.check_horizon(systems)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    return settings


def parse_config(path):
    """Load and validate an experiment config from a JSON file.

    Returns
    -------
    ExperimentConfig

    Raises
    ------
    ConfigError
        On unreadable files, invalid JSON, unknown keys, or any field
        failing validation (numbers by ``_number``); the message names
        the field path, and the first error in reading order is raised.
    """
    return _build(_load(path, "config"))


def _build(raw):
    """The ExperimentConfig of a loaded JSON document."""
    _check_keys(raw, _TOP_KEYS, "top level")
    _schema_version(raw, SCHEMA_VERSION)
    if "requirement_tol" in raw:
        _number(raw["requirement_tol"], "requirement_tol")

    systems_raw = _require(raw, "systems", "top level")
    if not isinstance(systems_raw, list) or not systems_raw:
        raise ConfigError("systems: expected a non-empty list")
    systems = _parse_systems(systems_raw)
    m = len(systems)

    channels_raw = _require(raw, "channels", "top level")
    if not isinstance(channels_raw, list) or len(channels_raw) != m:
        raise ConfigError(f"channels: expected a list of {m} entries")
    channels = tuple(
        _parse_channel(entry, f"channels[{k}]") for k, entry in enumerate(channels_raw)
    )

    if "collision" in raw:
        q = _numbers(raw["collision"], "collision")
        try:
            collision = CollisionMatrix(q=np.asarray(q, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"collision: {exc}") from exc
        if collision.m != m:
            raise ConfigError(
                f"collision: matrix is {collision.m}x{collision.m}, expected {m}x{m}"
            )
    elif m == 1:
        collision = CollisionMatrix.none(1)
    else:
        raise ConfigError("missing required key 'collision' at top level")

    powers = _numbers(_require(raw, "tx_powers", "top level"), "tx_powers")
    try:
        tx_powers = _check_entries(powers, m, "tx_powers")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    optimizer = _parse_optimizer(raw.get("optimizer", {}))
    simulation = _parse_simulation(raw.get("simulation", {}), systems)
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
