"""The frozen value types share ``Frozen``'s methods and behave as frozen dataclasses.

Each public value type is compared with a twin that
``dataclasses.make_dataclass(..., frozen=True)`` generates from the same
fields: assignment, deletion, ``==``, ``hash``, ``repr``, ``replace``,
``fields``, ``asdict`` and the TypeErrors of argument binding must match.
"""

import copy
import dataclasses
import functools
import importlib
import inspect
import os
import pickle
import pkgutil
import re

import numpy as np
import pytest

import raccess
from helpers import reference_channel, reference_instance, scalar_system
from raccess import (
    AccessPolicy,
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    LogisticLogCurve,
    MonteCarlo,
    OptimizationResult,
    PlantControllerPair,
    ProblemInstance,
    SaturatingExpCurve,
    SimMetrics,
    SimulationSettings,
    StepSchedule,
    StopRule,
    SwitchedSystem,
    UniformFading,
    constant_policy,
    dual_periods,
    threshold_policy,
)
from raccess._frozen import Frozen
from raccess.config import ExperimentConfig, OptimizerSettings, parse_config
from raccess.optimizer import IterationTrace
from raccess.simulate import DriftRecord, GammaRateRecord

REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "twoloop.json")
GENERATED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def first_period():
    return next(dual_periods(reference_instance()))


def samples():
    """One or two instances of every public frozen type, by type."""
    pair = PlantControllerPair(
        plant_a=[[1.05]], plant_b=[[1.0]], plant_c=[[1.0]],
        ctrl_f=[[0.2]], ctrl_fc=[[0.0]], ctrl_g=[[0.1]],
        ctrl_k=[[0.0]], ctrl_kc=[[0.0]], ctrl_l=[[-0.6]],
        process_noise_cov=[[0.5]], meas_noise_cov=[[0.2]],
    )
    policies = (threshold_policy(0.3), threshold_policy(0.9))
    return {
        ExponentialFading: [ExponentialFading(), ExponentialFading(mean=2.5)],
        UniformFading: [UniformFading(0.2, 1.5), UniformFading(low=0.0, high=3.0)],
        SaturatingExpCurve: [SaturatingExpCurve(), SaturatingExpCurve(kappa=0.7, gain=2.3)],
        LogisticLogCurve: [LogisticLogCurve(0.8, 2.5), LogisticLogCurve(midpoint=1.3, steepness=0.4)],
        FadingChannel: [
            reference_channel(),
            FadingChannel(UniformFading(0.2, 1.5), LogisticLogCurve(0.8, 2.5)),
        ],
        CollisionMatrix: [CollisionMatrix.none(2), CollisionMatrix(q=[[0.0, 0.5], [0.5, 0.0]])],
        MonteCarlo: [MonteCarlo(), MonteCarlo(samples=300, seed=5)],
        OptimizerSettings: [
            OptimizerSettings(),
            OptimizerSettings(expectation_mode="mc", mc=MonteCarlo(300, 5)),
        ],
        SimulationSettings: [
            SimulationSettings(),
            SimulationSettings(horizon=1000, seed=3, burn_in=10, thin=2),
        ],
        ExperimentConfig: [parse_config(REFERENCE_CONFIG)],
        SwitchedSystem: [scalar_system(1.1, 0.5), scalar_system(1.0, 0.4)],
        PlantControllerPair: [pair],
        ProblemInstance: [reference_instance()],
        StepSchedule: [StepSchedule(), StepSchedule(a=5.0, b=2.0)],
        StopRule: [StopRule(), StopRule(max_periods=10, window=3)],
        OptimizationResult: [
            OptimizationResult(
                policies=policies[:1], state=first_period(), trace=IterationTrace(1),
                converged=True, periods=3,
            )
        ],
        AccessPolicy: [threshold_policy(0.7), constant_policy(0.3)],
        SimMetrics: [
            SimMetrics(
                empirical_cost=np.ones(2), empirical_tx_rate=np.zeros(2),
                empirical_success_rate=np.zeros(2), horizon=10, burn_in=1,
            )
        ],
        GammaRateRecord: [
            GammaRateRecord(link=0, empirical=0.5, analytic=0.49, z_score=1.2),
            GammaRateRecord(link=1, empirical=0.5, analytic=0.49, z_score=1.2),
        ],
        DriftRecord: [
            DriftRecord(system=0, sample_mean=1.0, bound=2.0, std_error=0.1, z_score=-10.0, ok=True)
        ],
    }


SAMPLES = samples()
TYPES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def raccess_classes():
    """Every class defined in a raccess module."""
    for info in pkgutil.iter_modules(raccess.__path__):
        module = importlib.import_module(f"raccess.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


@functools.cache
def twin_class(cls):
    """A ``dataclass(frozen=True)`` with ``cls``'s name and fields, its methods generated."""
    specs = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def values(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def twin(obj):
    return twin_class(type(obj))(**values(obj))


def plain_repr(obj):
    """``repr(obj)`` without addresses, which differ between copies."""
    return re.sub(r"0x[0-9a-f]+", "0x", repr(obj))


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def test_every_public_value_type_is_sampled():
    frozen = {cls for cls in raccess_classes() if issubclass(cls, Frozen) and cls is not Frozen}
    assert frozen == set(SAMPLES)
    assert len(SAMPLES) == 20


def test_no_class_carries_a_generated_method():
    # dataclasses compiles the methods it generates from source text, so
    # their code comes from "<string>"; Frozen's come from its file.
    generated = [
        f"{cls.__name__}.{name}"
        for cls in raccess_classes()
        for name, attr in vars(cls).items()
        if inspect.isfunction(attr)
        and inspect.unwrap(attr).__code__.co_filename == "<string>"
    ]
    assert generated == []
    for cls in SAMPLES:
        assert all(getattr(cls, name) is getattr(Frozen, name) for name in GENERATED), cls


@TYPES
def test_assigning_or_deleting_raises_as_on_the_twin(cls):
    obj = SAMPLES[cls][0]
    before = values(obj)
    for name in [*before, "not_a_field"]:
        for action in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            got = outcome(lambda: action(obj))
            assert got[0] is dataclasses.FrozenInstanceError
            assert got == outcome(lambda: action(twin(obj)))
    assert all(getattr(obj, name) is value for name, value in before.items())
    assert not hasattr(obj, "not_a_field")


@TYPES
def test_eq_hash_and_repr_match_the_twin(cls):
    objs = SAMPLES[cls]
    for a in objs:
        assert repr(a) == repr(twin(a))
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(twin(a)))
        assert a.__eq__(twin(a)) is NotImplemented and a != twin(a)
        for b in [*objs, copy.copy(a)]:
            assert outcome(lambda: a == b) == outcome(lambda: twin(a) == twin(b))


@TYPES
def test_replace_fields_asdict_and_pickle_work(cls):
    obj = SAMPLES[cls][0]
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(cls.__annotations__)
    again = dataclasses.replace(obj)
    assert type(again) is cls and again is not obj and repr(again) == repr(obj)
    assert plain_repr(dataclasses.asdict(obj)) == plain_repr(dataclasses.asdict(twin(obj)))
    assert plain_repr(pickle.loads(pickle.dumps(obj))) == plain_repr(obj)
    assert inspect.signature(cls) == inspect.signature(Frozen)


@TYPES
def test_arguments_bind_as_the_generated_init_binds(cls):
    obj = SAMPLES[cls][0]
    kw = values(obj)
    names, vals = list(kw), list(kw.values())
    tail = {name: kw[name] for name in names[1:]}
    calls = [
        ((), kw),
        (vals, {}),
        (vals[:1], tail),
        ((*vals, 0), {}),
        ((), {}),
        ((), {names[-1]: vals[-1]}),
        (vals[:1], {names[0]: vals[0]}),
        ((), {**kw, "not_a_field": 0}),
        (vals[:1], {"not_a_field": 0}),
    ]
    for args, kwargs in calls:
        want = outcome(lambda: twin_class(cls)(*args, **kwargs))
        got = outcome(lambda: cls(*args, **kwargs))
        if want[0] is TypeError:
            assert got == want, (args, kwargs)
        else:
            assert got[0] is not TypeError, (args, kwargs, got)
    assert repr(cls(*vals)) == repr(cls(**kw)) == repr(obj)
