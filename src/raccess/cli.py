"""Command-line front end.

Subcommands mirror the workflow: ``rates`` computes each loop's delivery
requirement, ``optimize`` designs the access policies, ``simulate``
replays designed policies at slot level, and ``pipeline`` chains all
three into one report. All artifacts land in ``--out`` (or the config's
``output_dir``) with deterministic full-precision formatting.

Exit codes: 0 success, 2 config/parse error (or an output directory that
cannot be made, or a run too large for memory), 3 infeasible performance
contract, 4 optimizer divergence or non-convergence, 5 unstable simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .channel import link_success_probability
from .config import ConfigError, _check_keys, _load, _number, _require, _schema_version, parse_config
from .control import InfeasibleContractError, steady_state_cost_bound, success_requirements

# Not called here; perfbench's tracer looks this name up in this module.
from .control import compute_success_requirement  # noqa: F401
from .optimizer import DivergenceError, ProblemInstance, run_algorithm1
from .policy import constant_policy, threshold_policy
from .serialize import fmt, write_csv, write_json
from .simulate import UnstableSimulationError, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4
EXIT_UNSTABLE = 5

POLICIES_SCHEMA_VERSION = 1
# Each policy kind's one number in the policies file, and its constructor.
_POLICY_KINDS = {
    "threshold": ("threshold", threshold_policy),
    "constant": ("rate", constant_policy),
}
# How json reads NaN and ±Infinity, but with the literal Infinity as math.inf itself.
_CONSTANTS = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _out_dir(args, cfg):
    name, out = ("output_dir", cfg.output_dir) if args.out is None else ("--out", args.out)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{name}: cannot make directory {out!r}: {exc.strerror}") from exc
    return out


def _requirements(cfg):
    try:
        return success_requirements(cfg.systems)
    except InfeasibleContractError as exc:
        raise InfeasibleContractError(f"loop {exc.loop}: {exc}", loop=exc.loop) from exc


def _instance(cfg, targets):
    for i, c in enumerate(targets):
        if c == 0.0:
            raise ConfigError(
                f"systems[{i}]: requirement is 0 (its open loop already meets the "
                "contract), so it has no delivery target to design for"
            )
    return ProblemInstance(
        systems=cfg.systems,
        channels=cfg.channels,
        collision=cfg.collision,
        tx_powers=cfg.tx_powers,
        success_targets=targets,
    )


def _write_rates(out, targets):
    write_csv(
        os.path.join(out, "rates.csv"),
        ["system", "requirement"],
        (np.arange(len(targets)), targets),
    )


def _policies_doc(result, inst, link):
    return {
        "schema_version": POLICIES_SCHEMA_VERSION,
        "policies": [p.to_dict() for p in result.policies],
        "duals": {
            "lambda": [float(v) for v in result.state.lam],
            "nu": [[float(v) for v in row] for row in result.state.nu],
        },
        "converged": bool(result.converged),
        "periods": int(result.periods),
        "objective": float(result.trace.column("objective")[-1]) if len(result.trace) else None,
        "success_targets": [float(c) for c in inst.success_targets],
        "link_success": [float(v) for v in link],
    }


def load_policies(path):
    """Read a policies JSON file back into AccessPolicy objects."""
    doc = _load(path, "policies", parse_constant=_CONSTANTS.__getitem__)
    entries = doc.get("policies") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not all(isinstance(d, dict) for d in entries):
        raise ConfigError(f"{path}: expected an object with a 'policies' list of objects")
    try:
        _schema_version(doc, POLICIES_SCHEMA_VERSION)
        return [_read_policy(d, f"policies[{i}]") for i, d in enumerate(entries)]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_policy(entry, path):
    """A policies-file entry: its ``kind`` and that kind's number, and no other key."""
    kind = _require(entry, "kind", path)
    if not isinstance(kind, str) or kind not in _POLICY_KINDS:
        raise ConfigError(f"{path}.kind: must be 'threshold' or 'constant', got {kind!r}")
    field, make_policy = _POLICY_KINDS[kind]
    _check_keys(entry, ("kind", field), path)
    # A threshold may be the literal Infinity, never transmit; 1e400 reads as another inf.
    value = _require(entry, field, path)
    value = _number(value, f"{path}.{field}", finite=kind != "threshold" or value is not math.inf)
    try:
        return make_policy(value)
    except ValueError as exc:
        raise ConfigError(f"{path}.{field}: {exc}") from exc


def cmd_rates(args):
    cfg = parse_config(args.config)
    targets = _requirements(cfg)
    out = _out_dir(args, cfg)
    print("system  requirement")
    for i, c in enumerate(targets):
        print(f"{i:<7d} {fmt(c)}")
    _write_rates(out, targets)
    return EXIT_OK


def _design(cfg, args, out):
    """Design the policies, write rates, trace and policies, print a summary.

    The settings are the config's, with ``--mode`` and ``--seed`` (the
    Monte Carlo seed) applied. Shared by cmd_optimize and cmd_pipeline;
    reports non-convergence on stderr and leaves the exit code to the caller.
    """
    inst = _instance(cfg, _requirements(cfg))
    opt = cfg.optimizer
    mc = opt.mc if args.seed is None else dataclasses.replace(opt.mc, seed=args.seed)
    mode = opt.expectation_mode if args.mode is None else args.mode
    result = run_algorithm1(inst, dataclasses.replace(opt, expectation_mode=mode, mc=mc))
    link = link_success_probability(result.policies, cfg.channels, cfg.collision)
    _write_rates(out, inst.success_targets)
    result.trace.to_csv(os.path.join(out, "trace.csv"))
    write_json(os.path.join(out, "policies.json"), _policies_doc(result, inst, link))
    status = "converged" if result.converged else "did not converge"
    print(f"optimizer {status} after {result.periods} periods")
    for i, pol in enumerate(result.policies):
        print(
            f"loop {i}: threshold {fmt(pol.threshold)}, delivery {fmt(link[i])} "
            f"(requirement {fmt(inst.success_targets[i])})"
        )
    if not result.converged:
        print("error: optimizer did not converge within max_periods", file=sys.stderr)
    return inst, result, link


def cmd_optimize(args):
    cfg = parse_config(args.config)
    _, result, _ = _design(cfg, args, _out_dir(args, cfg))
    return EXIT_OK if result.converged else EXIT_DIVERGED


def _simulate(cfg, policies, args, out):
    """Simulate the policies on the config's loops; write and print metrics.

    The settings are the config's, with ``--horizon`` and ``--seed`` applied.
    Returns the metrics and each loop's steady-state cost bound.
    """
    flags = {k: getattr(args, k) for k in ("horizon", "seed") if getattr(args, k, None) is not None}
    try:  # the config's own settings passed as it loaded, so a failure is a flag's
        settings = dataclasses.replace(cfg.simulation, **flags)
        settings.check_horizon(cfg.systems)
    except ValueError as exc:
        raise ConfigError(" ".join(f"--{k} {v}" for k, v in flags.items()) + f": {exc}") from exc
    if len(policies) != cfg.m:  # only a policies file can give another count
        raise ConfigError(f"{len(policies)} policies for {cfg.m} loops")
    metrics = run_simulation(cfg, policies, settings)
    bounds = [steady_state_cost_bound(s) for s in cfg.systems]
    write_csv(
        os.path.join(out, "metrics.csv"),
        [
            "system",
            "empirical_cost",
            "empirical_tx_rate",
            "empirical_success_rate",
            "cost_bound",
        ],
        (
            np.arange(cfg.m),
            metrics.empirical_cost,
            metrics.empirical_tx_rate,
            metrics.empirical_success_rate,
            bounds,
        ),
    )
    if metrics.trajectory is not None:
        write_csv(
            os.path.join(out, "trajectory.csv"),
            ["slot", "system", "v", "tx", "gamma"],
            metrics.trajectory,
        )
    print(f"simulated {metrics.horizon} slots (burn-in {metrics.burn_in})")
    for i in range(cfg.m):
        print(
            f"loop {i}: cost {fmt(metrics.empirical_cost[i])} "
            f"(bound {fmt(bounds[i])}), "
            f"tx rate {fmt(metrics.empirical_tx_rate[i])}, "
            f"delivery rate {fmt(metrics.empirical_success_rate[i])}"
        )
    return metrics, bounds


def cmd_simulate(args):
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    _simulate(cfg, load_policies(args.policies), args, out)
    return EXIT_OK


def cmd_pipeline(args):
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    inst, result, link = _design(cfg, args, out)
    if not result.converged:
        return EXIT_DIVERGED
    metrics, bounds = _simulate(cfg, result.policies, args, out)
    report = {
        "requirements": [float(c) for c in inst.success_targets],
        "policies": [p.to_dict() for p in result.policies],
        "link_success": [float(v) for v in link],
        "converged": bool(result.converged),
        "periods": int(result.periods),
        "empirical_cost": [float(v) for v in metrics.empirical_cost],
        "empirical_tx_rate": [float(v) for v in metrics.empirical_tx_rate],
        "empirical_success_rate": [float(v) for v in metrics.empirical_success_rate],
        "cost_bounds": bounds,
        "horizon": int(metrics.horizon),
        "burn_in": int(metrics.burn_in),
    }
    write_json(os.path.join(out, "report.json"), report)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="raccess",
        description="Design and simulate channel-aware random access for control loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="per-loop delivery requirements")
    p_rates.add_argument("config")
    p_rates.add_argument("--out", default=None)
    p_rates.set_defaults(func=cmd_rates)

    p_opt = sub.add_parser("optimize", help="design access policies")
    p_opt.add_argument("config")
    p_opt.add_argument("--mode", choices=["quadrature", "mc"], default=None)
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="slot-level simulation of given policies")
    p_sim.add_argument("config")
    p_sim.add_argument("--policies", required=True)
    p_sim.add_argument("--horizon", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_pipe = sub.add_parser("pipeline", help="rates, optimize, then simulate")
    p_pipe.add_argument("config")
    p_pipe.add_argument("--mode", choices=["quadrature", "mc"], default=None)
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument("--out", default=None)
    p_pipe.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except UnstableSimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
