"""Seeded workload generators and output checks for the raccess benchmark.

Each workload is one CLI command on one generated config. ``build`` writes
the config and returns the command line; ``check`` reads the artifacts the
command wrote and returns a list of failure messages (empty when every
check passed). Generators use only NumPy, so the inputs do not depend on
the code under test.

The work of one command must not depend on the seed, or the spread of
wall times over seeds would measure the seed rather than the code. Design
work depends strongly on the instance and on the Monte Carlo stream (the
dual loop of the m=4 instance takes 209 to 258 periods over design seeds
1-20), so the three pipeline workloads fix both: the instance comes from
``STRUCTURE_SEED`` and the design stream from ``DESIGN_SEED``. ``--seed``
sets the config's ``simulation.seed``, which draws the fades and outcomes
of the slot-level simulation; its work is fixed by the horizon.
``certify`` draws its systems from the seed, with the state dimensions
fixed in a 2, 3, 4 cycle.
"""

import json
import math
import os

import numpy as np

# Fixed instance and design stream of the pipeline workloads (see module doc).
STRUCTURE_SEED = 0
DESIGN_SEED = 0

# z-bound for every statistical check: empirical delivery against the
# analytic rate (binomial), Monte Carlo designs against their requirement,
# and empirical cost against its bound.
Z = 5.0
# Standard deviation of empirical_cost / cost_bound times sqrt(slots after
# burn-in), largest over loops, measured over simulation seeds 1-40:
# twoloop 0.0425 at 27k slots, wide-mc 0.080 at 4.5k slots, matrix-sim
# 0.004 at 27k slots (its costs sit at 11-56% of their bounds).
COST_SD_SQRT_SLOTS = {"twoloop": 7.0, "wide-mc": 5.4, "matrix-sim": 0.65}
# Acceptance certificate of a delivery requirement (tests/test_acceptance.py).
CERT_FEASIBLE_TOL = 1e-8
CERT_STEP = 1e-6

# Sizes are chosen so one command takes well under a second on a 2-vCPU
# machine with the python kernel backend; "tiny" is for the self-test.
SIZES = {
    "full": {
        "twoloop": {"horizon": 30_000},
        "wide-mc": {"m": 4, "horizon": 5_000},
        "matrix-sim": {"m": 3, "horizon": 30_000},
        "certify": {"count": 64},
    },
    "tiny": {
        "twoloop": {"horizon": 2_000},
        "wide-mc": {"m": 2, "horizon": 2_000},
        "matrix-sim": {"m": 2, "horizon": 2_000},
        "certify": {"count": 6},
    },
}

WORKLOADS = tuple(SIZES["full"])


def _scalar_loop(a_closed, a_open):
    return {
        "a_closed": a_closed,
        "a_open": a_open,
        "noise_cov": 1.0,
        "lyap_matrix": 1.0,
        "decay_rate": 0.8,
    }


def _mixed_channel(rng, i):
    """Even links: exponential fades with a saturating curve; odd: uniform, logistic."""
    if i % 2 == 0:
        return {
            "dist": {"family": "exponential", "mean": float(rng.uniform(0.8, 1.5))},
            "curve": {
                "family": "exp_saturating",
                "kappa": float(rng.uniform(1.0, 2.0)),
                "gain": 1.0,
            },
        }
    low = float(rng.uniform(0.1, 0.5))
    return {
        "dist": {"family": "uniform", "low": low, "high": low + float(rng.uniform(1.0, 2.0))},
        "curve": {
            "family": "logistic_log",
            "midpoint": float(rng.uniform(0.5, 1.0)),
            "steepness": float(rng.uniform(2.0, 4.0)),
        },
    }


def _uniform_collision(m, total):
    return [[0.0 if i == j else total / m for j in range(m)] for i in range(m)]


def admissible_system(rng, n):
    """Random raw-form loop whose closed mode certifies the contract.

    Same construction as ``tests/helpers.random_admissible_system``: with
    P = L L', A = L^{-T} M L' turns A' P A <= rho P into ||M|| <= sqrt(rho),
    so scaling M puts the closed mode strictly inside and the open mode
    strictly outside.
    """
    rho = float(rng.uniform(0.5, 0.95))
    g = rng.standard_normal((n, n))
    p = g @ g.T + n * np.eye(n)
    p = 0.5 * (p + p.T)
    ell = np.linalg.cholesky(p)
    mc = rng.standard_normal((n, n))
    mc *= rng.uniform(0.4, 0.9) * math.sqrt(rho) / np.linalg.norm(mc, 2)
    mo = rng.standard_normal((n, n))
    mo *= rng.uniform(1.1, 1.6) * math.sqrt(rho) / np.linalg.norm(mo, 2)
    w = rng.standard_normal((n, n))
    w = w @ w.T
    return {
        "a_closed": np.linalg.solve(ell.T, mc @ ell.T).tolist(),
        "a_open": np.linalg.solve(ell.T, mo @ ell.T).tolist(),
        "noise_cov": (0.5 * (w + w.T)).tolist(),
        "lyap_matrix": p.tolist(),
        "decay_rate": rho,
    }


def _matrices(system):
    return (
        np.atleast_2d(np.asarray(system["a_closed"], dtype=float)),
        np.atleast_2d(np.asarray(system["a_open"], dtype=float)),
        np.atleast_2d(np.asarray(system["lyap_matrix"], dtype=float)),
        float(system["decay_rate"]),
    )


def lmi_slack(theta, system):
    """lambda_max(theta Gc + (1 - theta) Go - rho P), by LAPACK."""
    a_c, a_o, p, rho = _matrices(system)
    pencil = theta * (a_c.T @ p @ a_c) + (1.0 - theta) * (a_o.T @ p @ a_o) - rho * p
    return float(np.linalg.eigvalsh(0.5 * (pencil + pencil.T))[-1])


def requirement(system, tol=1e-10):
    """Delivery requirement by bisection on the convex LMI slack."""
    if lmi_slack(0.0, system) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lmi_slack(mid, system) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def twoloop_config(seed, horizon):
    """The worked example of configs/twoloop.json, with a looser stop rule.

    The default rule (100-period window, dual change 1e-3) needs 730
    periods; a 30-period window at 3e-3 stops after about 210, which keeps
    one command under a second while the design stays quadrature-bound.
    """
    channel = {
        "dist": {"family": "exponential", "mean": 1.0},
        "curve": {"family": "exp_saturating", "kappa": 1.5, "gain": 1.0},
    }
    return {
        "schema_version": 1,
        "systems": [_scalar_loop(0.5, 1.1), _scalar_loop(0.4, 1.0)],
        "channels": [channel, channel],
        "collision": [[0.0, 0.5], [0.5, 0.0]],
        "tx_powers": [1.0, 1.0],
        "optimizer": {"max_periods": 5000, "window": 30, "dual_change_tol": 3e-3},
        "simulation": {"horizon": horizon, "seed": seed},
    }


def wide_mc_config(seed, m, horizon):
    """Scalar loops on mixed channels, Monte Carlo design, short simulation."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    systems, channels = [], []
    for i in range(m):
        systems.append(
            _scalar_loop(float(rng.uniform(0.3, 0.5)), float(rng.uniform(0.92, 1.0)))
        )
        channels.append(_mixed_channel(rng, i))
    return {
        "schema_version": 1,
        "systems": systems,
        "channels": channels,
        "collision": _uniform_collision(m, 0.3),
        "tx_powers": [1.0] * m,
        "optimizer": {
            "expectation_mode": "mc",
            "mc_samples": 10_000,
            "seed": DESIGN_SEED,
            "window": 30,
            "dual_change_tol": 0.01,
        },
        "simulation": {"horizon": horizon, "seed": seed},
    }


def matrix_sim_config(seed, m, horizon):
    """n=4 raw-form loops with c in (0.05, 0.35); the simulation dominates.

    The design uses a small Monte Carlo sample so that, at a horizon short
    enough for many repetitions, the slot-level simulation still carries
    most of the time.
    """
    rng = np.random.default_rng(STRUCTURE_SEED)
    systems = []
    while len(systems) < m:
        system = admissible_system(rng, 4)
        if 0.05 < requirement(system) < 0.35:
            systems.append(system)
    return {
        "schema_version": 1,
        "systems": systems,
        "channels": [_mixed_channel(rng, i) for i in range(m)],
        "collision": _uniform_collision(m, 0.3),
        "tx_powers": [1.0] * m,
        "optimizer": {
            "expectation_mode": "mc",
            "mc_samples": 2_000,
            "seed": DESIGN_SEED,
            "window": 30,
            "dual_change_tol": 0.01,
        },
        "simulation": {"horizon": horizon, "seed": seed, "thin": 10},
    }


def certify_config(seed, count):
    """``count`` random admissible systems whose n cycles through 2, 3, 4."""
    rng = np.random.default_rng(seed)
    systems = [admissible_system(rng, 2 + i % 3) for i in range(count)]
    channel = {
        "dist": {"family": "exponential", "mean": 1.0},
        "curve": {"family": "exp_saturating", "kappa": 1.5, "gain": 1.0},
    }
    return {
        "schema_version": 1,
        "systems": systems,
        "channels": [channel] * count,
        "collision": [[0.0] * count for _ in range(count)],
        "tx_powers": [1.0] * count,
    }


def make_config(workload, seed, size="full"):
    params = SIZES[size][workload]
    if workload == "twoloop":
        return twoloop_config(seed, params["horizon"])
    if workload == "wide-mc":
        return wide_mc_config(seed, params["m"], params["horizon"])
    if workload == "matrix-sim":
        return matrix_sim_config(seed, params["m"], params["horizon"])
    if workload == "certify":
        return certify_config(seed, params["count"])
    raise ValueError(f"unknown workload {workload!r}")


def config_bytes(config):
    return (json.dumps(config, indent=1, sort_keys=True) + "\n").encode()


def build(workload, seed, work_dir, size="full"):
    """Write the workload's config into ``work_dir``.

    Returns (config, cli_argv_without_out, params), where params records
    the workload's shape for the result's provenance.
    """
    config = make_config(workload, seed, size)
    path = os.path.join(work_dir, "config.json")
    with open(path, "wb") as fh:
        fh.write(config_bytes(config))
    systems = config["systems"]
    opt = config.get("optimizer", {})
    params = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "m": len(systems),
        "n": sorted({len(np.atleast_2d(s["a_closed"])) for s in systems}),
    }
    if workload == "certify":
        argv = ["rates", path]
    else:
        argv = ["pipeline", path]
        params["horizon"] = config["simulation"]["horizon"]
        params["expectation_mode"] = opt.get("expectation_mode", "quadrature")
        params["structure_seed"] = None if workload == "twoloop" else STRUCTURE_SEED
        params["design_seed"] = opt.get("seed")
    return config, argv, params


def _read_csv(path):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return rows[0], rows[1:]


def check_pipeline(workload, out_dir, config):
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    fails = []
    if report.get("converged") is not True:
        fails.append("design did not converge")
    if len(report["requirements"]) != len(config["systems"]):
        fails.append(f"report covers {len(report['requirements'])} loops, config has "
                     f"{len(config['systems'])}")
    opt = config.get("optimizer", {})
    slack_tol = float(opt.get("slack_tol", 0.0))
    # A Monte Carlo design meets c_i on its own sample; the exact rate may
    # miss it by the sampling error of the own-delivery estimate.
    mc_samples = opt.get("mc_samples", 10_000) if opt.get("expectation_mode") == "mc" else None
    slots = report["horizon"] - report["burn_in"]
    margin = Z * COST_SD_SQRT_SLOTS[workload] / math.sqrt(slots)
    for i, c in enumerate(report["requirements"]):
        link = report["link_success"][i]
        tol = slack_tol + (Z * math.sqrt(c * (1.0 - c) / mc_samples) if mc_samples else 0.0)
        if link < c - tol:
            fails.append(f"loop {i}: analytic delivery {link!r} < requirement {c!r} - {tol:g}")
        emp = report["empirical_success_rate"][i]
        bound = Z * math.sqrt(max(link * (1.0 - link), 0.0) / slots)
        if abs(emp - link) > bound:
            fails.append(
                f"loop {i}: empirical delivery {emp!r} is more than "
                f"{Z:g} sigma from analytic {link!r}"
            )
        cost, cap = report["empirical_cost"][i], report["cost_bounds"][i]
        if not cost <= cap * (1.0 + margin):
            fails.append(f"loop {i}: cost {cost!r} above bound {cap!r} + {margin:.1%}")
    return fails


def check_certify(out_dir, config):
    header, rows = _read_csv(os.path.join(out_dir, "rates.csv"))
    systems = config["systems"]
    if header != ["system", "requirement"] or len(rows) != len(systems):
        return [f"rates.csv: expected {len(systems)} rows of system,requirement"]
    fails = []
    for (idx, value), system in zip(rows, systems):
        c = float(value)
        if not 0.0 <= c < 1.0:
            fails.append(f"system {idx}: requirement {c!r} outside [0, 1)")
            continue
        if lmi_slack(c, system) > CERT_FEASIBLE_TOL:
            fails.append(f"system {idx}: slack at c={c!r} is positive")
        if c > 0.0 and not lmi_slack(max(c - CERT_STEP, 0.0), system) > 0.0:
            fails.append(f"system {idx}: c={c!r} is not on the feasible edge")
    return fails


def check(workload, out_dir, config):
    if workload == "certify":
        return check_certify(out_dir, config)
    return check_pipeline(workload, out_dir, config)
