"""Shared builders for the test suite."""

import importlib.util
import itertools
import math
import os

import numpy as np

from raccess import (
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    InfeasibleContractError,
    LogisticLogCurve,
    OptimizerSettings,
    PlantControllerPair,
    ProblemInstance,
    SaturatingExpCurve,
    SwitchedSystem,
    UniformFading,
    _kernels,
    compute_success_requirement,
    constant_policy,
    dual_periods,
    threshold_policy,
)
from raccess.serialize import fmt
from raccess.simulate import SimMetrics, _draw_gamma, _psd_factor


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` by path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(root, "perfbench", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scalar_system(a_open, a_closed, rho=0.8, w=1.0, p=1.0):
    return SwitchedSystem(
        a_closed=a_closed,
        a_open=a_open,
        noise_cov=w,
        lyap_matrix=p,
        decay_rate=rho,
    )


def reference_channel():
    return FadingChannel(
        dist=ExponentialFading(mean=1.0),
        curve=SaturatingExpCurve(kappa=1.5, gain=1.0),
    )


def logistic_channel():
    return FadingChannel(
        dist=ExponentialFading(mean=1.0),
        curve=LogisticLogCurve(midpoint=0.8, steepness=2.5),
    )


def reference_instance():
    """Two scalar loops on one collision channel; the worked example."""
    systems = (scalar_system(1.1, 0.5), scalar_system(1.0, 0.4))
    ch = reference_channel()
    targets = [compute_success_requirement(s) for s in systems]
    return ProblemInstance(
        systems=systems,
        channels=(ch, ch),
        collision=CollisionMatrix(q=np.array([[0.0, 0.5], [0.5, 0.0]])),
        tx_powers=[1.0, 1.0],
        success_targets=targets,
    )


def loop_state_recursion(a_closed, a_open, gamma, noise, x0):
    """Per-loop, per-slot oracle for ``raccess._kernels.state_recursion``.

    Takes the kernel's batched shapes, leaves ``noise`` as it is, and
    returns a new ``(L, N, n)`` array.
    """
    n_loops, n_slots = np.shape(gamma)
    out = np.empty((n_loops, n_slots, np.shape(x0)[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in range(n_loops):
            x = np.array(x0[ell], dtype=float)
            for k in range(n_slots):
                x = (a_closed[ell] if gamma[ell][k] else a_open[ell]) @ x + noise[ell][k]
                out[ell, k] = x
    return out


def block_scalar_recursion(a_closed, a_open, gamma, noise, x0):
    """Oracle for ``raccess._kernels.state_recursion`` at n = 1, written with both products.

    The kernel's block arithmetic as it stood before the n = 1 gather:
    each slot of a block takes both products and keeps the delivered one,
    and each block map multiplies by its slot's mode. Takes the kernel's
    batched shapes and returns a new ``(L, N, 1)`` array.
    """
    a_c = np.asarray(a_closed, dtype=float).reshape(-1, 1)
    a_o = np.asarray(a_open, dtype=float).reshape(-1, 1)
    gamma = np.asarray(gamma, dtype=bool)
    w = np.asarray(noise, dtype=float)[..., 0]
    n_loops, n_slots = w.shape
    block = max(math.isqrt(n_slots), 1)
    k = n_slots // block
    head = k * block
    g_blocks = gamma[:, :head].reshape(n_loops, k, block)
    w_blocks = w[:, :head].reshape(n_loops, k, block)
    out = np.empty((n_loops, n_slots))
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.zeros((n_loops, k))
        phi = np.ones((n_loops, k))
        for t in range(block):
            g = g_blocks[:, :, t]
            y = np.where(g, y * a_c, y * a_o) + w_blocks[:, :, t]
            phi = np.where(g, a_c, a_o) * phi
        starts = np.empty((n_loops, k))
        x = np.asarray(x0, dtype=float)[:, 0]
        for c in range(k):
            starts[:, c] = x
            x = phi[:, c] * x + y[:, c]
        x = starts
        states = out[:, :head].reshape(n_loops, k, block)
        for t in range(block):
            g = g_blocks[:, :, t]
            x = np.where(g, x * a_c, x * a_o) + w_blocks[:, :, t]
            states[:, :, t] = x
        for t in range(head, n_slots):
            out[:, t] = np.where(gamma[:, t], a_c[:, 0], a_o[:, 0]) * out[:, t - 1] + w[:, t]
    return out[..., None]


def loop_delivery_product(own, rates, q):
    """Loop oracle for ``raccess.channel.delivery_product`` over all m links."""
    m = q.shape[0]
    out = np.empty(m)
    for i in range(m):
        prob = own[i]
        for j in range(m):
            if j != i:
                prob *= 1.0 - rates[j] * q[j, i]
        out[i] = prob
    return out


def random_admissible_system(rng, dims=(2, 3, 4)):
    """Random system whose closed mode certifies the contract.

    Writing A = L^{-T} M L^{T} with P = L L^{T} turns the mode condition
    A' P A <= rho P into a plain spectral-norm bound on M, so scaling M
    places each mode on the intended side: the closed mode strictly
    inside, the open mode strictly outside.
    """
    n = int(rng.choice(dims))
    rho = float(rng.uniform(0.5, 0.95))
    g = rng.standard_normal((n, n))
    p = g @ g.T + n * np.eye(n)
    ell = np.linalg.cholesky(p)
    mc = rng.standard_normal((n, n))
    mc *= rng.uniform(0.4, 0.9) * np.sqrt(rho) / np.linalg.norm(mc, 2)
    mo = rng.standard_normal((n, n))
    mo *= rng.uniform(1.1, 1.6) * np.sqrt(rho) / np.linalg.norm(mo, 2)
    a_c = np.linalg.solve(ell.T, mc @ ell.T)
    a_o = np.linalg.solve(ell.T, mo @ ell.T)
    w = rng.standard_normal((n, n))
    w = w @ w.T
    return SwitchedSystem(
        a_closed=a_c, a_open=a_o, noise_cov=w, lyap_matrix=p, decay_rate=rho
    )


def example_pair():
    """A scalar plant with a scalar controller: its assembled loop has state dimension 2."""
    return PlantControllerPair(
        plant_a=[[1.05]],
        plant_b=[[1.0]],
        plant_c=[[1.0]],
        ctrl_f=[[0.2]],
        ctrl_fc=[[0.0]],
        ctrl_g=[[0.1]],
        ctrl_k=[[0.0]],
        ctrl_kc=[[0.0]],
        ctrl_l=[[-0.6]],
        process_noise_cov=[[0.5]],
        meas_noise_cov=[[0.2]],
    )


MATRIX_NAMES = ("a_closed", "a_open", "noise_cov", "lyap_matrix")


def loop_check_system(a_closed, a_open, noise_cov, lyap_matrix, decay_rate):
    """Per-loop oracle for ``raccess.control.check_loops``: one loop, matrix by matrix.

    Raises the error of the loop's first failing check, in the order
    ``SwitchedSystem`` checks them; returns the four coerced matrices and
    the decay rate otherwise.
    """
    mats = []
    for name, value in zip(MATRIX_NAMES, (a_closed, a_open, noise_cov, lyap_matrix)):
        try:
            arr = np.array(value, dtype=float, ndmin=2)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"{name} must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} entries must be finite")
        mats.append(arr)
    for name, arr in zip(MATRIX_NAMES[1:], mats[1:]):
        if arr.shape != mats[0].shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {mats[0].shape}")
    w, p = mats[2:]
    for name, arr in (("noise_cov", w), ("lyap_matrix", p)):
        if np.abs(arr - arr.T).max() > 1e-8 * max(np.abs(arr).max(), 1.0):
            raise ValueError(f"{name} must be symmetric")
    w_eigs, p_eigs = np.linalg.eigvalsh(w), np.linalg.eigvalsh(p)
    if p_eigs[0] <= 0.0:
        raise ValueError(f"lyap_matrix must be positive definite, min eig {p_eigs[0]:g}")
    if w_eigs[0] < -1e-10 * max(1.0, abs(w_eigs[-1])):
        raise ValueError(f"noise_cov must be PSD, min eig {w_eigs[0]:g}")
    rho = float(decay_rate)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"decay_rate must lie in (0, 1), got {rho:g}")
    return mats, rho


def loop_fields(system, rng=None):
    """A SwitchedSystem's five fields as a config's raw-form loop: nested lists and a float.

    Given ``rng``, a 1 x 1 matrix is written at random as a number, a
    one-entry list or a nested list, as a config may give it.
    """
    fields = {}
    for name in MATRIX_NAMES:
        value = getattr(system, name).tolist()
        if rng is not None and system.dim == 1:
            value = (value[0][0], value[0], value)[rng.integers(3)]
        fields[name] = value
    return dict(fields, decay_rate=system.decay_rate)


LOOP_BREAKS = (
    "asymmetric", "indefinite", "non-finite", "a_open shape", "non-square",
    "ragged", "text", "rate out of range", "rate not a number",
)


def break_loop(loop, rng, kinds):
    """A copy of the raw-form ``loop`` (nested lists) broken in each of the ways ``kinds``.

    Each way replaces one value of the loop with a bad one. Non-finite entries are written as strings, which a JSON config can
    carry and NumPy reads as nan or inf. At n = 1 an "asymmetric" matrix
    is a 2 x 2 one, so it breaks the shapes instead.
    """
    out = dict(loop)
    n = (np.shape(out["a_closed"]) or (1,))[0]
    for kind in kinds:
        name = str(rng.choice(MATRIX_NAMES))
        cov = str(rng.choice(MATRIX_NAMES[2:]))
        if kind == "asymmetric":
            out[cov] = (np.eye(max(n, 2)) + np.triu(np.full((max(n, 2),) * 2, 0.5), 1)).tolist()
        elif kind == "indefinite":
            out[cov] = (-np.eye(n)).tolist()
        elif kind == "non-finite":
            out[name] = np.eye(n).tolist()
            out[name][rng.integers(n)][rng.integers(n)] = str(rng.choice(["nan", "inf", "-inf"]))
        elif kind == "a_open shape":
            out["a_open"] = [[1.1]] if n > 1 else np.eye(2).tolist()
        elif kind == "non-square":
            out[name] = [[0.5] * (n + 1)] * n
        elif kind == "ragged":
            out[name] = [[0.5] * n, [0.5] * (n + 1)]
        elif kind == "text":
            out[name] = [["abc"] * n] * n
        elif kind == "rate out of range":
            out["decay_rate"] = float(rng.choice([0.0, 1.0, -0.2, 1.7]))
        elif kind == "rate not a number":
            out["decay_rate"] = ["abc", "nan", [0.5]][rng.integers(3)]
        else:
            raise ValueError(f"unknown way to break a loop: {kind!r}")
    return out


def loop_success_requirement(sys):
    """Per-loop oracle for ``raccess.control.success_requirements``: one loop's requirement.

    The arithmetic of the one-loop form, with its 2-D LAPACK calls; raises
    InfeasibleContractError with the same messages.
    """
    rho_p = sys.decay_rate * sys.lyap_matrix
    a = sys.gram_open() - rho_p
    b = sys.gram_closed() - rho_p
    if np.linalg.eigvalsh(a)[-1] <= 0.0:
        return 0.0
    slack_closed = float(np.linalg.eigvalsh(b)[-1])
    if slack_closed > 0.0:
        raise InfeasibleContractError(
            "closed-loop admissibility fails: A_c' P A_c <= rho P does not "
            f"hold (slack {slack_closed:g}); no delivery probability can "
            "certify the contract"
        )
    try:
        ell = np.linalg.cholesky(-b)
    except np.linalg.LinAlgError:
        c = 1.0
    else:
        whitened = np.linalg.solve(ell, np.linalg.solve(ell, a).T)
        lam = float(np.linalg.eigvalsh(whitened)[-1])
        c = lam / (1.0 + lam)
    if not c < 1.0:
        raise InfeasibleContractError(
            "closed-loop admissibility holds only on its boundary: "
            "A_c' P A_c - rho P is singular, so the contract needs every "
            "packet delivered (requirement 1)"
        )
    return c


def random_channel(rng):
    if rng.random() < 0.5:
        dist = ExponentialFading(mean=float(rng.uniform(0.4, 2.5)))
    else:
        lo = float(rng.uniform(0.0, 0.8))
        dist = UniformFading(low=lo, high=lo + float(rng.uniform(0.5, 2.0)))
    if rng.random() < 0.5:
        curve = SaturatingExpCurve(
            kappa=float(rng.uniform(0.5, 3.0)), gain=float(rng.uniform(0.5, 2.0))
        )
    else:
        curve = LogisticLogCurve(
            midpoint=float(rng.uniform(0.3, 1.5)),
            steepness=float(rng.uniform(1.0, 4.0)),
        )
    return FadingChannel(dist=dist, curve=curve)


def random_policy(rng, dist):
    """A policy whose transmit and delivery probability are both in (0, 1)."""
    if rng.random() < 0.5:
        if isinstance(dist, UniformFading):
            thr = float(rng.uniform(dist.low, 0.5 * (dist.low + dist.high)))
        else:
            thr = float(rng.uniform(0.0, 1.5 * dist.mean))
        return threshold_policy(thr)
    return constant_policy(float(rng.uniform(0.15, 0.85)))


def random_shared_channel_setup(rng, m):
    """Channels, policies, and a collision matrix for m interfering links."""
    channels = tuple(random_channel(rng) for _ in range(m))
    policies = tuple(random_policy(rng, ch.dist) for ch in channels)
    q = rng.uniform(0.0, 0.8, size=(m, m))
    np.fill_diagonal(q, 0.0)
    return channels, policies, CollisionMatrix(q=q)


def loop_beta_update(lam, nu, box, q=None):
    """Loop oracle for ``raccess.optimizer.beta_update``: beta, entry by entry.

    With a collision matrix ``q``, a pair (j, i) with q[j, i] = 0 gets beta[j, i] = 0.
    """
    m = lam.shape[0]
    lo, hi = box
    beta = np.empty((m, m))
    for i in range(m):
        beta[i, i] = hi if nu[i, i] == 0.0 else min(max(lam[i] / nu[i, i], lo), hi)
        for j in range(m):
            if j == i:
                continue
            if q is not None and q[j, i] == 0.0:
                beta[j, i] = 0.0
            elif nu[i, j] == 0.0:
                beta[j, i] = lo
            else:
                beta[j, i] = min(max(1.0 - lam[i] / nu[i, j], lo), hi)
    return beta


def period_duals(inst, settings=OptimizerSettings(), periods=None):
    """The packed duals of ``dual_periods``' first ``periods`` periods, one row each.

    A period's ``duals`` is a view that the next step overwrites, so each row is a copy.
    """
    records = itertools.islice(dual_periods(inst, settings), periods)
    return np.array([period.duals.copy() for period in records])


def loop_stop_period(duals, slack, window, slack_tol, dual_change_tol):
    """Oracle for ``run_algorithm1``'s stop test on a full history of its periods.

    ``duals[t]`` and ``slack[t]`` are period t's packed duals and slacks.
    Returns the number of periods run when the test first fires: the
    worst slack is within ``slack_tol`` and no dual moved more than
    ``dual_change_tol`` since period t - ``window``. None if it never does.
    """
    for t in range(window, len(duals)):
        if max(slack[t]) > slack_tol:
            continue
        change = max(abs(a - b) for a, b in zip(duals[t].tolist(), duals[t - window].tolist()))
        if change <= dual_change_tol:
            return t + 1
    return None


def loop_subgradient(beta, succ, rate, targets, q):
    """Loop oracle for ``raccess.optimizer.subgradient``: (s_lambda, s_nu).

    These are the two halves of the vector that ``subgradient`` writes into
    its ``out``: s_lambda first, then s_nu row by row.
    """
    m = beta.shape[0]
    s_lam = np.empty(m)
    s_nu = np.empty((m, m))
    for i in range(m):
        acc = math.log(targets[i]) - math.log(beta[i, i])
        s_nu[i, i] = beta[i, i] - succ[i]
        for j in range(m):
            if j == i:
                continue
            acc -= math.log1p(-beta[j, i])
            s_nu[i, j] = rate[j] * q[j, i] - beta[j, i]
        s_lam[i] = acc
    return s_lam, s_nu


def loop_threshold_from_prices(own_price, interference_price, tx_power, ch):
    """Branching oracle for one sensor's float threshold in ``primal_policies``.

    Every success curve rises from q(0) = 0 toward sup q = 1.
    """
    cost = tx_power + interference_price
    if own_price == 0.0 or not math.isfinite(cost):
        return math.inf
    ratio = cost / own_price
    if ratio >= 1.0:
        return math.inf
    if ratio <= 0.0:
        return 0.0
    return ch.curve.inverse(ratio)


def loop_interference_prices(nu, q):
    """Loop oracle for each sensor's interference price in ``primal_policies``.

    Sensor i's price is sum_{j != i} nu[j, i] q[i, j], which
    ``primal_policies`` reads as ``nu * q_t`` summed over rows.
    """
    m = q.shape[0]
    out = np.empty(m)
    for i in range(m):
        price = 0.0
        for j in range(m):
            if j != i:
                price += nu[j, i] * q[i, j]
        out[i] = price
    return out


def lyapunov_values(x, p):
    """v_k = x_k' P x_k of states x (k, n), in ``run_simulation``'s n > 1 form."""
    return np.einsum("kl,kl->k", x @ p, x)


def three_operand_lyapunov_values(x, p):
    """v_k = x_k' P x_k in the three-operand ``einsum`` the simulation used first."""
    return np.einsum("kn,nl,kl->k", x, p, x)


def loop_simulation(instance, policies, settings, quadratic=lyapunov_values):
    """Per-loop oracle for ``run_simulation(instance, policies, settings)`` on stable loops.

    Replays the run's draws from ``settings.seed``, runs the kernel on one loop
    at a time, reduces its states to v with ``quadratic(states, P)``, and
    builds the trajectory from one ``(slot, system, v, tx, gamma)`` row
    per kept slot of each loop in turn, sorted, then split into columns.
    """
    horizon, burn, thin = settings.horizon, settings.burn, settings.thin
    rng = np.random.default_rng(settings.seed)
    tx, gamma = _draw_gamma(policies, instance.channels, instance.collision, rng, horizon)
    costs, tx_rates, success_rates, rows = [], [], [], []
    for i, sys in enumerate(instance.systems):
        z = rng.standard_normal((horizon, sys.dim))
        noise = z @ _psd_factor(sys.noise_cov).T
        states = _kernels.state_recursion(
            sys.a_closed[None], sys.a_open[None], gamma[i : i + 1], noise[None],
            np.zeros((1, sys.dim)),
        )[0]
        v = quadratic(states, sys.lyap_matrix)
        costs.append(float(np.mean(v[burn:])))
        tx_rates.append(float(np.mean(tx[i, burn:])))
        success_rates.append(float(np.mean(gamma[i, burn:])))
        if thin:
            for k in range(thin - 1, horizon, thin):
                rows.append((k + 1, i, float(v[k]), bool(tx[i, k]), bool(gamma[i, k])))
    trajectory = None
    if thin:
        rows.sort()
        dtypes = (np.int64, np.int64, np.float64, bool, bool)
        trajectory = tuple(
            np.array([row[c] for row in rows], dtype=dt) for c, dt in enumerate(dtypes)
        )
    return SimMetrics(
        empirical_cost=np.array(costs),
        empirical_tx_rate=np.array(tx_rates),
        empirical_success_rate=np.array(success_rates),
        horizon=horizon,
        burn_in=burn,
        trajectory=trajectory,
    )


def loop_write_csv(path, header, rows):
    """Cell-by-cell oracle for ``raccess.serialize.write_csv``."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int,)) and not isinstance(cell, bool):
                cells.append(str(cell))
            else:
                cells.append(fmt(cell))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def allocating_sample(dist, rng, size=None, lower=0.0):
    """The fade laws' ``sample`` as first written, on NumPy's allocating draws.

    An oracle for the fill-based ``sample``: the same values and the same
    generator position, bit for bit.
    """
    if isinstance(dist, ExponentialFading):
        h = rng.exponential(dist.mean, size=size)
        if lower > 0.0:
            h += lower
        return h
    return rng.uniform(min(max(lower, dist.low), dist.high), dist.high, size=size)


def allocating_value(curve, h):
    """q(h) of each success curve in its first, allocating form."""
    h = np.asarray(h, dtype=float)
    if isinstance(curve, SaturatingExpCurve):
        return -np.expm1(-curve.kappa * curve.gain * h)
    r = np.power(h / curve.midpoint, curve.steepness)
    return r / (1.0 + r)


def allocating_transmit_sample(threshold, ch, samples, rng):
    """``draw_transmit_sample`` on the allocating draw and curve oracles above."""
    k = int(rng.binomial(samples, ch.dist.survival(threshold)))
    fades = allocating_sample(ch.dist, rng, size=k, lower=threshold)
    return k / samples, float(np.sum(allocating_value(ch.curve, fades))) / samples
