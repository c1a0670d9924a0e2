"""Switched-system performance contracts.

A control loop closed over an unreliable link alternates between two
linear modes: ``x_{k+1} = A_c x_k + w_k`` when the scheduled packet gets
through and ``x_{k+1} = A_o x_k + w_k`` when it does not. Given a
quadratic function ``V(x) = x' P x`` and a decay target ``rho``, the loop
satisfies the expected one-step contract

    E[V(x_{k+1}) | x_k] <= rho V(x_k) + tr(P W)   for all x_k

exactly when the per-slot delivery probability is at least a threshold
``c`` that depends only on (A_c, A_o, P, rho). This module computes that
threshold and the quantities around it.

``success_requirements`` computes many loops' thresholds at once: the
loops of each state dimension n go through every step together as
``(k, n, n)`` stacks, one LAPACK call per dimension and step. A stacked
call runs the same routine on each matrix as a call on it alone, so each
threshold has the bits of the loop-by-loop computation. ``check_loops``
checks many loops' matrices the same way, one stacked pass per state
dimension; ``SwitchedSystem`` is its one-loop case.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._frozen import Frozen, frozen

__all__ = [
    "InfeasibleContractError",
    "SwitchedSystem",
    "check_loops",
    "PlantControllerPair",
    "assemble_example_loop",
    "lmi_slack",
    "compute_success_requirement",
    "success_requirements",
    "expected_lyapunov_next",
    "steady_state_cost_bound",
]


class InfeasibleContractError(ValueError):
    """Raised when no delivery probability can certify the contract.

    ``loop`` is the failing loop's index in ``success_requirements``' list.
    """

    def __init__(self, message, loop=0):
        super().__init__(message)
        self.loop = loop


def _as_matrix(value, name, square=True):
    """Coerce a scalar or nested sequence to a read-only finite float matrix."""
    arr = np.array(value, dtype=float, ndmin=2)  # always a copy of the caller's data
    if arr.ndim != 2 or (square and arr.shape[0] != arr.shape[1]):
        raise ValueError(f"{name} must be {'square' if square else '2-D'}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")
    arr.setflags(write=False)
    return arr


def _asymmetric(stack):
    """Which matrices of ``stack`` (any leading axes) are not symmetric, to a relative 1e-8."""
    scale = np.abs(stack).max(axis=(-2, -1))
    skew = np.abs(stack - np.swapaxes(stack, -2, -1)).max(axis=(-2, -1))
    return skew > 1e-8 * np.maximum(scale, 1.0)


_MATRICES = ("a_closed", "a_open", "noise_cov", "lyap_matrix")
# What coercing a value to a float can raise (OverflowError: an int beyond its range).
_COERCION_ERRORS = (TypeError, ValueError, OverflowError)


@frozen
class SwitchedSystem(Frozen):
    """One loop's two closed/open dynamics plus its performance contract.

    Parameters
    ----------
    a_closed, a_open : array_like
        Square state matrices for the delivered and dropped modes.
    noise_cov : array_like
        Covariance W of the additive process noise (symmetric PSD).
    lyap_matrix : array_like
        Symmetric positive definite P defining V(x) = x' P x.
    decay_rate : float
        Contract decay rho, strictly inside (0, 1).

    The arguments are checked by ``check_loops``, of which this is the
    one-loop case; the first failing check raises.
    """

    a_closed: np.ndarray
    a_open: np.ndarray
    noise_cov: np.ndarray
    lyap_matrix: np.ndarray
    decay_rate: float

    def __post_init__(self):
        (checked,), failures = check_loops(
            [(self.a_closed, self.a_open, self.noise_cov, self.lyap_matrix, self.decay_rate)]
        )
        if failures:
            raise failures[0]
        _fill(self, [getattr(checked, name) for name in _MATRICES], checked.decay_rate)

    @property
    def dim(self):
        return self.a_closed.shape[0]

    def gram_closed(self):
        """A_c' P A_c."""
        return self.a_closed.T @ self.lyap_matrix @ self.a_closed

    def gram_open(self):
        """A_o' P A_o."""
        return self.a_open.T @ self.lyap_matrix @ self.a_open


def _first_nonfinite(mats):
    """The error naming the first of ``mats``, in ``_MATRICES`` order, with a non-finite entry."""
    for name, arr in zip(_MATRICES, mats):
        if not np.isfinite(arr).all():
            return ValueError(f"{name} entries must be finite")
    return None


def _coerce(values):
    """One loop's four matrices as one ``(4, n, n)`` float array.

    Raises the error of the loop's first failing coercion or shape check
    (square and not empty, then matching ``a_closed``). The matrices are checked one by
    one in ``_MATRICES`` order, finite entries included, so a non-finite
    matrix before the failing one is named instead. Finite entries are
    otherwise left to the stacked checks.
    """
    try:
        mats = np.array(values, dtype=float)
    except _COERCION_ERRORS:
        pass  # ragged or not numbers: the matrix-by-matrix pass names the culprit
    else:
        if mats.ndim == 3 and mats.shape[1] == mats.shape[2] and mats.size:
            return mats
        if mats.ndim < 3 and mats.size == 4:  # scalars or 1-entry rows: n = 1
            return mats.reshape(4, 1, 1)
    mats = []
    for name, value in zip(_MATRICES, values):
        try:
            arr = np.array(value, dtype=float, ndmin=2)
        except _COERCION_ERRORS as exc:
            raise _first_nonfinite(mats) or type(exc)(f"{name}: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise _first_nonfinite(mats) or ValueError(
                f"{name} must be square, got shape {arr.shape}"
            )
        if not arr.size:
            raise _first_nonfinite(mats) or ValueError(f"{name} must not be empty")
        mats.append(arr)
    for name, arr in zip(_MATRICES[1:], mats[1:]):
        if arr.shape != mats[0].shape:
            raise _first_nonfinite(mats) or ValueError(
                f"{name} has shape {arr.shape}, expected {mats[0].shape}"
            )
    return np.array(mats)


# The messages of _stack_failures' checks after finite entries, in order.
_STACK_CHECKS = (
    "noise_cov must be symmetric",
    "lyap_matrix must be symmetric",
    "lyap_matrix must be positive definite, min eig {p:g}",
    "noise_cov must be PSD, min eig {w:g}",
    "decay_rate must lie in (0, 1), got {rho:g}",
)


def _stack_failures(index, stack, rates, rate_errors):
    """The first failing check of each loop of one state dimension, as {loop: error}.

    ``stack`` is the loops' ``(k, 4, n, n)`` stack, ``index`` their indices
    and ``rates`` their decay rates, NaN where ``rate_errors`` (by index)
    holds the error of reading one. The checks run in ``SwitchedSystem``'s
    order: finite entries matrix by matrix, symmetric ``noise_cov`` then
    ``lyap_matrix``, ``lyap_matrix`` positive definite, ``noise_cov`` PSD
    (a floor scaled by its largest eigenvalue), then ``0 < rho < 1``.
    """
    failures = {}
    finite = np.isfinite(stack).all(axis=(2, 3))
    for row, j in zip(*np.nonzero(~finite)):  # row-major: each loop's first matrix first
        failures.setdefault(int(index[row]), ValueError(f"{_MATRICES[j]} entries must be finite"))
    rows = np.flatnonzero(finite.all(axis=1))
    if not rows.size:
        return failures
    covs = stack[rows, 2:]
    eigs = np.linalg.eigvalsh(covs)
    p_min, w_min, w_max = eigs[:, 1, 0], eigs[:, 0, 0], eigs[:, 0, -1]
    rho = rates[rows]
    bad = np.column_stack(
        (
            _asymmetric(covs),
            p_min <= 0.0,
            w_min < -1e-10 * np.maximum(1.0, np.abs(w_max)),
            ~((0.0 < rho) & (rho < 1.0)),
        )
    )
    for r in np.flatnonzero(bad.any(axis=1)):
        i, check = int(index[rows[r]]), int(bad[r].argmax())
        if check == len(_STACK_CHECKS) - 1 and i in rate_errors:
            failures[i] = rate_errors[i]  # the rate was not a number
        else:
            failures[i] = ValueError(
                _STACK_CHECKS[check].format(p=p_min[r], w=w_min[r], rho=rho[r])
            )
    return failures


def check_loops(loops):
    """Check loops given as ``(a_closed, a_open, noise_cov, lyap_matrix, decay_rate)``.

    Each loop's matrices are coerced to one ``(4, n, n)`` float array, and
    must be square with ``a_closed``'s shape. The loops of each state
    dimension n are then checked together on their ``(k, 4, n, n)`` stack,
    with one symmetry test and one ``eigvalsh`` call per dimension: finite
    entries, symmetric covariances, ``lyap_matrix`` positive definite,
    ``noise_cov`` PSD, and ``0 < decay_rate < 1``.

    Returns
    -------
    systems : list
        A ``SwitchedSystem`` per loop that passes, None for one that fails.
        Its matrices are views of its dimension's read-only stack, not
        checked again.
    failures : dict
        Loop index -> the error (ValueError, or what coercing a value to a
        float raised) of that loop's first failing check, in
        ``SwitchedSystem``'s order.
    """
    members, failures, rate_errors = {}, {}, {}
    for i, (*mats, rate) in enumerate(loops):
        try:
            mats = _coerce(mats)
        except _COERCION_ERRORS as exc:
            failures[i] = exc
            continue
        try:
            rate = float(rate)
        except _COERCION_ERRORS as exc:
            rate, rate_errors[i] = math.nan, exc
        members.setdefault(mats.shape[-1], []).append((i, mats, rate))
    systems = [None] * len(loops)
    for group in members.values():
        index, stack, rates = map(np.array, zip(*group))
        stack.setflags(write=False)
        failures.update(_stack_failures(index, stack, rates, rate_errors))
        for i, mats, rate in zip(index.tolist(), stack, rates.tolist()):
            if i not in failures:
                systems[i] = _fill(object.__new__(SwitchedSystem), mats, rate)
    return systems, failures


def _fill(system, mats, rate):
    """``system`` with its fields set to checked matrices and rate, past the frozen ``__setattr__``."""
    for name, arr in zip(_MATRICES, mats):
        object.__setattr__(system, name, arr)
    object.__setattr__(system, "decay_rate", rate)
    return system


def lmi_slack(theta, sys):
    """Largest eigenvalue of ``theta Gc + (1-theta) Go - rho P``.

    The mixed one-step contract holds at mixing weight ``theta`` exactly
    when this slack is <= 0. The slack is convex in ``theta``, so its
    nonpositive set on [0, 1] is an interval; admissible closed-loop
    design puts theta = 1 inside it.

    Parameters
    ----------
    theta : float
        Mixing weight in [0, 1].
    sys : SwitchedSystem

    Returns
    -------
    float
    """
    th = float(theta)
    if not 0.0 <= th <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {th:g}")
    pencil = (
        th * sys.gram_closed()
        + (1.0 - th) * sys.gram_open()
        - sys.decay_rate * sys.lyap_matrix
    )
    return float(np.linalg.eigvalsh(pencil)[-1])


def compute_success_requirement(sys):
    """The requirement of the one loop ``sys`` (see ``success_requirements``), as a float."""
    return float(success_requirements((sys,))[0])


def _factor(stack):
    """Lower Cholesky factors of a stack of matrices, NaN for one that has none."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:  # a matrix is singular: factor each alone to find it
        if stack.ndim == 2:
            return np.full_like(stack, np.nan)
        return np.array([_factor(m) for m in stack])


def success_requirements(systems):
    """Each loop's minimum delivery probability certifying its decay contract.

    With ``A = Go - rho P`` and ``B = Gc - rho P`` the slack at mixing
    weight theta is ``lambda_max((1 - theta) A + theta B)``. When B is
    negative definite, factor ``-B = L L'``: the mix is negative
    semidefinite exactly when ``(1 - theta) L^-1 A L^-T <= theta I``, so
    the left zero crossing of the slack is ``lam / (1 + lam)`` with
    ``lam = lambda_max(L^-1 A L^-T)``. Each step runs once per state
    dimension, on the stack of that dimension's loops.

    Returns an array of the requirements c in [0, 1) of the sequence
    ``systems``, 0.0 where even the never-delivered mix is contractive.

    Raises
    ------
    InfeasibleContractError
        For the first loop, in order, whose closed-loop admissibility
        A_c' P A_c <= rho P fails (lmi_slack(1, sys) > 0) or holds only
        on its boundary (B singular), where the requirement would be a
        delivery probability of 1. Its ``loop`` is that loop's index.
    """
    boundary = (
        "closed-loop admissibility holds only on its boundary: A_c' P A_c - rho P is "
        "singular, so the contract needs every packet delivered (requirement 1)"
    )
    reqs = np.zeros(len(systems))
    failures = {}  # loop index -> message
    groups = {}
    for i, s in enumerate(systems):
        groups.setdefault(s.dim, []).append(i)
    for idx in map(np.array, groups.values()):
        loops = [systems[i] for i in idx]
        p = np.array([s.lyap_matrix for s in loops])
        rho_p = np.array([s.decay_rate for s in loops])[:, None, None] * p
        a_o, a_c = np.array([s.a_open for s in loops]), np.array([s.a_closed for s in loops])
        with np.errstate(over="ignore"):  # a Gram beyond the float range is inf
            a = a_o.transpose(0, 2, 1) @ p @ a_o - rho_p
            b = a_c.transpose(0, 2, 1) @ p @ a_c - rho_p
        keep = ~(np.linalg.eigvalsh(a)[:, -1] <= 0.0)  # the others need nothing: c = 0
        idx, a, b = idx[keep], a[keep], b[keep]
        slack = np.linalg.eigvalsh(b)[:, -1]
        for i, value in zip(idx[slack > 0.0], slack[slack > 0.0]):
            failures[i] = (
                "closed-loop admissibility fails: A_c' P A_c <= rho P does not hold "
                f"(slack {value:g}); no delivery probability can certify the contract"
            )
        keep = ~(slack > 0.0)
        idx, a, ell = idx[keep], a[keep], _factor(-b[keep])
        keep = ~np.isnan(ell[:, 0, 0])
        failures.update(dict.fromkeys(idx[~keep], boundary))
        idx, a, ell = idx[keep], a[keep], ell[keep]
        # L^-1 A L^-T; A is symmetric, so (L^-1 A)' = A L^-T.
        whitened = np.linalg.solve(ell, np.linalg.solve(ell, a).transpose(0, 2, 1))
        lam = np.linalg.eigvalsh(whitened)[:, -1]
        with np.errstate(invalid="ignore"):
            reqs[idx] = c = lam / (1.0 + lam)
        # Also catches a nan from an overflowing whitened pencil.
        failures.update(dict.fromkeys(idx[~(c < 1.0)], boundary))
    if failures:
        first = min(failures)
        raise InfeasibleContractError(failures[first], loop=int(first))
    return reqs


def expected_lyapunov_next(sys, x, success_prob):
    """E[V(x_{k+1}) | x_k = x] under i.i.d. delivery with the given probability.

    Parameters
    ----------
    sys : SwitchedSystem
    x : array_like
        Current state.
    success_prob : float
        Per-slot delivery probability in [0, 1].

    Returns
    -------
    float
        ``p x'Gc x + (1-p) x'Go x + tr(P W)``.
    """
    p = float(success_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success_prob must lie in [0, 1], got {p:g}")
    xv = np.asarray(x, dtype=float).reshape(-1)
    if xv.shape[0] != sys.dim:
        raise ValueError(f"state has length {xv.shape[0]}, expected {sys.dim}")
    quad_closed = float(xv @ sys.gram_closed() @ xv)
    quad_open = float(xv @ sys.gram_open() @ xv)
    drift = float(np.trace(sys.lyap_matrix @ sys.noise_cov))
    return p * quad_closed + (1.0 - p) * quad_open + drift


def steady_state_cost_bound(sys):
    """Long-run bound tr(P W) / (1 - rho) implied by the decay contract."""
    return float(np.trace(sys.lyap_matrix @ sys.noise_cov)) / (
        1.0 - sys.decay_rate
    )


@frozen
class PlantControllerPair(Frozen):
    """Plant and output-feedback controller blocks for one loop.

    The plant is ``x+ = A x + B u + w``, ``y = C x + v``; the controller
    state is z with ``z+ = F z + gamma (F_c z + G y)`` and control
    ``u = K z + gamma (K_c z + L y)``, where gamma indicates packet
    delivery from sensor to controller.
    """

    plant_a: np.ndarray
    plant_b: np.ndarray
    plant_c: np.ndarray
    ctrl_f: np.ndarray
    ctrl_fc: np.ndarray
    ctrl_g: np.ndarray
    ctrl_k: np.ndarray
    ctrl_kc: np.ndarray
    ctrl_l: np.ndarray
    process_noise_cov: np.ndarray
    meas_noise_cov: np.ndarray

    def __post_init__(self):
        arrs = {
            f.name: _as_matrix(getattr(self, f.name), f.name, square=False)
            for f in dataclasses.fields(self)
        }
        n = arrs["plant_a"].shape[0]
        nu = arrs["plant_b"].shape[1]
        p = arrs["plant_c"].shape[0]
        nz = arrs["ctrl_f"].shape[0]
        shapes = {
            "plant_a": (n, n), "plant_b": (n, nu), "plant_c": (p, n),
            "ctrl_f": (nz, nz), "ctrl_fc": (nz, nz), "ctrl_g": (nz, p),
            "ctrl_k": (nu, nz), "ctrl_kc": (nu, nz), "ctrl_l": (nu, p),
            "process_noise_cov": (n, n), "meas_noise_cov": (p, p),
        }
        for name, arr in arrs.items():
            if arr.shape != shapes[name]:
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected {shapes[name]}"
                )
        for name in ("process_noise_cov", "meas_noise_cov"):
            if _asymmetric(arrs[name]):
                raise ValueError(f"{name} must be symmetric")
        for name, arr in arrs.items():
            object.__setattr__(self, name, arr)

    @property
    def state_dim(self):
        return self.plant_a.shape[0]

    @property
    def ctrl_dim(self):
        return self.ctrl_f.shape[0]

    @property
    def output_dim(self):
        return self.plant_c.shape[0]


def assemble_example_loop(pc, lyap_matrix, decay_rate, noise_mode="closed"):
    """Stack a plant/controller pair into one switched aggregate loop.

    The aggregate state is (x, z). Packet delivery activates the
    controller's receive path, so delivered slots evolve by

        [[A + B L C, B K + B Kc], [G C, F + Fc]]

    and dropped slots by ``[[A, B K], [0, F]]``. The noise entering the
    aggregate is M_mode (w, v) with ``M_closed = [[I, B L], [0, G]]`` and
    ``M_open = [[I, 0], [0, 0]]``.

    Parameters
    ----------
    pc : PlantControllerPair
    lyap_matrix : array_like
        P for the aggregate state, symmetric positive definite.
    decay_rate : float
        Contract decay in (0, 1).
    noise_mode : {"closed", "worst"}
        Which mode's effective noise covariance the SwitchedSystem stores.
        "closed" keeps the delivered-mode covariance (the only mode that
        injects measurement noise); "worst" keeps whichever mode maximizes
        tr(P W_eff), the term entering the steady-state bound.

    Returns
    -------
    (SwitchedSystem, ndarray, ndarray)
        The aggregate system plus the closed- and open-mode noise-input
        matrices, each (n+nz) by (n+p).
    """
    if noise_mode not in ("closed", "worst"):
        raise ValueError(f"noise_mode must be 'closed' or 'worst', got {noise_mode!r}")
    a, b, c = pc.plant_a, pc.plant_b, pc.plant_c
    f, fc, g = pc.ctrl_f, pc.ctrl_fc, pc.ctrl_g
    k, kc, ll = pc.ctrl_k, pc.ctrl_kc, pc.ctrl_l
    n, nz, p = pc.state_dim, pc.ctrl_dim, pc.output_dim

    a_closed = np.block([[a + b @ ll @ c, b @ (k + kc)], [g @ c, f + fc]])
    a_open = np.block([[a, b @ k], [np.zeros((nz, n)), f]])

    m_closed = np.block(
        [[np.eye(n), b @ ll], [np.zeros((nz, n)), g]]
    )
    m_open = np.block(
        [[np.eye(n), np.zeros((n, p))], [np.zeros((nz, n + p))]]
    )

    noise_joint = np.block(
        [
            [pc.process_noise_cov, np.zeros((n, p))],
            [np.zeros((p, n)), pc.meas_noise_cov],
        ]
    )
    w_closed = m_closed @ noise_joint @ m_closed.T
    w_open = m_open @ noise_joint @ m_open.T

    p_mat = _as_matrix(lyap_matrix, "lyap_matrix")
    if p_mat.shape != a_closed.shape:
        raise ValueError(
            f"lyap_matrix has shape {p_mat.shape}, expected {a_closed.shape}"
        )
    if noise_mode == "closed":
        w_eff = w_closed
    else:
        tr_closed = float(np.trace(p_mat @ w_closed))
        tr_open = float(np.trace(p_mat @ w_open))
        w_eff = w_closed if tr_closed >= tr_open else w_open
    # Symmetrize against accumulation error before validation.
    w_eff = 0.5 * (w_eff + w_eff.T)

    system = SwitchedSystem(
        a_closed=a_closed,
        a_open=a_open,
        noise_cov=w_eff,
        lyap_matrix=p_mat,
        decay_rate=decay_rate,
    )
    return system, m_closed, m_open
