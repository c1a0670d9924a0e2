"""Channel-aware random access design for wireless control loops.

Workflow: express each loop as a two-mode switched system with a
quadratic performance contract (``control``), turn the contract into a
per-link delivery requirement, design fade-threshold access policies by
dual decomposition over a shared collision channel (``channel``,
``policy``, ``optimizer``), and validate the closed design at slot level
(``simulate``). ``cli`` wires the stages into commands.
"""

from .channel import (
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    LogisticLogCurve,
    MonteCarlo,
    SaturatingExpCurve,
    UniformFading,
    draw_transmit_sample,
    expected_policy_rate,
    expected_policy_success,
    link_success_probability,
    sample_channel,
)
from .control import (
    InfeasibleContractError,
    PlantControllerPair,
    SwitchedSystem,
    assemble_example_loop,
    check_loops,
    compute_success_requirement,
    expected_lyapunov_next,
    lmi_slack,
    steady_state_cost_bound,
    success_requirements,
)
from .optimizer import (
    DivergenceError,
    DualPeriod,
    OptimizationResult,
    OptimizerSettings,
    ProblemInstance,
    StepSchedule,
    StopRule,
    dual_periods,
    run_algorithm1,
)
from .policy import (
    AccessPolicy,
    constant_policy,
    threshold_policy,
)
from .simulate import (
    SimMetrics,
    SimulationSettings,
    UnstableSimulationError,
    empirical_gamma_rate_check,
    lyapunov_drift_check,
    run_simulation,
)

__version__ = "0.1.0"
