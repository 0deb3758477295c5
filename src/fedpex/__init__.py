"""Asynchronous federated pure-exploration bandit simulator.

Federated best-arm identification for multi-armed and linear bandits with
event-triggered communication, plus single-agent and synchronous baselines.
"""

from .baselines import SyncConfig, run_single_agent, run_synchronous
from .core import (
    GenerationError,
    LinearInstance,
    MabInstance,
    RunConfig,
    RunResult,
    gen_gap_instance_linear,
    gen_gap_instance_mab,
    instance_from_json,
    instance_to_json,
    load_instance,
    make_rng,
    sample_reward_linear,
    sample_reward_mab,
    save_instance,
)
from .design_lp import L1Solution, informative_arm_lp, solve_l1
from .linalg import NotPositiveDefiniteError, cholesky, quad_form_inv, solve
from .runner import (
    AuditError,
    AuditRecord,
    compute_theory_diagnostics,
    linear_comm_bound,
    mab_comm_bound,
    run_falinpe,
    run_famabpe,
)

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "AuditRecord",
    "GenerationError",
    "L1Solution",
    "LinearInstance",
    "MabInstance",
    "NotPositiveDefiniteError",
    "RunConfig",
    "RunResult",
    "SyncConfig",
    "cholesky",
    "compute_theory_diagnostics",
    "gen_gap_instance_linear",
    "gen_gap_instance_mab",
    "informative_arm_lp",
    "instance_from_json",
    "instance_to_json",
    "linear_comm_bound",
    "load_instance",
    "mab_comm_bound",
    "make_rng",
    "quad_form_inv",
    "run_falinpe",
    "run_famabpe",
    "run_single_agent",
    "run_synchronous",
    "sample_reward_linear",
    "sample_reward_mab",
    "save_instance",
    "solve",
    "solve_l1",
]
