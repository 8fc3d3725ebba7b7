"""pomdp-recovery: automatic recovery with bounded POMDPs.

A complete implementation of "Automatic Recovery Using Bounded Partially
Observable Markov Decision Processes" (Joshi, Hiltunen, Sanders,
Schlichting; DSN 2006): the RA-Bound and its convergence conditions for
undiscounted recovery models, incremental lower-bound refinement, the
bounded online recovery controller and its baselines, the EMN e-commerce
case-study system, and the fault-injection experiment harness.

Quick start::

    from repro import build_emn_system, BoundedPolicyEngine, run_campaign
    from repro.systems import FaultKind

    system = build_emn_system()
    engine = BoundedPolicyEngine(system.model, depth=1)
    result = run_campaign(
        engine,
        fault_states=system.fault_states(FaultKind.ZOMBIE),
        injections=100,
        seed=0,
    )
    print(result.summary)
"""

from repro.bounds import (
    BoundVectorSet,
    SawtoothUpperBound,
    bi_pomdp_bound,
    blind_policy_bound,
    ra_bound,
    ra_bound_vector,
    refine_at,
)
from repro.controllers import (
    BoundedPolicyEngine,
    BranchAndBoundPolicyEngine,
    HeuristicPolicyEngine,
    MostLikelyPolicyEngine,
    OraclePolicyEngine,
    RandomPolicyEngine,
    bootstrap_bounds,
)
from repro.io import (
    load_bound_set,
    load_pomdp,
    load_recovery_model,
    save_bound_set,
    save_pomdp,
    save_recovery_model,
)
from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    ModelView,
    Severity,
    analyze,
)
from repro.exceptions import (
    AnalysisError,
    BeliefError,
    ConditionViolation,
    ControllerError,
    DivergenceError,
    ModelError,
    NotConvergedError,
    ReproError,
)
from repro.mdp import MDP, policy_iteration, value_iteration
from repro.pomdp import POMDP, expand_tree, solve_exact
from repro.recovery import RecoveryModel, RecoveryModelBuilder
from repro.sim import RecoveryEnvironment, run_campaign, run_episode
from repro.systems import build_emn_system, build_simple_system

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "BeliefError",
    "BoundVectorSet",
    "BoundedPolicyEngine",
    "BranchAndBoundPolicyEngine",
    "ConditionViolation",
    "ControllerError",
    "Diagnostic",
    "DivergenceError",
    "HeuristicPolicyEngine",
    "MDP",
    "ModelError",
    "ModelView",
    "MostLikelyPolicyEngine",
    "NotConvergedError",
    "OraclePolicyEngine",
    "POMDP",
    "RandomPolicyEngine",
    "RecoveryEnvironment",
    "RecoveryModel",
    "RecoveryModelBuilder",
    "ReproError",
    "SawtoothUpperBound",
    "Severity",
    "analyze",
    "bi_pomdp_bound",
    "blind_policy_bound",
    "bootstrap_bounds",
    "build_emn_system",
    "build_simple_system",
    "expand_tree",
    "load_bound_set",
    "load_pomdp",
    "load_recovery_model",
    "policy_iteration",
    "ra_bound",
    "ra_bound_vector",
    "refine_at",
    "run_campaign",
    "run_episode",
    "save_bound_set",
    "save_pomdp",
    "save_recovery_model",
    "solve_exact",
    "value_iteration",
]
