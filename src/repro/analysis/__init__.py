"""Static model analysis.

Inspects an :class:`~repro.mdp.MDP`, :class:`~repro.pomdp.POMDP`, or
:class:`~repro.recovery.RecoveryModel` *without solving it* and reports
every violation of the paper's structural preconditions (Conditions 1/2,
the Figure 2 rewirings, Eq. 5 finiteness) plus warnings and statistics —
in contrast to the model constructors, which fail fast on the first
problem.  Each pass has one implementation, on the sparse containers
(a dense input is converted losslessly first), so the full suite runs on
300k-state sparse-backend models without densifying anything.  Run
``python -m repro.analysis --help`` for the CLI.

Two sibling checkers share the diagnostic machinery:
:mod:`repro.analysis.certify` statically certifies persisted bound sets
(R3xx), and :mod:`repro.analysis.codelint` lints the source tree for
determinism hazards (R9xx; ``python -m repro.analysis.codelint src/``).
"""

from repro.analysis.certify import certify_bound_set
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.passes import (
    DUPLICATE_PAIR_BUDGET,
    PER_STATE_SCAN_CUTOFF,
    SLOW_ABSORPTION_STEPS,
    SPARSE_SOLVE_SKIP_STATES,
    analyze,
    condition_1_diagnostics,
    condition_2_diagnostics,
    dead_observation_diagnostics,
    duplicate_action_diagnostics,
    null_rewiring_diagnostics,
    ra_finiteness_diagnostics,
    slow_absorption_diagnostics,
    stochasticity_diagnostics,
    terminate_wiring_diagnostics,
    unreachable_diagnostics,
)
from repro.analysis.view import ModelView

__all__ = [
    "CODES",
    "DUPLICATE_PAIR_BUDGET",
    "PER_STATE_SCAN_CUTOFF",
    "SLOW_ABSORPTION_STEPS",
    "SPARSE_SOLVE_SKIP_STATES",
    "AnalysisReport",
    "Diagnostic",
    "ModelView",
    "Severity",
    "analyze",
    "certify_bound_set",
    "condition_1_diagnostics",
    "condition_2_diagnostics",
    "dead_observation_diagnostics",
    "duplicate_action_diagnostics",
    "null_rewiring_diagnostics",
    "ra_finiteness_diagnostics",
    "slow_absorption_diagnostics",
    "stochasticity_diagnostics",
    "terminate_wiring_diagnostics",
    "unreachable_diagnostics",
]
