"""Branch-and-bound recovery policy (the paper's named future work).

The conclusion of the paper lists "generation of upper bounds in addition
to the lower bounds to facilitate branch and bound techniques" as an
extension.  This engine implements it: at every decision node of the
finite-depth expansion it first scores each action *optimistically* with a
one-step backup of the sawtooth upper bound; actions whose optimistic score
cannot beat the best *pessimistic* (lower-bound) score found so far are
pruned without expanding their observation subtrees.

The chosen action is identical to the plain bounded controller's — pruning
is sound because an action whose upper bound is below another action's
lower bound can never be the argmax — so the pay-off is purely
computational.  The engine counts ``controller.expanded_actions``,
``controller.pruned_actions`` and ``controller.withheld_terminations`` in
the active telemetry registry, so the benefit is measurable (see
``benchmarks/bench_ablations.py``); campaigns merge them across chunks
like every other telemetry counter.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.incremental import refine_at
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.sawtooth import SawtoothUpperBound, reachable_successors
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import NOTIFICATION_CERTAINTY, TIE_EPSILON
from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.obs.telemetry import Telemetry
from repro.obs.telemetry import active as telemetry_active
from repro.recovery.model import RecoveryModel

#: ``(gamma, posteriors)`` of every action at one belief, by action index.
Successors = list[tuple[np.ndarray, np.ndarray]]


class BranchAndBoundPolicyEngine(PolicyEngine):
    """Bounded lookahead with upper-bound action pruning.

    With ``certified_termination`` the engine additionally implements the
    first item of the paper's future-work list — "providing of guarantees
    against early termination of the recovery process": it chooses ``a_T``
    only when the termination reward is at least the *upper bound* of
    every alternative action's value, i.e. when terminating is provably
    optimal under the model.  Until that certificate holds, the best
    non-terminate action runs instead, so the engine can never quit while
    the model can prove recovery is the better deal.  (The guarantee is
    model-relative, like everything else: the robustness experiment shows
    what model overtrust does to it.)

    Args:
        model: the (augmented) recovery model.
        depth: lookahead depth.
        lower: lower-bound hyperplane set (RA-Bound-seeded when None).
        upper: sawtooth upper bound (QMDP-corner-seeded when None).
        refine_online: refine both bounds at every visited belief.
            Sessions can override it per episode via their ``refine`` flag.
        refine_min_improvement: lower-bound acceptance threshold.
        certified_termination: require the upper-bound certificate before
            choosing ``a_T`` (see above).
    """

    def __init__(
        self,
        model: RecoveryModel,
        depth: int = 1,
        lower: BoundVectorSet | None = None,
        upper: SawtoothUpperBound | None = None,
        refine_online: bool = True,
        refine_min_improvement: float = 0.0,
        certified_termination: bool = False,
        preflight: bool = False,
    ):
        super().__init__(model, preflight=preflight)
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        if lower is None:
            lower = BoundVectorSet(ra_bound_vector(model.pomdp))
        if upper is None:
            upper = SawtoothUpperBound(model.pomdp)
        self.lower = lower
        self.upper = upper
        self.refine_online = refine_online
        self.refine_min_improvement = refine_min_improvement
        self.certified_termination = certified_termination
        self.name = f"branch-and-bound (depth {depth})"

    def refinement_state(self) -> BoundVectorSet:
        """The engine refines (and campaigns merge) its *lower* set."""
        return self.lower

    # -- lookahead with pruning ---------------------------------------------

    def _lower_backup(
        self, rewards: np.ndarray, successors: Successors, action: int
    ) -> float:
        """Pessimistic score of ``action``: the lower bound at its successors."""
        gamma, posteriors = successors[action]
        return float(rewards[action]) + self.model.pomdp.discount * float(
            gamma @ self.lower.value_batch(posteriors)
        )

    def _search(
        self, belief: np.ndarray, remaining: int, telemetry: Telemetry | None
    ) -> tuple[float, int, np.ndarray, Successors]:
        """Best-first pruned expansion of ``belief`` to ``remaining`` levels.

        Returns the best pessimistic value, the first action in best-first
        order that reaches it, every action's optimistic score, and every
        action's successors.  The successors are computed once and serve
        both scores (and the root's tie and certificate checks).
        """
        pomdp = self.model.pomdp
        rewards = pomdp.rewards @ belief
        successors = [
            reachable_successors(pomdp, belief, action)
            for action in range(pomdp.n_actions)
        ]
        # One-step backup of the sawtooth bound: an upper bound on the
        # action's value at any remaining depth (monotonicity of L_p).
        optimistic = np.array(
            [
                float(belief @ pomdp.rewards[action])
                + pomdp.discount * float(gamma @ self.upper.value_batch(posteriors))
                for action, (gamma, posteriors) in enumerate(successors)
            ]
        )
        best_value = -np.inf
        best_action = -1
        expanded = pruned = 0
        # Best-first order makes the incumbent strong early, so pruning bites.
        for action in np.argsort(-optimistic):
            if optimistic[action] <= best_value + TIE_EPSILON:
                pruned += 1
                continue
            expanded += 1
            if remaining == 1:
                value = self._lower_backup(rewards, successors, action)
            else:
                gamma, posteriors = successors[action]
                future = np.array(
                    [
                        self._search(child, remaining - 1, telemetry)[0]
                        for child in posteriors
                    ]
                )
                value = float(rewards[action]) + pomdp.discount * float(
                    gamma @ future
                )
            if value > best_value:
                best_value = value
                best_action = int(action)
        if telemetry is not None:
            telemetry.count("controller.expanded_actions", expanded)
            telemetry.count("controller.pruned_actions", pruned)
        return best_value, best_action, optimistic, successors

    def decide(self, session: RecoverySession) -> Decision:
        belief = session.belief_view()
        pomdp = self.model.pomdp
        if (
            self.model.recovery_notification
            and self.model.recovered_probability(belief) >= NOTIFICATION_CERTAINTY
        ):
            return self.terminate_decision(value=0.0)
        if self.refines(session):
            refine_at(
                pomdp, self.lower, belief,
                min_improvement=self.refine_min_improvement,
            )
            self.upper.refine_at(belief)
        telemetry = telemetry_active()
        best_value, best_action, optimistic, successors = self._search(
            belief, self.depth, telemetry
        )
        rewards = pomdp.rewards @ belief
        terminate = self.model.terminate_action
        if terminate is not None and best_action != terminate:
            # Same terminate-on-tie policy as the bounded engine: the
            # pruning loop may have skipped a_T when it merely tied.
            terminate_value = self._lower_backup(rewards, successors, terminate)
            if terminate_value >= best_value - TIE_EPSILON:
                best_action = terminate
                best_value = max(best_value, terminate_value)
        if (
            self.certified_termination
            and terminate is not None
            and best_action == terminate
        ):
            # Future-work guarantee: only terminate when no alternative's
            # *upper bound* exceeds the termination value — i.e. the model
            # cannot prove that continuing recovery would be better.
            terminate_value = float(rewards[terminate])
            rivals = [
                action
                for action in range(pomdp.n_actions)
                if action != terminate
                and optimistic[action] > terminate_value + TIE_EPSILON
            ]
            if rivals:
                if telemetry is not None:
                    telemetry.count("controller.withheld_terminations")
                best_action = max(
                    rivals, key=lambda action: float(optimistic[action])
                )
                # Re-score the substitute action pessimistically for the
                # decision record.
                best_value = self._lower_backup(rewards, successors, best_action)
        return Decision(
            action=best_action,
            is_terminate=best_action == terminate,
            value=best_value,
        )
