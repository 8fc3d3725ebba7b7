"""The heuristic baseline policy (Section 5, and [8]).

Identical lookahead machinery to the bounded controller, but the leaves of
the finite-depth expansion carry a *heuristic* approximation instead of a
provable bound: "the value of a belief-state is approximated as
``(1 - P[s_phi]) * max_{a,s} r(s,a)`` (i.e., the product of the probability
that the system hasn't recovered with the cost of the most expensive
recovery action available to the system)".

The formula and the prose disagree once rewards are non-positive: the
literal ``max`` picks the *cheapest* entry (usually 0), which collapses the
heuristic to the trivial upper bound, while the prose's "most expensive
recovery action" is the ``min``.  The prose reading is the default because
it is the only one that reproduces the paper's heuristic-controller
behaviour; the literal reading stays available via ``literal_max=True``
(see DESIGN.md, "substitutions").

Because heuristic leaves carry no termination semantics, the controller
terminates by thresholding the recovered probability, exactly as Section 5
describes (0.9999 in the paper's runs), and the terminate action is masked
out of its lookahead.
"""

from __future__ import annotations

import numpy as np

from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.linalg.ops import reward_row, rewards_max_value
from repro.pomdp.tree import expand_tree
from repro.recovery.model import RecoveryModel
from repro.util.validation import check_termination_probability


class HeuristicLeaf:
    """The leaf value ``(1 - P[recovered]) * C`` of Section 5.

    ``C`` is the cost (reward) of the most expensive recovery action:
    ``min_{a,s} r(s, a)`` over non-passive, non-terminate actions by
    default, or the literal ``max_{a,s} r(s,a)`` over all actions when
    ``literal_max`` is set.
    """

    def __init__(self, model: RecoveryModel, literal_max: bool = False):
        self.model = model
        pomdp = model.pomdp
        if literal_max:
            self.cost = rewards_max_value(pomdp.rewards)
        elif pomdp.backend.is_sparse:
            self.cost = min(
                float(reward_row(pomdp.rewards, int(a)).min())
                for a in np.flatnonzero(model.recovery_actions)
            )
        else:
            recovery = model.recovery_actions
            self.cost = float(pomdp.rewards[recovery].min())
        # Recovered mass = S_phi plus s_T (the terminated state is not a
        # fault the controller should keep paying for in the heuristic).
        mask = model.null_states.copy()
        if model.terminate_state is not None:
            mask[model.terminate_state] = True
        self._recovered_mask = mask

    def value(self, belief: np.ndarray) -> float:
        """Heuristic value at ``belief``."""
        unrecovered = 1.0 - float(belief[self._recovered_mask].sum())
        return unrecovered * self.cost

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`."""
        unrecovered = 1.0 - beliefs[:, self._recovered_mask].sum(axis=1)
        return unrecovered * self.cost


class HeuristicPolicyEngine(PolicyEngine):
    """Finite-depth lookahead with the heuristic leaf of [8].

    Args:
        model: the recovery model.
        depth: lookahead depth (the paper evaluates 1, 2, and 3).
        termination_probability: recovered-probability threshold at which
            the policy stops (the paper uses 0.9999 for 10,000 runs).
        literal_max: use the formula's literal ``max`` leaf (see module
            docstring).
    """

    def __init__(
        self,
        model: RecoveryModel,
        depth: int = 1,
        termination_probability: float = 0.9999,
        literal_max: bool = False,
        preflight: bool = False,
    ):
        super().__init__(model, preflight=preflight)
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.termination_probability = check_termination_probability(
            termination_probability
        )
        self.leaf = HeuristicLeaf(model, literal_max=literal_max)
        self._allowed = np.ones(model.pomdp.n_actions, dtype=bool)
        if model.terminate_action is not None:
            self._allowed[model.terminate_action] = False
        self.name = f"heuristic (depth {depth})"

    def decide(self, session: RecoverySession) -> Decision:
        belief = session.belief_view()
        recovered = self.model.recovered_probability(belief)
        if recovered >= self.termination_probability:
            return self.terminate_decision(value=0.0)
        decision = expand_tree(
            self.model.pomdp,
            belief,
            self.depth,
            self.leaf,
            allowed_actions=self._allowed,
        )
        return Decision(action=decision.action, value=decision.value)
