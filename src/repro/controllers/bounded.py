"""The bounded recovery policy (Section 4).

On startup the engine computes the RA-Bound (off-line, Section 4.3) and
seeds a :class:`~repro.bounds.vector_set.BoundVectorSet` with it.  At every
decision point it optionally refines the bound at the current belief (the
belief-states "naturally generated during the course of system recovery",
Section 4.1) and then unrolls the POMDP recursion of Eq. 2 to a small fixed
depth with the lower bound at the leaves (Figure 1(b)).  Recovery ends when
the terminate action ``a_T`` maximises the tree — no termination-probability
knob is needed, which is the property Table 1's discussion highlights — or,
for systems with recovery notification, when the belief certifies arrival in
``S_phi``.

The expansion is batched at every depth (:mod:`repro.pomdp.tree`): the tree
is built a level at a time, and at the evaluated depth of 1 the bound set
is evaluated against every reachable successor belief in a single
:meth:`~repro.bounds.vector_set.BoundVectorSet.value_batch` matmul — on the
sparse backend the posteriors are skipped entirely and the whole decision is
a handful of CSR × dense-block products.

All of that is shared, warm state, so it lives in
:class:`BoundedPolicyEngine`; :class:`BoundedController` is the thin
campaign-facing adapter over one engine plus one live session.
"""

from __future__ import annotations

from repro.bounds.incremental import refine_at
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.base import RecoveryController
from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span
from repro.pomdp.tree import expand_tree
from repro.recovery.model import RecoveryModel

#: Belief mass in S_phi above which a notified system counts as recovered.
NOTIFICATION_CERTAINTY = 1.0 - 1e-9

#: Root-value slack within which terminating counts as tied-for-best.
TIE_EPSILON = 1e-9


class BoundedPolicyEngine(PolicyEngine):
    """Lookahead policy with provable lower bounds at the leaves.

    Args:
        model: the (augmented) recovery model.
        depth: lookahead depth; the paper's evaluated configuration is 1.
        bound_set: an existing bound-vector set to share (e.g. one produced
            by :func:`repro.controllers.bootstrap.bootstrap_bounds`, or one
            reloaded through :func:`repro.io.load_bound_set`); when None, a
            fresh set seeded with the RA-Bound is computed.
        refine_online: refine the bound at every visited belief (Section
            4.1).  Disable to freeze the bounds after bootstrapping.
            Sessions can override per episode via their ``refine`` flag.
        refine_min_improvement: reject online refinements that raise the
            bound at the visited belief by less than this (in reward units,
            i.e. dropped requests for the EMN model).  Keeps the vector set
            small and the per-decision cost flat over long campaigns; the
            right value is a small fraction of the model's typical recovery
            cost (the Table 1 harness uses 1 dropped request).  The default
            of 0 accepts every strict improvement.
        max_vectors: optional bound-vector storage limit (Section 4.3).
    """

    def __init__(
        self,
        model: RecoveryModel,
        depth: int = 1,
        bound_set: BoundVectorSet | None = None,
        refine_online: bool = True,
        refine_min_improvement: float = 0.0,
        max_vectors: int | None = None,
        preflight: bool = False,
    ):
        super().__init__(model, preflight=preflight)
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.refine_online = refine_online
        self.refine_min_improvement = refine_min_improvement
        if bound_set is None:
            bound_set = BoundVectorSet(
                ra_bound_vector(model.pomdp), max_vectors=max_vectors
            )
        self.bound_set = bound_set
        self.name = f"bounded (depth {depth})"

    def decide(self, session: RecoverySession) -> Decision:
        belief = session.belief_view()
        pomdp = self.model.pomdp
        telemetry = telemetry_active()
        if (
            self.model.recovery_notification
            and self.model.recovered_probability(belief) >= NOTIFICATION_CERTAINTY
        ):
            # Notified models have no a_T, so the decision carries the
            # NO_ACTION sentinel — the campaign executes nothing for it.
            if telemetry is not None:
                telemetry.count("controller.decisions")
                telemetry.count("controller.notification_exits")
                telemetry.event(
                    "decision",
                    action=-1,
                    terminate=True,
                    notified=True,
                    **session.span_attributes(),
                )
            return self.terminate_decision(value=0.0)
        with span(
            "controller.decision",
            category="controller",
            **session.span_attributes(),
        ):
            if self.refines(session):
                refine_at(
                    pomdp,
                    self.bound_set,
                    belief,
                    min_improvement=self.refine_min_improvement,
                )
            decision = expand_tree(pomdp, belief, self.depth, self.bound_set)
        action = decision.action
        terminate = self.model.terminate_action
        tie_break = False
        if (
            terminate is not None
            and decision.action_values[terminate] >= decision.value - TIE_EPSILON
        ):
            # Tie-break toward a_T: the EMN model's observe action is free in
            # the null state (violating Property 1(a)'s no-free-actions
            # premise), so without this preference the controller could
            # observe forever once the belief certifies recovery, with value
            # exactly equal to terminating.
            tie_break = action != terminate
            action = terminate
        if telemetry is not None:
            telemetry.count("controller.decisions")
            telemetry.count("tree.nodes", decision.nodes)
            telemetry.count("tree.leaf_evaluations", decision.leaf_evaluations)
            if tie_break:
                telemetry.count("controller.tie_breaks")
            telemetry.event(
                "decision",
                action=int(action),
                terminate=bool(action == terminate),
                value=float(decision.value),
                tree_nodes=decision.nodes,
                leaf_evaluations=decision.leaf_evaluations,
                tie_break=tie_break,
                # Labelled (service) sessions tag their decisions so a
                # multi-session stream can be filtered per session; the
                # campaign's unlabelled sessions add nothing, keeping
                # batch streams byte-identical to the pre-session era.
                **session.span_attributes(),
            )
        return Decision(
            action=action,
            is_terminate=action == terminate,
            value=decision.value,
        )


class BoundedController(RecoveryController):
    """Campaign-facing adapter over a :class:`BoundedPolicyEngine`.

    Accepts the engine's arguments (see there) and exposes the engine's
    shared state under the historical attribute names.
    """

    def __init__(
        self,
        model: RecoveryModel,
        depth: int = 1,
        bound_set: BoundVectorSet | None = None,
        refine_online: bool = True,
        refine_min_improvement: float = 0.0,
        max_vectors: int | None = None,
        preflight: bool = False,
    ):
        super().__init__(
            engine=BoundedPolicyEngine(
                model,
                depth=depth,
                bound_set=bound_set,
                refine_online=refine_online,
                refine_min_improvement=refine_min_improvement,
                max_vectors=max_vectors,
                preflight=preflight,
            )
        )

    @property
    def depth(self) -> int:
        return self.engine.depth

    @property
    def refine_online(self) -> bool:
        return self.engine.refine_online

    @property
    def refine_min_improvement(self) -> float:
        return self.engine.refine_min_improvement

    @property
    def bound_set(self) -> BoundVectorSet:
        return self.engine.bound_set
