"""The bootstrapping phase (Section 4.1) behind Figures 5(a) and 5(b).

Before any real fault occurs, the controller improves its lower bound by
*simulating* recoveries: faults are injected into a simulated copy of the
system, monitor outputs are sampled from the observation function ``q``, and
the incremental update of Eq. 7 is exercised at every belief the simulated
controller visits.  Two variants match the paper's experiment:

* ``"random"`` — a fault is drawn uniformly, observations corresponding to
  it are sampled, and the controller starts from the belief those
  observations induce;
* ``"average"`` — the controller starts from the belief in which all faults
  are equally likely (no conditioning on an initial observation).

After every iteration the bound is evaluated at the reference belief
``{1/|S|}`` (all model states equally likely), which is the y-axis of
Figure 5(a); the set size is Figure 5(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.incremental import refine_at
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import NOTIFICATION_CERTAINTY, TIE_EPSILON
from repro.exceptions import BeliefError
from repro.pomdp.belief import update_belief
from repro.pomdp.simulator import POMDPSimulator
from repro.pomdp.tree import expand_tree
from repro.recovery.model import RecoveryModel
from repro.util.rng import as_generator

#: Safety cap on simulated episode length during bootstrapping.
DEFAULT_MAX_STEPS = 64

_VARIANTS = ("random", "average")


@dataclass(frozen=True)
class BootstrapResult:
    """Per-iteration trace of a bootstrapping run.

    Attributes:
        bound_values: ``bound_values[k]`` is ``V_B^-`` at the reference
            belief after iteration ``k+1``; Figure 5(a) plots the negation
            (an upper bound on cost).
        vector_counts: ``|B|`` after each iteration (Figure 5(b)).
        update_counts: incremental updates performed in each iteration;
            Section 4.1 guarantees at most one new vector per update, so
            ``diff(vector_counts) <= update_counts`` element-wise.
        initial_bound: the RA-Bound value at the reference belief before
            any refinement (iteration 0).
        reference_belief: the belief the series is evaluated at.
        variant: ``"random"`` or ``"average"``.
    """

    bound_values: np.ndarray
    vector_counts: np.ndarray
    update_counts: np.ndarray
    initial_bound: float
    reference_belief: np.ndarray
    variant: str

    @property
    def cost_upper_bounds(self) -> np.ndarray:
        """Figure 5(a)'s y-axis: upper bounds on recovery cost (>= 0)."""
        return -self.bound_values


def reference_belief(model: RecoveryModel) -> np.ndarray:
    """The paper's evaluation belief ``{1/|S|}`` over the original states.

    The terminate state, when present, is an artefact of the augmentation
    rather than a system state, so it carries no mass.
    """
    mask = np.ones(model.pomdp.n_states, dtype=bool)
    if model.terminate_state is not None:
        mask[model.terminate_state] = False
    belief = np.zeros(model.pomdp.n_states)
    belief[mask] = 1.0 / mask.sum()
    return belief


def _initial_belief(
    model: RecoveryModel,
    simulator: POMDPSimulator,
    variant: str,
) -> np.ndarray:
    belief = model.initial_belief()
    if variant == "average":
        return belief
    # "random": condition the uniform fault belief on sampled monitor outputs.
    passive = np.flatnonzero(model.passive_actions)
    if passive.size == 0:
        return belief
    observe_action = int(passive[0])
    observation = simulator.observe(observe_action)
    try:
        return update_belief(model.pomdp, belief, observe_action, observation)
    except BeliefError:
        return belief


def bootstrap_bounds(
    model: RecoveryModel,
    bound_set: BoundVectorSet | None = None,
    iterations: int = 20,
    depth: int = 1,
    variant: str = "random",
    seed=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    min_improvement: float = 1.0,
) -> tuple[BoundVectorSet, BootstrapResult]:
    """Run the bootstrapping phase and return the refined bound set.

    Args:
        model: the recovery model (without recovery notification, a
            terminate action must be present — which the augmentation
            guarantees).
        bound_set: set to refine in place; a fresh RA-Bound-seeded set is
            created when None.
        iterations: simulated recovery episodes (the x-axis of Figure 5).
        depth: lookahead depth of the simulated controller's decisions.
        variant: ``"random"`` or ``"average"`` (see module docstring).
        seed: RNG seed for fault draws and monitor sampling.
        max_steps: per-episode step cap.
        min_improvement: acceptance threshold for new hyperplanes (in
            reward units); keeps ``|B|`` in the paper's observed range by
            rejecting marginal refinements.

    Returns:
        ``(bound_set, result)`` — the refined set and the per-iteration
        trace.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    rng = as_generator(seed)
    pomdp = model.pomdp
    if bound_set is None:
        bound_set = BoundVectorSet(ra_bound_vector(pomdp))

    reference = reference_belief(model)
    initial_bound = float(np.max(bound_set.vectors @ reference))
    fault_indices = np.flatnonzero(model.fault_states)
    simulator = POMDPSimulator(pomdp, seed=rng)

    bound_values = np.empty(iterations)
    vector_counts = np.empty(iterations, dtype=int)
    update_counts = np.empty(iterations, dtype=int)
    for iteration in range(iterations):
        fault = int(rng.choice(fault_indices))
        simulator.reset(fault)
        belief = _initial_belief(model, simulator, variant)
        updates = 0
        for _ in range(max_steps):
            refine_at(pomdp, bound_set, belief, min_improvement=min_improvement)
            updates += 1
            decision = expand_tree(pomdp, belief, depth, bound_set)
            if model.terminate_action is not None and (
                decision.action_values[model.terminate_action]
                >= decision.value - TIE_EPSILON
            ):
                # Same terminate-on-tie rule as the bounded controller.
                break
            if (
                model.recovery_notification
                and model.recovered_probability(belief) >= NOTIFICATION_CERTAINTY
            ):
                break
            step = simulator.step(decision.action)
            try:
                belief = update_belief(
                    pomdp, belief, decision.action, step.observation
                )
            except BeliefError:
                belief = model.initial_belief()
        # Also refine where the figure evaluates, so the series reflects the
        # bound the controller would actually quote for "any fault".
        refine_at(pomdp, bound_set, reference, min_improvement=min_improvement)
        updates += 1
        bound_values[iteration] = float(np.max(bound_set.vectors @ reference))
        vector_counts[iteration] = len(bound_set)
        update_counts[iteration] = updates

    return bound_set, BootstrapResult(
        bound_values=bound_values,
        vector_counts=vector_counts,
        update_counts=update_counts,
        initial_bound=initial_bound,
        reference_belief=reference,
        variant=variant,
    )
