"""Incremental linear-function bound refinement (Section 4.1, Eqs. 6-7).

The RA-Bound ignores the observation function, so it can be loose.
Hauskrecht's incremental linear-function method creates, from an existing
set of bounding hyperplanes ``B``, one new hyperplane that improves the
bound at a chosen belief ``pi``:

* for each action ``a`` and observation ``o``, pick the existing vector
  ``b^{pi,a,o}`` that is best at the *posterior* mass
  ``m_{a,o}(s') = sum_s p(s', o | s, a) pi(s)``;
* back those choices up through the model to form one candidate ``b_a`` per
  action (Eq. 7);
* keep the candidate that is best at ``pi``.

Because the backup is one application of the POMDP operator ``L_p`` to a
valid lower bound, the candidate is itself a valid lower bound, and the set
keeps the invariant ``V_B^- <= L_p V_B^-`` needed by Property 1(b).  The
paper proves convergence of the procedure only for discounted models and
verifies improvement experimentally for the undiscounted recovery case
(Figure 5(a)); :func:`verify_lower_bound_invariant` makes that experimental
check available as a library call.

The bound is refined at every belief a recovery visits, so the backup is
built from stacked products rather than a loop over actions.  Actions go
in chunks whose ``(c, |S'|, |O|)`` joint block fits the level expander's
:data:`~repro.pomdp.tree.BLOCK_BYTES` (one chunk holds all ten EMN
actions), and each chunk scores the vectors at its branches, takes the
tie-broken argmax, gathers the chosen vectors, sums them weighted by the
observation model and backs the result up through ``T_a``.  Only *live*
branches, whose joint column is not all zeros, are scored: on a dead one
every vector scores 0 and the tie-break picks vector 0 anyway, and at a
typical recovery belief about 13% of EMN's 1,280 branches are live.  The
joint comes from the shared factor cache, whose memo of the last belief
hands the same array to the lookahead expanded next at this belief.  The
result is the per-action loop's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.vector_set import BoundVectorSet
from repro.linalg.ops import (
    BACKUP_TIE_EPSILON,
    observation_block,
    observation_matrix_dense,
    predict,
    predict_block,
    reward_block,
    tie_break_argmax,
    transition_matvec_block,
)
from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span
from repro.pomdp.belief import GAMMA_EPSILON, belief_bellman_backup
from repro.pomdp.cache import get_joint_cache
from repro.pomdp.model import POMDP
from repro.pomdp.tree import BLOCK_BYTES

__all__ = [
    "BACKUP_TIE_EPSILON",  # canonical home is repro.linalg.ops
    "RefinementResult",
    "incremental_update",
    "refine_at",
    "sample_reachable_beliefs",
    "verify_lower_bound_invariant",
]


def _first_within(scores: np.ndarray) -> int:
    """Lowest index whose score is within the tie tolerance of the max."""
    return int(tie_break_argmax(scores, BACKUP_TIE_EPSILON))


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of one incremental update at a belief.

    Attributes:
        vector: the new bounding hyperplane (Eq. 7's ``b``).
        action: the action whose backup produced it.
        improvement: ``pi . b - V_B^-(pi)`` before insertion (>= 0).
        added: whether the vector was actually inserted into the set.
    """

    vector: np.ndarray
    action: int
    improvement: float
    added: bool


def incremental_update(
    pomdp: POMDP, vectors: np.ndarray, belief: np.ndarray
) -> tuple[np.ndarray, int]:
    """Compute Eq. 7's new hyperplane from the stack ``vectors`` at ``belief``.

    Returns ``(b, action)`` where ``b`` is the candidate hyperplane and
    ``action`` the maximising action.  Pure function: nothing is inserted.
    """
    belief = np.asarray(belief, dtype=float)
    n_actions, n_states = pomdp.n_actions, pomdp.n_states
    candidates = np.empty((n_actions, n_states))
    # mass[a, s', o] = sum_s pi(s) p(s'|s,a) q(o|s',a): one product through
    # the shared joint-factor cache, which the lookahead at this belief
    # then reuses.
    cache = get_joint_cache(pomdp)
    joint = cache.joint_all(belief) if cache is not None else None
    chunk = max(1, BLOCK_BYTES // (8 * n_states * pomdp.n_observations))
    for start in range(0, n_actions, chunk):
        actions = slice(start, min(start + chunk, n_actions))
        observations = observation_block(pomdp.observations, actions)
        if joint is not None:
            mass = joint[actions]
        else:
            predicted = predict_block(pomdp.transitions, belief, actions)
            mass = predicted[:, :, None] * observations
        chosen = _chosen_vectors(vectors, mass)  # (c, |O|)
        selected = vectors.T[:, chosen].transpose(1, 0, 2)  # (c, |S'|, |O|)
        # x_a(s') = sum_o q(o|s',a) * b^{pi,a,o}(s')
        backup = (observations * selected).sum(axis=2)
        backed = transition_matvec_block(pomdp.transitions, actions, backup)
        candidates[actions] = (
            reward_block(pomdp.rewards, actions) + pomdp.discount * backed
        )
    best_action = _first_within(candidates @ belief)
    return candidates[best_action], best_action


def _chosen_vectors(vectors: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Index of the hyperplane each ``(a, o)`` branch of ``mass`` backs up.

    ``mass`` is a ``(c, |S'|, |O|)`` joint block.  A branch picks the vector
    best at its mass, ties toward the lowest index (shared tolerance).  On
    a dead branch, whose mass is all zeros, every vector scores 0 and the
    tie-break picks vector 0, so only live branches are scored; a lone
    vector wins everywhere.
    """
    live = mass.any(axis=1)  # (c, |O|)
    chosen = np.zeros(live.shape, dtype=np.intp)
    if vectors.shape[0] > 1 and live.any():
        scores = vectors @ mass.transpose(1, 0, 2)[:, live]  # (|B|, live)
        chosen[live] = tie_break_argmax(scores, BACKUP_TIE_EPSILON)
    return chosen


def refine_at(
    pomdp: POMDP,
    bound_set: BoundVectorSet,
    belief: np.ndarray,
    min_improvement: float = 0.0,
) -> RefinementResult:
    """Run one incremental update at ``belief`` and insert the result.

    The vector is inserted only when it improves the bound at ``belief`` by
    more than ``min_improvement`` and is not pointwise-dominated (per
    :meth:`BoundVectorSet.add`); the paper notes non-improving hyperplanes
    "can be discarded".
    """
    belief = np.asarray(belief, dtype=float)
    telemetry = telemetry_active()
    with span("bounds.refine", category="bounds"):
        vector, action = incremental_update(pomdp, bound_set.vectors, belief)
    improvement = bound_set.improvement_at(vector, belief)
    added = bound_set.add(vector, belief=belief, min_improvement=min_improvement)
    if telemetry is not None:
        telemetry.count("bounds.refinements")
        if added:
            telemetry.count("bounds.refinements_accepted")
        # Convergence extras (repro.obs.convergence): the bound value at the
        # visited belief after insertion, the registry-relative wall-clock
        # stamp (outside the determinism contract), and the set's cumulative
        # dominated/evicted totals.
        telemetry.event(
            "refine",
            action=int(action),
            added=added,
            improvement=float(max(improvement, 0.0)),
            set_size=len(bound_set),
            value=float(np.max(bound_set.vectors @ belief)),
            t=round(telemetry.elapsed(), 9),
            dominated=int(getattr(bound_set, "dominated", 0)),
            evicted=int(bound_set.evictions),
        )
    return RefinementResult(
        vector=vector, action=action, improvement=max(improvement, 0.0), added=added
    )


def verify_lower_bound_invariant(
    pomdp: POMDP,
    bound_set: BoundVectorSet,
    beliefs: np.ndarray,
    tol: float = 1e-8,
) -> bool:
    """Empirically check Property 1(b): ``V_B^-(pi) <= L_p V_B^-(pi)``.

    Evaluates the invariant at every row of ``beliefs``.  This is the
    condition that, together with the no-free-actions condition (Property
    1(a)), guarantees the bounded controller terminates after finitely many
    actions.  The check is exact at the tested beliefs (not a proof over the
    whole simplex, which the paper leaves to future work).
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    # Intentionally row-wise: each belief's backup builds its own posterior
    # enumeration, and the check is a diagnostic, not a decision-time path.
    for belief in beliefs:  # codelint: ignore[R904]
        current = float(np.max(bound_set.vectors @ belief))
        backed_up = belief_bellman_backup(
            pomdp, belief, lambda next_belief: float(
                np.max(bound_set.vectors @ next_belief)
            )
        )
        if current > backed_up + tol:
            return False
    return True


def sample_reachable_beliefs(
    pomdp: POMDP,
    initial: np.ndarray,
    depth: int,
    max_beliefs: int = 512,
) -> np.ndarray:
    """Breadth-first enumeration of beliefs reachable from ``initial``.

    Used by invariant checks and by tests to exercise the bound over the
    countable reachable belief set (Section 2 observes reachability is
    countable even though the simplex is not).
    """
    frontier = [np.asarray(initial, dtype=float)]
    seen = [frontier[0]]
    for _ in range(depth):
        next_frontier = []
        for belief in frontier:
            for action in range(pomdp.n_actions):
                predicted = predict(pomdp.transitions, belief, action)
                joint = predicted[:, None] * observation_matrix_dense(
                    pomdp.observations, action
                )
                gamma = joint.sum(axis=0)
                for observation in np.flatnonzero(gamma > GAMMA_EPSILON):
                    posterior = joint[:, observation] / gamma[observation]
                    if not any(
                        np.allclose(posterior, known, atol=1e-12) for known in seen
                    ):
                        seen.append(posterior)
                        next_frontier.append(posterior)
                        if len(seen) >= max_beliefs:
                            return np.array(seen)
        frontier = next_frontier
        if not frontier:
            break
    return np.array(seen)
